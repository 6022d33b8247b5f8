"""Abstract preprocessing worker and shared breakdown utilities.

Every worker type (CPU core, PreSto ISP unit, GPU/FPGA pool device) exposes
the same three quantities the paper's evaluation uses:

* a per-mini-batch latency *breakdown* over the Figure 5/12 steps;
* an end-to-end per-batch latency (the breakdown's sum);
* a steady-state throughput (per-batch for serial workers, pipeline-
  bottleneck for double-buffered devices).

The end-to-end simulation (:mod:`repro.core.endtoend`) prices its one
worker once, with ``price``: the first batch after the latency, the rest
``batch_size / throughput`` apart.

A worker can also run *functionally* (``preprocess_partition``).  Its
:class:`PreprocessingPipeline` is built on the first read of ``pipeline``,
never by a constructor: simulations and provisioning build none, and
import neither the pipeline nor the executor.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.features.specs import ModelSpec

if TYPE_CHECKING:
    from repro.features.minibatch import MiniBatch
    from repro.ops.counts import OpCounts
    from repro.ops.pipeline import PreprocessingPipeline

#: canonical step order (Figure 5 / Figure 12 legends)
BREAKDOWN_STEPS = (
    "extract_read",
    "extract_decode",
    "bucketize",
    "sigridhash",
    "log",
    "format_conversion",
    "else_time",
    "load",
)


def breakdown_total(breakdown: Dict[str, float]) -> float:
    """Sum of a step breakdown."""
    return sum(breakdown.get(step, 0.0) for step in BREAKDOWN_STEPS)


class PreprocessingWorker(abc.ABC):
    """One preprocessing worker of any technology."""

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        self._pipeline: Optional[PreprocessingPipeline] = None

    # -- functional execution -------------------------------------------------

    @property
    def pipeline(self) -> PreprocessingPipeline:
        """The worker's pipeline, built on first access and kept."""
        if self._pipeline is None:
            from repro.ops.pipeline import PreprocessingPipeline

            self._pipeline = PreprocessingPipeline(self.spec)
        return self._pipeline

    def preprocess_partition(self, file_bytes: bytes) -> Tuple[MiniBatch, OpCounts]:
        """Actually run Extract + Transform on one stored partition."""
        from repro.exec.executor import transform_shard

        shard = transform_shard(self.pipeline, (0, file_bytes))
        return shard.batch, shard.counts

    # -- performance interface ----------------------------------------------

    @abc.abstractmethod
    def batch_breakdown(self) -> Dict[str, float]:
        """Seconds per Figure-5 step for one mini-batch."""

    def batch_latency(self) -> float:
        """End-to-end seconds per mini-batch."""
        return breakdown_total(self.batch_breakdown())

    @abc.abstractmethod
    def throughput(self) -> float:
        """Steady-state samples/s of this worker."""

    def price(self) -> Tuple[float, float]:
        """``(batch_latency(), throughput())``, from one breakdown if it can."""
        return self.batch_latency(), self.throughput()
