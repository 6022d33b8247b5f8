"""Baseline CPU preprocessing worker (one worker per core, Section II-D).

A CPU worker executes the whole ETL sequence serially, so its throughput is
simply ``batch / latency``.  The worker can also run *functionally*: given a
stored partition it actually extracts, transforms, and packs the mini-batch
via the functional layer — integration tests use this to prove the modeled
system computes the same tensors as a direct in-memory pipeline.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.cpu import CpuCoreModel
from repro.core.worker import PreprocessingWorker


class CpuPreprocessingWorker(PreprocessingWorker):
    """One disaggregated or co-located CPU worker; ``pipeline`` is built on first read."""

    def __init__(
        self,
        spec: ModelSpec,
        calibration: Calibration = CALIBRATION,
        colocated: bool = False,
    ) -> None:
        super().__init__(spec)
        self.cal = calibration
        self.colocated = colocated
        self.model = CpuCoreModel(calibration)

    # -- performance -----------------------------------------------------------

    def batch_breakdown(self) -> Dict[str, float]:
        """Figure 5 step breakdown for one mini-batch on one core.

        Co-located workers share the training node with the trainer process,
        so every step is slowed by the co-location interference factor
        (Section III-A / Figure 3).
        """
        breakdown = self.model.batch_latency(self.spec).as_dict()
        if self.colocated:
            slowdown = 1.0 / self.cal.colocation_factor
            breakdown = {step: value * slowdown for step, value in breakdown.items()}
        return breakdown

    def throughput(self) -> float:
        """Serial worker: one batch per end-to-end latency."""
        return self.price()[1]

    def price(self) -> Tuple[float, float]:
        latency = self.batch_latency()
        return latency, self.spec.batch_size / latency
