"""Sensitivity — training mini-batch size.

The paper evaluates at batch 8,192.  This sweep varies the batch from 1K to
64K and reports per-sample preprocessing cost for one CPU core and one
SmartSSD.  Expected shape: the CPU worker's per-sample cost is ~flat (its
per-batch overhead is small relative to the element work), while PreSto's
per-sample cost *drops* with batch size as the fixed host-orchestration
overhead amortizes — small batches erode the offload advantage, which is why
in-storage preprocessing targets throughput-oriented training, not
latency-oriented inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.cpu import CpuCoreModel
from repro.ops.counts import OpCounts

BATCH_SIZES = (1024, 2048, 4096, 8192, 16384, 32768, 65536)


@dataclass(frozen=True)
class BatchSizeResult(ExperimentResult):
    """Per-batch-size per-sample costs for both workers."""

    model: str
    batch_sizes: Tuple[int, ...]
    cpu_us_per_sample: Tuple[float, ...]
    presto_us_per_sample: Tuple[float, ...]

    def speedup(self, index: int) -> float:
        """Latency speedup at one batch size."""
        return self.cpu_us_per_sample[index] / self.presto_us_per_sample[index]

    def claims(self) -> List[PaperClaim]:
        i8k = self.batch_sizes.index(8192)
        cpu_flatness = self.cpu_us_per_sample[0] / self.cpu_us_per_sample[-1]
        presto_amortization = (
            self.presto_us_per_sample[0] / self.presto_us_per_sample[-1]
        )
        return [
            PaperClaim("speedup at the paper's batch (8192)", 10.9, self.speedup(i8k), 0.10),
            PaperClaim("CPU per-sample cost ~flat (1K/64K)", 1.0, cpu_flatness, 0.10),
            PaperClaim(
                "PreSto per-sample cost amortizes (1K/64K > 1.5)",
                1.9,
                presto_amortization,
                0.35,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (batch, cpu, presto, cpu / presto)
            for batch, cpu, presto in zip(
                self.batch_sizes, self.cpu_us_per_sample, self.presto_us_per_sample
            )
        ]

    def columns(self) -> List[str]:
        return ["batch", "CPU us/sample", "PreSto us/sample", "speedup (x)"]

    def table_title(self) -> str:
        return f"Sensitivity (batch size, {self.model}): per-sample latency"


@register_experiment("abl-batch", title="Sensitivity: batch size", kind="ablation", order=250)
def run(model: str = "RM5", calibration: Calibration = CALIBRATION) -> BatchSizeResult:
    """Sweep the mini-batch size."""
    spec = get_model(model)
    cpu = CpuCoreModel(calibration)
    accel = AcceleratorModel(calibration)
    cpu_cost: List[float] = []
    presto_cost: List[float] = []
    for batch in BATCH_SIZES:
        counts = OpCounts.expected_for(spec, batch)
        cpu_cost.append(1e6 * cpu.batch_latency(spec, counts).total / batch)
        presto_cost.append(1e6 * accel.batch_stages(spec, counts).latency / batch)
    return BatchSizeResult(
        model=spec.name,
        batch_sizes=BATCH_SIZES,
        cpu_us_per_sample=tuple(cpu_cost),
        presto_us_per_sample=tuple(presto_cost),
    )
