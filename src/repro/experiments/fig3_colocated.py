"""Figure 3 — co-located preprocessing throughput and GPU utilization.

Scales the number of co-located CPU preprocessing workers from 1 to 16 (the
DGX A100 budget of 16 host cores per GPU) on RM5 and reports the effective
preprocessing throughput and the resulting single-A100 utilization, plus the
dotted-line maximum training throughput.

Paper claims: ~15x throughput at 16 workers vs. 1; GPU utilization below
20% even at 16 workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    build_system,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.training.gpu import GpuTrainingModel

CORE_COUNTS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class Fig3Result(ExperimentResult):
    """Series of Figure 3."""

    model: str
    core_counts: Tuple[int, ...]
    preprocessing_throughput: Tuple[float, ...]  # samples/s
    gpu_utilization: Tuple[float, ...]  # fraction
    max_training_throughput: float  # the dotted line

    @property
    def scaling_16_over_1(self) -> float:
        """Throughput improvement from 1 to 16 workers (paper: ~15x)."""
        return self.preprocessing_throughput[-1] / self.preprocessing_throughput[0]

    @property
    def utilization_at_16(self) -> float:
        """GPU utilization with the full 16-core budget (paper: <20%)."""
        return self.gpu_utilization[-1]

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("16-core scaling (x)", 15.0, self.scaling_16_over_1),
            PaperClaim("GPU util at 16 cores (<0.20)", 0.19, self.utilization_at_16),
        ]

    def columns(self) -> List[str]:
        return ["cores", "preproc samples/s", "A100 util (%)"]

    def rows(self) -> List[Tuple[int, float, float]]:
        return [
            (n, tput, 100.0 * util)
            for n, tput, util in zip(
                self.core_counts, self.preprocessing_throughput, self.gpu_utilization
            )
        ]

    def table_title(self) -> str:
        return (
            f"Figure 3 ({self.model}): co-located preprocessing; max "
            f"training throughput {self.max_training_throughput:,.0f} samples/s"
        )


@register_experiment("fig3", title="Figure 3", kind="figure", order=10)
def run(
    model: str = "RM5", calibration: Calibration = CALIBRATION
) -> Fig3Result:
    """Regenerate Figure 3."""
    spec = get_model(model)
    system = build_system("Co-located", spec, calibration)
    gpu = GpuTrainingModel(calibration)
    throughputs = [system.aggregate_throughput(n) for n in CORE_COUNTS]
    utils = [gpu.utilization(spec, t) for t in throughputs]
    return Fig3Result(
        model=spec.name,
        core_counts=CORE_COUNTS,
        preprocessing_throughput=tuple(throughputs),
        gpu_utilization=tuple(utils),
        max_training_throughput=gpu.max_training_throughput(spec),
    )
