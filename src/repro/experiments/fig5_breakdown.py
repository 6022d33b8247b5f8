"""Figure 5 — single-worker CPU preprocessing latency breakdown.

Latency to preprocess one mini-batch with one CPU worker, broken into the
key ETL steps and normalized to RM1's total (the paper's stacked bars).

Paper claims: feature generation + normalization average ~79% of time;
RM5's total is ~14x RM1's; preprocessing is compute-bound, not I/O-bound
(Extract(Read) is a small slice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.worker import BREAKDOWN_STEPS
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    models,
    register_experiment,
)
from repro.hardware.calibration import CALIBRATION, Calibration

TRANSFORM_STEPS = ("bucketize", "sigridhash", "log")


@dataclass(frozen=True)
class Fig5Result(ExperimentResult):
    """Per-model step breakdowns (seconds) plus normalized views."""

    breakdowns: Dict[str, Dict[str, float]]

    def total(self, model: str) -> float:
        """End-to-end seconds per batch for one model."""
        return sum(self.breakdowns[model].values())

    def normalized(self) -> Dict[str, Dict[str, float]]:
        """Every step scaled so RM1's total is 1.0 (the figure's y-axis)."""
        base = self.total("RM1")
        return {
            model: {step: seconds / base for step, seconds in steps.items()}
            for model, steps in self.breakdowns.items()
        }

    def transform_share(self, model: str) -> float:
        """Fraction of time in Bucketize + SigridHash + Log."""
        steps = self.breakdowns[model]
        return sum(steps[s] for s in TRANSFORM_STEPS) / self.total(model)

    @property
    def mean_transform_share(self) -> float:
        """Average across models (paper: 0.79)."""
        shares = [self.transform_share(m) for m in self.breakdowns]
        return sum(shares) / len(shares)

    @property
    def rm5_over_rm1(self) -> float:
        """Total-latency ratio (paper: ~14x)."""
        return self.total("RM5") / self.total("RM1")

    def read_share(self, model: str) -> float:
        """Extract(Read) fraction — the I/O-bound check."""
        return self.breakdowns[model]["extract_read"] / self.total(model)

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("mean transform share", 0.79, self.mean_transform_share, 0.10),
            PaperClaim("RM5/RM1 total latency", 14.0, self.rm5_over_rm1, 0.25),
            PaperClaim(
                "max Extract(Read) share (I/O not the bottleneck)",
                0.03,
                max(self.read_share(m) for m in self.breakdowns),
                1.0,
            ),
        ]

    def rows(self) -> List[Tuple]:
        normalized = self.normalized()
        out = []
        for model, steps in normalized.items():
            out.append(
                tuple(
                    [model]
                    + [steps[s] for s in BREAKDOWN_STEPS]
                    + [sum(steps.values())]
                )
            )
        return out

    def columns(self) -> List[str]:
        return ["model"] + list(BREAKDOWN_STEPS) + ["total"]

    def table_title(self) -> str:
        return "Figure 5: CPU worker latency breakdown (normalized to RM1 total)"


@register_experiment("fig5", title="Figure 5", kind="figure", order=30)
def run(calibration: Calibration = CALIBRATION) -> Fig5Result:
    """Regenerate Figure 5."""
    breakdowns = {
        spec.name: CpuPreprocessingWorker(spec, calibration).batch_breakdown()
        for spec in models()
    }
    return Fig5Result(breakdowns=breakdowns)
