"""Figure 17 — sensitivity to the number of features to preprocess.

Scales RM5's feature counts by 1x / 2x / 4x and compares the per-op latency
(Bucketize, SigridHash, Log) of one Disagg CPU worker against one PreSto
device, each normalized to PreSto's 1x latency for that op, plus PreSto's
per-op speedup.

Paper claims: Disagg's latency grows ~proportionally with the feature
count; PreSto keeps large speedups at every scale (robustness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.calibration import CALIBRATION, Calibration

SCALES = (1, 2, 4)
OPS = ("bucketize", "sigridhash", "log")


@dataclass(frozen=True)
class Fig17Result(ExperimentResult):
    """Per-(op, scale) latencies for both designs."""

    disagg: Dict[Tuple[str, int], float]  # (op, scale) -> seconds
    presto: Dict[Tuple[str, int], float]

    def speedup(self, op: str, scale: int) -> float:
        """Disagg/PreSto per-op latency ratio."""
        return self.disagg[(op, scale)] / self.presto[(op, scale)]

    def disagg_growth(self, op: str) -> float:
        """Disagg latency growth from 1x to 4x (paper: ~proportional, ~4)."""
        return self.disagg[(op, 4)] / self.disagg[(op, 1)]

    def min_speedup(self) -> float:
        """Worst-case per-op speedup across the sweep."""
        return min(self.speedup(op, s) for op in OPS for s in SCALES)

    def claims(self) -> List[PaperClaim]:
        growths = [self.disagg_growth(op) for op in OPS]
        return [
            PaperClaim(
                "Disagg 4x/1x latency growth (proportional)",
                4.0,
                sum(growths) / len(growths),
                0.15,
            ),
            PaperClaim(
                "min PreSto per-op speedup (consistently significant)",
                20.0,
                self.min_speedup(),
                1.0,
            ),
        ]

    def rows(self) -> List[Tuple]:
        out = []
        for op in OPS:
            base = self.presto[(op, 1)]
            for scale in SCALES:
                out.append(
                    (
                        op,
                        f"{scale}x",
                        self.disagg[(op, scale)] / base,
                        self.presto[(op, scale)] / base,
                        self.speedup(op, scale),
                    )
                )
        return out

    def columns(self) -> List[str]:
        return ["op", "scale", "Disagg (norm)", "PreSto (norm)", "speedup (x)"]

    def table_title(self) -> str:
        return "Figure 17: per-op latency vs feature count (RM5 base)"


@register_experiment("fig17", title="Figure 17", kind="figure", order=130)
def run(
    base_model: str = "RM5", calibration: Calibration = CALIBRATION
) -> Fig17Result:
    """Regenerate Figure 17."""
    base = get_model(base_model)
    accel = AcceleratorModel(calibration)
    disagg: Dict[Tuple[str, int], float] = {}
    presto: Dict[Tuple[str, int], float] = {}
    for scale in SCALES:
        spec = base if scale == 1 else base.scaled(scale)
        cpu_breakdown = CpuPreprocessingWorker(spec, calibration).batch_breakdown()
        for op in OPS:
            disagg[(op, scale)] = cpu_breakdown[op]
            presto[(op, scale)] = accel.op_time(spec, op)
    return Fig17Result(disagg=disagg, presto=presto)
