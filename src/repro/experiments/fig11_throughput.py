"""Figure 11 — preprocessing throughput: PreSto vs Disagg(N).

Compares a single SmartSSD against disaggregated CPU configurations with 1,
16, 32, and 64 cores on every model, normalized to Disagg(1).

Paper claims: a single SmartSSD consistently outperforms Disagg(32); 64
cores pull ahead again, but only modestly (~27% on average) and at 2x node
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    build_system,
    models,
    register_experiment,
)
from repro.hardware.calibration import CALIBRATION, Calibration

CORE_COUNTS = (1, 16, 32, 64)


@dataclass(frozen=True)
class Fig11Result(ExperimentResult):
    """Throughput (samples/s) per design per model."""

    disagg: Dict[str, Dict[int, float]]  # model -> cores -> samples/s
    presto: Dict[str, float]  # model -> samples/s (one SmartSSD)

    def normalized(self, model: str) -> Dict[str, float]:
        """Bars of one model's group, normalized to Disagg(1)."""
        base = self.disagg[model][1]
        bars = {f"Disagg({n})": self.disagg[model][n] / base for n in CORE_COUNTS}
        bars["PreSto"] = self.presto[model] / base
        return bars

    def presto_over_disagg32(self, model: str) -> float:
        """PreSto vs 32 cores (paper: consistently > 1)."""
        return self.presto[model] / self.disagg[model][32]

    def disagg64_over_presto(self, model: str) -> float:
        """64 cores vs PreSto (paper average: 1.27)."""
        return self.disagg[model][64] / self.presto[model]

    @property
    def mean_disagg64_over_presto(self) -> float:
        ratios = [self.disagg64_over_presto(m) for m in self.presto]
        return sum(ratios) / len(ratios)

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim(
                "min PreSto/Disagg(32) (>1 everywhere)",
                1.1,
                min(self.presto_over_disagg32(m) for m in self.presto),
                0.5,
            ),
            PaperClaim(
                "mean Disagg(64)/PreSto",
                1.27,
                self.mean_disagg64_over_presto,
                0.25,
            ),
        ]

    def rows(self) -> List[Tuple]:
        out = []
        for model in self.presto:
            bars = self.normalized(model)
            out.append(
                (
                    model,
                    bars["Disagg(1)"],
                    bars["Disagg(16)"],
                    bars["Disagg(32)"],
                    bars["Disagg(64)"],
                    bars["PreSto"],
                )
            )
        return out

    def columns(self) -> List[str]:
        return ["model", "Disagg(1)", "Disagg(16)", "Disagg(32)", "Disagg(64)", "PreSto"]

    def table_title(self) -> str:
        return "Figure 11: preprocessing throughput normalized to Disagg(1)"


@register_experiment("fig11", title="Figure 11", kind="figure", order=70)
def run(calibration: Calibration = CALIBRATION) -> Fig11Result:
    """Regenerate Figure 11."""
    disagg: Dict[str, Dict[int, float]] = {}
    presto: Dict[str, float] = {}
    for spec in models():
        cpu_system = build_system("Disagg", spec, calibration)
        disagg[spec.name] = {
            n: cpu_system.aggregate_throughput(n) for n in CORE_COUNTS
        }
        presto[spec.name] = build_system(
            "PreSto", spec, calibration
        ).worker_throughput()
    return Fig11Result(disagg=disagg, presto=presto)
