"""Figure 16 — PreSto vs alternative accelerated preprocessing.

Four single-device design points per model: a disaggregated A100 (NVTabular
style), a disaggregated U280, PreSto(U280) (the U280 inside the storage
node), and PreSto(SmartSSD).  Reports throughput (normalized to A100) and
performance/Watt.

Paper claims: PreSto(SmartSSD) ~2.5x faster than the A100; ~5% slower than
the disaggregated U280; the U280-disagg spends ~47.6% of its time moving
data; PreSto(SmartSSD) delivers ~2.9x the perf/W of PreSto(U280).
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

DESIGNS = ("A100", "U280", "PreSto (U280)", "PreSto (SmartSSD)")


@dataclass(frozen=True)
class Fig16Result(ExperimentResult):
    """Per-design throughput and perf/W for every model."""

    throughput: Dict[str, Dict[str, float]]  # model -> design -> samples/s
    perf_per_watt: Dict[str, Dict[str, float]]
    u280_data_movement_share: Dict[str, float]

    def ratio(self, model: str, a: str, b: str) -> float:
        """Throughput of design ``a`` over design ``b`` for one model."""
        return self.throughput[model][a] / self.throughput[model][b]

    def mean_ratio(self, a: str, b: str) -> float:
        values = [self.ratio(m, a, b) for m in self.throughput]
        return sum(values) / len(values)

    def mean_perf_watt_ratio(self, a: str, b: str) -> float:
        values = [
            self.perf_per_watt[m][a] / self.perf_per_watt[m][b]
            for m in self.perf_per_watt
        ]
        return sum(values) / len(values)

    def claims(self) -> List[PaperClaim]:
        movement = sum(self.u280_data_movement_share.values()) / len(
            self.u280_data_movement_share
        )
        return [
            PaperClaim(
                "PreSto(SmartSSD)/A100 throughput",
                2.5,
                self.mean_ratio("PreSto (SmartSSD)", "A100"),
                0.25,
            ),
            PaperClaim(
                "PreSto(SmartSSD)/U280 throughput (~0.95)",
                0.95,
                self.mean_ratio("PreSto (SmartSSD)", "U280"),
                0.15,
            ),
            PaperClaim(
                "PreSto(SmartSSD)/PreSto(U280) perf/W",
                2.9,
                self.mean_perf_watt_ratio("PreSto (SmartSSD)", "PreSto (U280)"),
                0.25,
            ),
            PaperClaim("U280-disagg data-movement share", 0.476, movement, 0.30),
        ]

    def rows(self) -> List[Tuple]:
        out = []
        for model in self.throughput:
            base = self.throughput[model]["A100"]
            base_pw = self.perf_per_watt[model]["A100"]
            for design in DESIGNS:
                out.append(
                    (
                        model,
                        design,
                        self.throughput[model][design] / base,
                        self.perf_per_watt[model][design] / base_pw,
                    )
                )
        return out

    def columns(self) -> List[str]:
        return ["model", "design", "throughput (vs A100)", "perf/W (vs A100)"]

    def table_title(self) -> str:
        return "Figure 16: alternative accelerated preprocessing"


@register_experiment("fig16", title="Figure 16", kind="figure", order=120)
def run(calibration: Calibration = CALIBRATION) -> Fig16Result:
    """Regenerate Figure 16."""
    throughput: Dict[str, Dict[str, float]] = {}
    perf_watt: Dict[str, Dict[str, float]] = {}
    movement: Dict[str, float] = {}
    for spec in models():
        # every design comes out of the registry; "PreSto (SmartSSD)" is a
        # registered alias of the canonical "PreSto" design point
        workers = {}
        for design in DESIGNS:
            system = build_system(design, spec, calibration)
            workers[design] = (system.make_worker(), system.device_power)
        throughput[spec.name] = {name: w.throughput() for name, (w, _) in workers.items()}
        perf_watt[spec.name] = {
            name: w.throughput() / power for name, (w, power) in workers.items()
        }
        movement[spec.name] = workers["U280"][0].data_movement_share()
    return Fig16Result(
        throughput=throughput,
        perf_per_watt=perf_watt,
        u280_data_movement_share=movement,
    )
