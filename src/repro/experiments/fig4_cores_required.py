"""Figure 4 — CPU cores required to feed an 8xA100 training node.

For each Table I model, provisions the disaggregated CPU system against the
node-level training demand (8 x T) and reports ceil(8T/P).

Paper claim: several hundred cores for the production-scale models, 367 for
RM5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    models,
    register_experiment,
    scenario_for,
)
from repro.hardware.calibration import CALIBRATION, Calibration

NUM_GPUS = 8


@dataclass(frozen=True)
class Fig4Result(ExperimentResult):
    """Cores required per model."""

    cores: Dict[str, int]
    training_demand: Dict[str, float]
    worker_throughput: Dict[str, float]

    @property
    def max_cores(self) -> int:
        """Largest requirement across models (paper: 367, on RM5)."""
        return max(self.cores.values())

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("RM5 cores for 8xA100", 367, self.cores["RM5"], 0.10),
            PaperClaim(
                "production models need hundreds of cores (min RM2-5)",
                300,
                min(self.cores[m] for m in ("RM2", "RM3", "RM4", "RM5")),
            ),
        ]

    def rows(self) -> List[Tuple[str, int, float, float]]:
        return [
            (
                name,
                self.cores[name],
                self.training_demand[name],
                self.worker_throughput[name],
            )
            for name in self.cores
        ]

    def columns(self) -> List[str]:
        return ["model", "cores", "8-GPU demand (samples/s)", "per-core P (samples/s)"]

    def table_title(self) -> str:
        return "Figure 4: CPU cores required per 8xA100 node"


@register_experiment("fig4", title="Figure 4", kind="figure", order=20)
def run(calibration: Calibration = CALIBRATION) -> Fig4Result:
    """Regenerate Figure 4."""
    cores: Dict[str, int] = {}
    demand: Dict[str, float] = {}
    per_core: Dict[str, float] = {}
    for spec in models():
        scenario = scenario_for(
            spec.name, "Disagg", calibration, num_gpus=NUM_GPUS
        )
        plan = scenario.provision_plan()
        cores[spec.name] = plan.num_workers
        demand[spec.name] = plan.training_throughput
        per_core[spec.name] = plan.worker_throughput
    return Fig4Result(cores=cores, training_demand=demand, worker_throughput=per_core)
