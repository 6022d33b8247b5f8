"""Figure 15 — energy-efficiency and cost-efficiency at scale.

Provisions both designs to the same 8xA100 demand (so Throughput x Duration
is identical, per Section V-C) and compares:

* (a) energy-efficiency — samples per joule, i.e. inverse preprocessing
  power (paper: 11.3x average, 15.1x max in PreSto's favour);
* (b) cost-efficiency — samples per dollar of CapEx + 3-year OpEx
  (paper: 4.3x average, 5.6x max).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.cost import cost_efficiency
from repro.analysis.energy import energy_efficiency
from repro.core.systems import DisaggCpuSystem, PreStoSystem
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    models,
    register_experiment,
)
from repro.hardware.calibration import CALIBRATION, Calibration

NUM_GPUS = 8


@dataclass(frozen=True)
class Fig15Result(ExperimentResult):
    """Per-model efficiency ratios (PreSto / Disagg)."""

    energy_ratio: Dict[str, float]
    cost_ratio: Dict[str, float]
    disagg_power: Dict[str, float]
    presto_power: Dict[str, float]
    disagg_cost: Dict[str, float]
    presto_cost: Dict[str, float]

    @property
    def mean_energy_ratio(self) -> float:
        """Average energy-efficiency gain (paper: 11.3)."""
        values = list(self.energy_ratio.values())
        return sum(values) / len(values)

    @property
    def mean_cost_ratio(self) -> float:
        """Average cost-efficiency gain (paper: 4.3)."""
        values = list(self.cost_ratio.values())
        return sum(values) / len(values)

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("mean energy-efficiency gain", 11.3, self.mean_energy_ratio, 0.20),
            PaperClaim("max energy-efficiency gain", 15.1, max(self.energy_ratio.values()), 0.20),
            PaperClaim("mean cost-efficiency gain", 4.3, self.mean_cost_ratio, 0.25),
            PaperClaim("max cost-efficiency gain", 5.6, max(self.cost_ratio.values()), 0.25),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (
                model,
                self.energy_ratio[model],
                self.cost_ratio[model],
                self.disagg_power[model],
                self.presto_power[model],
                self.disagg_cost[model],
                self.presto_cost[model],
            )
            for model in self.energy_ratio
        ]

    def columns(self) -> List[str]:
        return [
            "model",
            "energy gain (x)",
            "cost gain (x)",
            "Disagg W",
            "PreSto W",
            "Disagg $",
            "PreSto $",
        ]

    def table_title(self) -> str:
        return "Figure 15: energy- and cost-efficiency (PreSto vs Disagg)"


@register_experiment("fig15", title="Figure 15", kind="figure", order=110)
def run(calibration: Calibration = CALIBRATION) -> Fig15Result:
    """Regenerate Figure 15."""
    energy_ratio: Dict[str, float] = {}
    cost_ratio: Dict[str, float] = {}
    d_power: Dict[str, float] = {}
    p_power: Dict[str, float] = {}
    d_cost: Dict[str, float] = {}
    p_cost: Dict[str, float] = {}
    for spec in models():
        disagg = DisaggCpuSystem(spec, calibration)
        presto = PreStoSystem(spec, calibration)
        cores = disagg.provision_for(NUM_GPUS).num_workers
        units = presto.provision_for(NUM_GPUS).num_workers
        demand = disagg.provision_for(NUM_GPUS).training_throughput

        disagg_power = disagg.power(cores)
        presto_power = presto.power(units)
        d_power[spec.name] = disagg_power
        p_power[spec.name] = presto_power
        energy_ratio[spec.name] = energy_efficiency(demand, presto_power) / (
            energy_efficiency(demand, disagg_power)
        )

        disagg_ce = cost_efficiency(
            demand, disagg.capex(cores), disagg_power, calibration=calibration
        )
        presto_ce = cost_efficiency(
            demand, presto.capex(units), presto_power, calibration=calibration
        )
        cost_ratio[spec.name] = presto_ce / disagg_ce
        d_cost[spec.name] = disagg.capex(cores)
        p_cost[spec.name] = presto.capex(units)
    return Fig15Result(
        energy_ratio=energy_ratio,
        cost_ratio=cost_ratio,
        disagg_power=d_power,
        presto_power=p_power,
        disagg_cost=d_cost,
        presto_cost=p_cost,
    )
