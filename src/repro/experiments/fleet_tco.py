"""Fleet TCO under a diurnal arrival trace (trace-driven multi-tenant sim).

Where ``abl-fleet`` sizes a static pool for one concurrent job mix, this
experiment drives the :mod:`repro.fleet` simulator with a full day of
seeded diurnal arrivals and lets the target-utilization autoscaler grow and
shrink each pool as load moves.  Two single-pool fleets — Disagg CPU nodes
vs PreSto SmartSSD nodes — serve the identical trace, so the comparison
isolates the system choice: capacity-hour cost (capex priced at peak
provisioned capacity plus metered energy), energy drawn over the day, peak
footprint, and queueing SLO attainment.

The paper's per-node power and 3-year cost ratios (Figs. 15-16) should
survive the trip through dynamic provisioning: the autoscaler holds both
fleets near the same utilization target, so the fleet-level energy and
cost ratios land near the per-node ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.fleet import PoolSpec, generate_trace, run_fleet
from repro.hardware.calibration import CALIBRATION, Calibration


@dataclass(frozen=True)
class FleetTcoResult(ExperimentResult):
    """Same diurnal trace on a Disagg-only fleet vs a PreSto-only fleet."""

    num_jobs: int
    trace_seed: int
    disagg_cost: float  # capacity-hour capex + metered energy opex ($)
    presto_cost: float
    disagg_energy_kwh: float
    presto_energy_kwh: float
    disagg_peak_nodes: int
    presto_peak_nodes: int
    disagg_utilization: float
    presto_utilization: float
    disagg_slo: float
    presto_slo: float
    disagg_completed: int
    presto_completed: int

    @property
    def cost_ratio(self) -> float:
        return self.disagg_cost / self.presto_cost

    @property
    def energy_ratio(self) -> float:
        return self.disagg_energy_kwh / self.presto_energy_kwh

    def claims(self) -> List[PaperClaim]:
        return [
            # the per-node power gap (Fig. 15) carried to fleet scale: both
            # autoscalers chase the same utilization target, so the energy
            # ratio tracks the per-worker power ratio
            PaperClaim(
                "fleet energy ratio (Disagg/PreSto)", 25.0, self.energy_ratio, 0.35
            ),
            PaperClaim(
                "fleet capacity-hour cost ratio", 5.0, self.cost_ratio, 0.35
            ),
            PaperClaim(
                "both fleets complete the whole trace",
                1.0,
                1.0
                if self.disagg_completed == self.num_jobs
                and self.presto_completed == self.num_jobs
                else 0.0,
                0.0,
            ),
            PaperClaim(
                "autoscaler holds utilization near target (min of fleets)",
                0.7,
                min(self.disagg_utilization, self.presto_utilization),
                0.25,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            ("capacity cost (M$)", self.disagg_cost / 1e6, self.presto_cost / 1e6),
            ("energy (kWh)", self.disagg_energy_kwh, self.presto_energy_kwh),
            ("peak nodes", self.disagg_peak_nodes, self.presto_peak_nodes),
            ("utilization", self.disagg_utilization, self.presto_utilization),
            ("SLO attainment", self.disagg_slo, self.presto_slo),
            ("jobs completed", self.disagg_completed, self.presto_completed),
        ]

    def columns(self) -> List[str]:
        return ["metric", "Disagg fleet", "PreSto fleet"]

    def table_title(self) -> str:
        return (
            f"Fleet TCO: {self.num_jobs}-job diurnal trace "
            f"(seed {self.trace_seed}), target-utilization autoscaling"
        )


def _single_pool_fleet(
    system: str, trace, calibration: Calibration
) -> Tuple[object, object]:
    """Run the trace on a one-pool fleet of the given system; return
    (FleetResult, PoolUsage)."""
    if system == "Disagg":
        spec = PoolSpec(
            name="disagg-cpu",
            system="Disagg",
            nodes=64,
            workers_per_node=calibration.cpu_cores_per_node,
            min_nodes=32,
            max_nodes=4096,
        )
    else:
        spec = PoolSpec(
            name="presto-ssd",
            system="PreSto",
            nodes=16,
            workers_per_node=8,
            min_nodes=8,
            max_nodes=512,
        )
    result = run_fleet(
        trace,
        pools=(spec,),
        policy="best-fit",
        autoscaler="target-utilization",
        calibration=calibration,
    )
    return result, result.pool(spec.name)


@register_experiment(
    "fleet-tco",
    title="Fleet TCO: diurnal trace, autoscaled",
    kind="ablation",
    order=270,
)
def run(
    num_jobs: int = 400,
    seed: int = 7,
    calibration: Calibration = CALIBRATION,
) -> FleetTcoResult:
    """Drive one diurnal day through both single-system fleets."""
    trace = generate_trace("diurnal", num_jobs=num_jobs, seed=seed)
    disagg, disagg_pool = _single_pool_fleet("Disagg", trace, calibration)
    presto, presto_pool = _single_pool_fleet("PreSto", trace, calibration)
    return FleetTcoResult(
        num_jobs=len(trace),
        trace_seed=seed,
        disagg_cost=disagg.total_cost,
        presto_cost=presto.total_cost,
        disagg_energy_kwh=disagg_pool.energy_kwh,
        presto_energy_kwh=presto_pool.energy_kwh,
        disagg_peak_nodes=disagg_pool.peak_nodes,
        presto_peak_nodes=presto_pool.peak_nodes,
        disagg_utilization=disagg.utilization,
        presto_utilization=presto.utilization,
        disagg_slo=disagg.slo_attainment,
        presto_slo=presto.slo_attainment,
        disagg_completed=disagg.completed,
        presto_completed=presto.completed,
    )
