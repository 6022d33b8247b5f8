"""Fleet scenario — many concurrent training jobs (the intro's motivation).

Builds a representative mix of training jobs over the five Table I models
(production fleets skew toward the big models), sizes the minimum Disagg CPU
pool and PreSto SmartSSD pool that admit the whole mix, and compares
footprint, power, and 3-year cost — the paper's TCO argument at fleet scale
rather than per-node.

Also exercises admission control: with only half the required pool, both
systems reject jobs, and utilization stays high (first-fit packing).  This
is static arithmetic over per-job T/P plans; arrivals, queueing and
autoscaling over time are :mod:`repro.fleet`'s (``fleet-tco``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.cost import cost_breakdown
from repro.core.systems import DisaggCpuSystem, PreStoSystem
from repro.errors import ProvisioningError
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.calibration import CALIBRATION, Calibration

#: every job in the mix trains on one 8-GPU node
JOB_GPUS = 8

#: (model, number of 8-GPU jobs) — a production-leaning mix
DEFAULT_MIX: Tuple[Tuple[str, int], ...] = (
    ("RM1", 2),
    ("RM2", 3),
    ("RM3", 3),
    ("RM4", 3),
    ("RM5", 5),
)


@dataclass(frozen=True)
class MultiJobResult(ExperimentResult):
    """Fleet comparison: Disagg pool vs PreSto pool for the same job mix."""

    num_jobs: int
    disagg_pool: int  # cores needed for the full mix
    presto_pool: int  # SmartSSDs needed for the full mix
    disagg_power: float
    presto_power: float
    disagg_cost: float  # 3-year CapEx + OpEx
    presto_cost: float
    rejected_at_half_disagg: int
    rejected_at_half_presto: int
    half_pool_utilization_disagg: float
    half_pool_utilization_presto: float

    @property
    def power_ratio(self) -> float:
        return self.disagg_power / self.presto_power

    @property
    def cost_ratio(self) -> float:
        return self.disagg_cost / self.presto_cost

    def claims(self) -> List[PaperClaim]:
        return [
            # the fleet amortizes PreSto's storage-host orchestration share
            # across all jobs, so the ratio exceeds the per-node Fig. 15 one
            PaperClaim("fleet power ratio (Disagg/PreSto)", 25.0, self.power_ratio, 0.35),
            PaperClaim("fleet 3-year cost ratio", 5.0, self.cost_ratio, 0.35),
            PaperClaim(
                "half-pool rejects jobs in both systems",
                1.0,
                1.0
                if self.rejected_at_half_disagg > 0 and self.rejected_at_half_presto > 0
                else 0.0,
                0.0,
            ),
            PaperClaim(
                "half-pool first-fit packs densely (min utilization)",
                0.85,
                min(
                    self.half_pool_utilization_disagg,
                    self.half_pool_utilization_presto,
                ),
                0.20,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            ("pool size (workers)", self.disagg_pool, self.presto_pool),
            ("power (kW)", self.disagg_power / 1e3, self.presto_power / 1e3),
            ("3-year cost (k$)", self.disagg_cost / 1e3, self.presto_cost / 1e3),
            (
                "rejected @ half pool",
                self.rejected_at_half_disagg,
                self.rejected_at_half_presto,
            ),
        ]

    def columns(self) -> List[str]:
        return ["metric", "Disagg (CPU cores)", "PreSto (SmartSSDs)"]

    def table_title(self) -> str:
        return f"Fleet scenario: {self.num_jobs} concurrent 8-GPU training jobs"


def _size_fleet(system_cls, specs, calibration) -> Tuple[float, ...]:
    """One system's fleet for the job mix: ``(pool, power, 3-year cost,
    jobs rejected at half pool, half-pool utilization)``.

    The pool is the sum of every job's T/P plan; power and capex are read
    off the first job's system, which prices a worker the same for every
    model.  Half that pool then admits jobs first-fit, in mix order.
    """
    systems = [system_cls(spec, calibration) for spec in specs]
    needs = [system.provision_for(JOB_GPUS).num_workers for system in systems]
    pool = sum(needs)
    power = systems[0].power(pool)
    cost = cost_breakdown(systems[0].capex(pool), power, calibration=calibration).total
    half = free = max(pool // 2, 1)
    rejected = 0
    for need in needs:
        if need <= free:
            free -= need
        else:
            rejected += 1
    return pool, power, cost, rejected, (half - free) / half


@register_experiment("abl-fleet", title="Fleet: multi-job scheduling", kind="ablation", order=260)
def run(
    mix: Tuple[Tuple[str, int], ...] = DEFAULT_MIX,
    calibration: Calibration = CALIBRATION,
) -> MultiJobResult:
    """Size and compare the two fleets for one job mix."""
    specs = [get_model(model) for model, count in mix for _ in range(count)]
    if not specs:
        raise ProvisioningError("the job mix is empty")
    d_pool, d_power, d_cost, d_rejected, d_utilization = _size_fleet(
        DisaggCpuSystem, specs, calibration
    )
    p_pool, p_power, p_cost, p_rejected, p_utilization = _size_fleet(
        PreStoSystem, specs, calibration
    )
    return MultiJobResult(
        num_jobs=len(specs),
        disagg_pool=d_pool,
        presto_pool=p_pool,
        disagg_power=d_power,
        presto_power=p_power,
        disagg_cost=d_cost,
        presto_cost=p_cost,
        rejected_at_half_disagg=d_rejected,
        rejected_at_half_presto=p_rejected,
        half_pool_utilization_disagg=d_utilization,
        half_pool_utilization_presto=p_utilization,
    )
