"""Fleet resilience under seeded node failures and degraded nodes.

Runs the same half-day diurnal trace twice on a heterogeneous two-pool
fleet (Disagg CPU + PreSto SmartSSD, priority placement, target-utilization
autoscaling): once clean, once with a pure-hash fault plan injecting
node-down (jobs displaced, node repairs later) and slow-node (jobs finish
late) faults.  Both runs are fully deterministic — the faulted run replays
byte-identically from its seed — so the deltas are attributable to the
plan alone.

The claims check the recovery invariants the scheduler promises: every
arrival reaches a terminal state despite hundreds of node failures, every
displaced job is rescheduled (reschedules == displacements), queueing
SLO attainment survives the faults, and the faulted run ends within
:data:`MAX_MAKESPAN_RATIO` of the clean one — a displaced job resumes from
its last checkpoint, so faults cost lost work, not a run that never ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleet import PoolSpec, generate_trace, run_fleet
from repro.hardware.calibration import CALIBRATION, Calibration

#: node-down probability per node per fault epoch
DEFAULT_DOWN_RATE = 0.004
#: slow-node probability per node per fault epoch
DEFAULT_SLOW_RATE = 0.05
#: how much longer than the clean run the faulted run may take to finish
MAX_MAKESPAN_RATIO = 1.5


@dataclass(frozen=True)
class FleetResilienceResult(ExperimentResult):
    """Clean vs faulted run of one trace on the same two-pool fleet."""

    num_jobs: int
    trace_seed: int
    clean_completed: int
    faulted_completed: int
    faulted_rejected: int
    displacements: int
    reschedules: int
    node_down_fires: int
    slow_node_fires: int
    clean_slo: float
    faulted_slo: float
    clean_p95_queue_s: float
    faulted_p95_queue_s: float
    clean_makespan_s: float
    faulted_makespan_s: float
    lost_work_hours: float
    deterministic_replay: bool  # two faulted runs → identical digest

    @property
    def all_terminal(self) -> bool:
        return self.faulted_completed + self.faulted_rejected == self.num_jobs

    @property
    def makespan_ratio(self) -> float:
        return self.faulted_makespan_s / self.clean_makespan_s

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim(
                "every job terminal despite node failures",
                1.0,
                1.0 if self.all_terminal else 0.0,
                0.0,
            ),
            PaperClaim(
                "every displaced job rescheduled (reschedules == displacements)",
                1.0,
                1.0 if self.reschedules == self.displacements else 0.0,
                0.0,
            ),
            PaperClaim(
                "faulted run replays deterministically from its seed",
                1.0,
                1.0 if self.deterministic_replay else 0.0,
                0.0,
            ),
            PaperClaim(
                "queueing SLO attainment under faults",
                1.0,
                self.faulted_slo,
                0.05,
            ),
            PaperClaim(
                f"faulted run ends within {MAX_MAKESPAN_RATIO:g}x of the clean "
                "makespan (faulted / clean)",
                1.0,
                self.makespan_ratio,
                MAX_MAKESPAN_RATIO - 1.0,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            ("jobs completed", self.clean_completed, self.faulted_completed),
            ("displacements", 0, self.displacements),
            ("reschedules", 0, self.reschedules),
            ("node-down fires", 0, self.node_down_fires),
            ("slow-node fires", 0, self.slow_node_fires),
            ("SLO attainment", self.clean_slo, self.faulted_slo),
            ("p95 queue (s)", self.clean_p95_queue_s, self.faulted_p95_queue_s),
            ("makespan (s)", self.clean_makespan_s, self.faulted_makespan_s),
            ("lost work (h)", 0.0, self.lost_work_hours),
        ]

    def columns(self) -> List[str]:
        return ["metric", "clean", "faulted"]

    def table_title(self) -> str:
        return (
            f"Fleet resilience: {self.num_jobs}-job trace "
            f"(seed {self.trace_seed}), node-down + slow-node plan"
        )


def _pools(calibration: Calibration) -> Tuple[PoolSpec, ...]:
    return (
        PoolSpec(
            name="disagg-cpu",
            system="Disagg",
            nodes=128,
            workers_per_node=calibration.cpu_cores_per_node,
            min_nodes=32,
            max_nodes=512,
            scaleup_latency_s=120.0,
        ),
        PoolSpec(
            name="presto-ssd",
            system="PreSto",
            nodes=16,
            workers_per_node=8,
            min_nodes=8,
            max_nodes=64,
            scaleup_latency_s=120.0,
        ),
    )


@register_experiment(
    "fleet-resilience",
    title="Fleet resilience: failure injection",
    kind="ablation",
    order=280,
)
def run(
    num_jobs: int = 240,
    seed: int = 11,
    down_rate: float = DEFAULT_DOWN_RATE,
    slow_rate: float = DEFAULT_SLOW_RATE,
    calibration: Calibration = CALIBRATION,
) -> FleetResilienceResult:
    """Clean run, then two identical faulted runs (replay check)."""
    trace = generate_trace(
        "diurnal",
        num_jobs=num_jobs,
        seed=seed,
        horizon_s=12 * 3600.0,
        mean_duration_s=3600.0,
    )
    pools = _pools(calibration)

    def simulate(injector=None):
        return run_fleet(
            trace,
            pools=pools,
            policy="priority",
            autoscaler="target-utilization",
            calibration=calibration,
            injector=injector,
        )

    plan = FaultPlan(
        seed=seed,
        rules=(
            FaultRule(point="node-down", rate=down_rate),
            FaultRule(point="slow-node", rate=slow_rate),
        ),
    )
    clean = simulate()
    faulted = simulate(FaultInjector(plan))
    replay = simulate(FaultInjector(plan))
    fires = faulted.fault_fires
    return FleetResilienceResult(
        num_jobs=len(trace),
        trace_seed=seed,
        clean_completed=clean.completed,
        faulted_completed=faulted.completed,
        faulted_rejected=faulted.rejected,
        displacements=faulted.displacements,
        reschedules=faulted.reschedules,
        node_down_fires=fires.get("node-down:down", 0),
        slow_node_fires=fires.get("slow-node:slow", 0),
        clean_slo=clean.slo_attainment,
        faulted_slo=faulted.slo_attainment,
        clean_p95_queue_s=clean.p95_queue_s,
        faulted_p95_queue_s=faulted.p95_queue_s,
        clean_makespan_s=clean.makespan_s,
        faulted_makespan_s=faulted.makespan_s,
        lost_work_hours=faulted.lost_work_hours,
        deterministic_replay=faulted.digest == replay.digest,
    )
