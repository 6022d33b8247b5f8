"""Fleet run results — frozen and dict-round-trippable.

A :class:`FleetResult` is the complete record of one
:class:`~repro.fleet.simulator.FleetSimulator` run: one
:class:`FleetJobRecord` per job (latency, queueing, displacement), one
:class:`PoolUsage` per pool (capacity-hours, energy, cost), a
downsampled :class:`PoolSample` time series, and the fault-injection
audit.  Like every experiment result in the repo it round-trips
losslessly through plain dicts via the typed codec in
:mod:`repro.api.experiment` — the same seed always yields the
byte-identical ``to_dict()``, which is what ``repro fleet run --out``
writes and the fleet chaos episode leaves in its spool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.experiment import canonical_digest, decode_value, encode_value
from repro.errors import ConfigurationError

#: every state a fleet job can end a run in
JOB_STATES = ("queued", "running", "completed", "rejected")

#: terminal states — a finished run must leave every job in one of these
TERMINAL_STATES = ("completed", "rejected")


@dataclass(frozen=True)
class FleetJobRecord:
    """How one job fared: where it ran, how long it waited, displacements."""

    job_id: str
    model: str
    num_gpus: int
    priority: int
    state: str
    pool: Optional[str] = None
    submit_s: float = 0.0
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    queue_s: float = 0.0
    reschedules: int = 0
    displacements: int = 0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ConfigurationError(
                f"job {self.job_id!r}: state must be one of {JOB_STATES}, "
                f"got {self.state!r}"
            )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def _job_record(
    job_id, model, num_gpus, priority, state, pool, submit_s, start_s,
    finish_s, queue_s, reschedules, displacements,
) -> FleetJobRecord:
    """``FleetJobRecord(...)`` positionally, at about a third of the cost:
    the generated frozen ``__init__`` pays one ``object.__setattr__`` call
    per field, this writes the instance dict directly, in field order.  The
    result is an ordinary record: ``__post_init__``'s state check has run,
    assignment raises ``FrozenInstanceError``, and ``dataclasses.replace``
    copies it through the real ``__init__``.  ``FleetSimulator`` builds
    one per job."""
    record = object.__new__(FleetJobRecord)
    attrs = record.__dict__
    attrs["job_id"] = job_id
    attrs["model"] = model
    attrs["num_gpus"] = num_gpus
    attrs["priority"] = priority
    attrs["state"] = state
    attrs["pool"] = pool
    attrs["submit_s"] = submit_s
    attrs["start_s"] = start_s
    attrs["finish_s"] = finish_s
    attrs["queue_s"] = queue_s
    attrs["reschedules"] = reschedules
    attrs["displacements"] = displacements
    record.__post_init__()
    return record


@dataclass(frozen=True)
class PoolUsage:
    """One pool's capacity ledger over the run (workers, energy, dollars)."""

    name: str
    system: str
    workers_per_node: int
    peak_nodes: int
    jobs_completed: int
    node_failures: int
    capacity_worker_hours: float
    busy_worker_hours: float
    energy_kwh: float
    capex: float
    opex: float

    @property
    def utilization(self) -> float:
        """Busy worker-hours over provisioned worker-hours (0 when idle)."""
        if self.capacity_worker_hours <= 0:
            return 0.0
        return self.busy_worker_hours / self.capacity_worker_hours

    @property
    def total_cost(self) -> float:
        return self.capex + self.opex


@dataclass(frozen=True)
class PoolSample:
    """One point of the per-pool time series (sampled every few steps)."""

    t_s: float
    pool: str
    nodes: int
    busy_workers: int
    queued_jobs: int


@dataclass(frozen=True)
class FleetResult:
    """The frozen outcome of one fleet simulation run."""

    trace_kind: str
    trace_seed: int
    policy: str
    autoscaler: str
    num_jobs: int
    completed: int
    rejected: int
    displacements: int
    reschedules: int
    makespan_s: float
    mean_queue_s: float
    p95_queue_s: float
    slo_queue_s: float
    slo_attainment: float
    utilization: float
    total_cost: float
    #: job-hours of progress displaced jobs lost since their last checkpoint
    lost_work_hours: float
    jobs: Tuple[FleetJobRecord, ...] = ()
    pools: Tuple[PoolUsage, ...] = ()
    samples: Tuple[PoolSample, ...] = ()
    fault_fires: Dict[str, int] = field(default_factory=dict)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; byte-stable for a given seed (determinism key)."""
        return encode_value(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetResult":
        return decode_value(cls, dict(data))

    @property
    def digest(self) -> str:
        """Short stable hash of the full result — what CI compares.

        A run that lost no work hashes without its ``lost_work_hours``, so
        every clean run keeps the digest it had before the field existed.
        """
        payload = self.to_dict()
        if not payload["lost_work_hours"]:
            del payload["lost_work_hours"]
        return canonical_digest(payload)

    # -- derived views -------------------------------------------------------

    def all_terminal(self) -> bool:
        """True when every job finished or was rejected (run invariant)."""
        return all(job.terminal for job in self.jobs)

    def pool(self, name: str) -> PoolUsage:
        for usage in self.pools:
            if usage.name == name:
                return usage
        raise ConfigurationError(
            f"no pool {name!r} in result; pools: "
            + ", ".join(u.name for u in self.pools)
        )
