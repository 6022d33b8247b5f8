"""The cluster scheduler: a time-stepped fleet simulation on ``sim.engine``.

:class:`FleetSimulator` replays an arrival :class:`~repro.fleet.trace.Trace`
against heterogeneous pools of preprocessing capacity
(:class:`PoolSpec` entries naming registered systems — a Disagg CPU pool,
a PreSto SmartSSD pool), admitting, queueing, and rescheduling jobs on
the discrete-event :class:`~repro.sim.engine.Engine`:

* **placement** is delegated to a
  :class:`~repro.fleet.policy.PlacementPolicy` named in
  :data:`~repro.fleet.policy.POLICIES`; a job needs
  ``system.provision_for(num_gpus).num_workers`` workers in a pool
  (memoized per simulator on (model, gpus), resolved once at admission)
  and may span nodes;
* **autoscaling** consults an
  :class:`~repro.fleet.autoscale.Autoscaler` named in
  :data:`~repro.fleet.autoscale.AUTOSCALERS` at each step about every
  pool whose snapshot moved since its last "hold"; growth pays
  the pool's ``scaleup_latency_s`` before new nodes serve, shrinking
  retires only idle nodes, and every step integrates the pool's
  capacity-hour and energy ledgers (``power(capacity) x dt``) that
  :func:`repro.analysis.cost.capacity_cost` prices;
* **failure injection** rides the pure-hash
  :class:`~repro.faults.plan.FaultPlan` machinery through three fleet
  probe points — ``node-down`` (node fails, running jobs are displaced
  and resume from their last :data:`CHECKPOINT_S` checkpoint elsewhere,
  the node repairs after :data:`REPAIR_S`), ``slow-node`` (jobs on the
  node finish ``delay_s`` late), and ``arrival-burst`` (an arrival fans
  out into a flash crowd of clones).  Node coins come from one keyed
  stream per (pool, point, epoch) indexed by node id, arrival coins from
  the job id, so the same seed replays the same episode event for event.

The per-event path recomputes nothing: capacity, queued demand and the
policy-ordered queue are ledgers updated where they change (``docs/fleet.md``,
"Complexity and scale"); :meth:`FleetSimulator.check_ledgers` recounts them.

Determinism is end to end: the engine orders simultaneous events FIFO,
the simulator draws no randomness of its own, and faults hash — the same
trace, pools, policy, and fault seed always produce the byte-identical
:class:`~repro.fleet.result.FleetResult`.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.cost import capacity_cost
from repro.api.registry import REGISTRY
from repro.errors import ConfigurationError, FleetError, ProvisioningError, is_int
from repro.faults.injector import FaultInjector, active_injector
from repro.features.specs import get_model
from repro.fleet.policy import POLICIES, Candidate, PlacementPolicy
from repro.fleet.autoscale import AUTOSCALERS, Autoscaler, _snapshot
from repro.fleet.result import (
    FleetJobRecord,
    FleetResult,
    PoolSample,
    PoolUsage,
    _job_record,
)
from repro.fleet.trace import JobArrival, Trace
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.sim.engine import Engine

#: extra clones an ``arrival-burst`` fault fans one arrival into
BURST_CLONES = 2

#: the scheduler's clock, in simulated seconds: the step the autoscaler and
#: the ledgers advance by, how often every up node is asked for a fault, how
#: long a downed node takes to repair, what a ``slow-node`` hit costs when its
#: rule names no ``delay_s``, the spacing of the ``PoolSample`` series, how
#: often a running job checkpoints its progress, and the queueing wait the
#: SLO attainment counts against.
#: Constants, not options: every golden digest is a function of them.
STEP_S = 60.0
FAULT_EPOCH_S = 600.0
REPAIR_S = 900.0
SLOW_PENALTY_S = 300.0
SAMPLE_EVERY_S = 900.0
CHECKPOINT_S = 1800.0
SLO_QUEUE_S = 1800.0

@dataclass(frozen=True)
class PoolSpec:
    """One pool of preprocessing capacity built from a registered system."""

    name: str
    system: str  # registered system name ("Disagg", "PreSto", ...)
    nodes: int  # initial node count
    workers_per_node: int
    min_nodes: int = 1
    max_nodes: int = 64
    scaleup_latency_s: float = 300.0
    model: str = "RM5"  # reference spec for power/capex calibration

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigurationError("pool name must be a non-empty string")
        for field in ("nodes", "workers_per_node", "min_nodes", "max_nodes"):
            if not is_int(getattr(self, field)):
                raise ConfigurationError(
                    f"pool {self.name!r}: {field} must be an int, "
                    f"got {getattr(self, field)!r}"
                )
        if self.workers_per_node <= 0:
            raise ConfigurationError(
                f"pool {self.name!r}: workers_per_node must be positive"
            )
        if self.min_nodes < 0 or self.max_nodes < max(1, self.min_nodes):
            raise ConfigurationError(
                f"pool {self.name!r}: need 0 <= min_nodes <= max_nodes "
                f"(got {self.min_nodes}..{self.max_nodes})"
            )
        if not (self.min_nodes <= self.nodes <= self.max_nodes):
            raise ConfigurationError(
                f"pool {self.name!r}: initial nodes {self.nodes} outside "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        if not isinstance(self.scaleup_latency_s, (int, float)) or not (
            0.0 <= self.scaleup_latency_s < math.inf
        ):
            raise ConfigurationError(
                f"pool {self.name!r}: scaleup_latency_s must be non-negative "
                f"and finite, got {self.scaleup_latency_s!r}"
            )

    @property
    def max_workers(self) -> int:
        return self.max_nodes * self.workers_per_node


def default_pools(calibration: Calibration = CALIBRATION) -> Tuple[PoolSpec, ...]:
    """The paper's two contenders as fleet pools: Disagg CPU servers
    (``cpu_cores_per_node`` workers each) vs PreSto SmartSSD storage
    nodes — sized so a day-scale diurnal trace exercises autoscaling."""
    return (
        PoolSpec(
            name="disagg-cpu", system="Disagg", nodes=256,
            workers_per_node=calibration.cpu_cores_per_node,
            min_nodes=32, max_nodes=1536, scaleup_latency_s=300.0,
        ),
        PoolSpec(
            name="presto-ssd", system="PreSto", nodes=24, workers_per_node=8,
            min_nodes=8, max_nodes=192, scaleup_latency_s=300.0,
        ),
    )


class _Node:
    """One node inside a pool: capacity plus its live allocations."""

    __slots__ = ("id", "up", "allocations", "used")

    def __init__(self, node_id: int) -> None:
        self.id = node_id
        self.up = True  # serving: not mid-repair, not retired by a shrink
        self.allocations: Dict[str, int] = {}  # job_id -> workers here
        self.used = 0  # ledger: sum(allocations.values())


class _Job:
    """Mutable per-job run state behind the frozen trace arrival."""

    __slots__ = (
        "arrival", "needs", "state", "pool", "start_s", "finish_s",
        "waited_s", "enqueued_s", "reschedules", "displacements", "token",
        "alloc", "remaining_s", "run_origin_s", "lost_s",
    )

    def __init__(self, arrival: JobArrival, needs: tuple) -> None:
        self.arrival = arrival
        #: (pool, workers needed there) per pool that could ever hold it
        self.needs: Tuple[Tuple["_PoolState", int], ...] = needs
        self.state = "queued"
        self.pool: Optional[str] = None
        self.start_s: Optional[float] = None
        self.finish_s: Optional[float] = None
        self.waited_s = 0.0
        self.enqueued_s = arrival.submit_s
        self.reschedules = 0
        self.displacements = 0
        self.token = 0  # bumps invalidate in-flight completion callbacks
        self.alloc: List[_Node] = []  # nodes holding it (one pool)
        self.remaining_s = arrival.duration_s  # work left after checkpoints
        #: placement time plus this run's slow-node penalties: the run's
        #: progress is ``now - run_origin_s``
        self.run_origin_s = 0.0
        self.lost_s = 0.0  # progress past a checkpoint that a displacement lost


class _PoolState:
    """One pool's live nodes, pending growth, and usage ledgers."""

    __slots__ = (
        "spec", "wpn", "reference", "factory", "nodes", "open", "up",
        "busy", "queued", "pending", "grow_batches", "next_node_id",
        "peak_nodes", "capacity_worker_hours", "busy_worker_hours",
        "energy_kwh", "jobs_completed", "node_failures", "settled", "power",
    )

    def __init__(self, spec: PoolSpec, calibration: Calibration) -> None:
        self.spec = spec
        self.wpn = spec.workers_per_node
        self.reference = REGISTRY.create(
            spec.system, get_model(spec.model), calibration
        )
        self.factory = REGISTRY.get(spec.system)
        #: id -> node, up or repairing; ids only grow, so insertion order
        #: is id order
        self.nodes: Dict[int, _Node] = {}
        #: ledger: byte ``id`` is 1 exactly when node ``id`` is up and not
        #: full.  Ids are handed out densely, in order and never reused,
        #: so the map has one byte per id ever issued and a retired id
        #: reads 0.
        self.open = bytearray()
        self.up = 0  # ledger: up nodes in ``nodes``
        self.busy = 0  # ledger: allocated workers across ``nodes``
        self.queued = 0  # ledger: demand of the queued jobs that fit here
        for node_id in range(spec.nodes):
            self.add_node(_Node(node_id))
        self.pending = 0  # nodes bought but not yet online
        self.grow_batches: List[List[int]] = []  # surviving count per grow
        self.next_node_id = spec.nodes
        self.peak_nodes = spec.nodes
        self.capacity_worker_hours = 0.0
        self.busy_worker_hours = 0.0
        self.energy_kwh = 0.0
        self.jobs_completed = 0
        self.node_failures = 0
        #: (committed_nodes, busy, queued) of the last snapshot the
        #: autoscaler answered with "hold"; None until it does
        self.settled: Optional[Tuple[int, int, int]] = None
        #: (capacity, reference.power(capacity)) last integrated
        self.power: Tuple[int, float] = (0, 0.0)

    @property
    def committed_nodes(self) -> int:
        """Nodes the pool owns right now: live (up or repairing) + pending."""
        return len(self.nodes) + self.pending

    def free_workers(self) -> int:
        # a down node holds no allocations, so everything busy is on up nodes
        return self.up * self.wpn - self.busy

    def add_node(self, node: _Node) -> None:
        self.nodes[node.id] = node
        self.up += 1
        self.open.append(1)  # node.id == len(self.open): ids are dense


def _lookup(table: Dict[str, type], noun: str, name: str):
    """A fresh instance of the class ``table`` holds under ``name``."""
    if name not in table:
        raise ConfigurationError(
            f"unknown {noun} {name!r}; known: {', '.join(table)}"
        )
    return table[name]()


class FleetSimulator:
    """Run one trace against one fleet (see module docstring)."""

    def __init__(
        self,
        trace: Trace,
        pools: Optional[Tuple[PoolSpec, ...]] = None,
        policy: str = "first-fit",
        autoscaler: str = "fixed",
        calibration: Calibration = CALIBRATION,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if not isinstance(trace, Trace):
            raise ConfigurationError(f"FleetSimulator needs a Trace, got {trace!r}")
        pool_specs = tuple(pools) if pools is not None else default_pools(calibration)
        if not pool_specs:
            raise ConfigurationError("a fleet needs at least one pool")
        names = [spec.name for spec in pool_specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate pool names in {names}")
        self.trace = trace
        self.calibration = calibration
        self.policy_name, self.autoscaler_name = policy, autoscaler
        self.policy: PlacementPolicy = _lookup(POLICIES, "placement policy", policy)
        self.autoscaler: Autoscaler = _lookup(AUTOSCALERS, "autoscaler", autoscaler)
        self._injector = injector

        self.engine = Engine()
        self.pools: Dict[str, _PoolState] = {
            spec.name: _PoolState(spec, calibration) for spec in pool_specs
        }
        self._jobs: Dict[str, _Job] = {}
        self._used_ids = {arrival.job_id for arrival in trace.arrivals}
        #: ledger: min-heap of (policy order key, enqueue sequence, job)
        self._queue: List[Tuple[object, int, _Job]] = []
        self._enqueued = 0
        self._arrived = 0
        self._expected = len(trace)
        self._terminal = 0
        self._last_terminal_s = 0.0
        self._last_integrate_s = 0.0
        self._last_fault_epoch = -1
        self._last_sample_s = -SAMPLE_EVERY_S
        self._samples: List[PoolSample] = []
        #: (model name, num_gpus) -> needs: each shape is provisioned once
        self._needs_by_shape: Dict[Tuple[str, int], tuple] = {}
        self._ran = False

    # -- provisioning --------------------------------------------------------

    def _needs(self, arrival: JobArrival) -> Tuple[Tuple[_PoolState, int], ...]:
        """(pool, workers ``arrival`` needs there) for every pool whose
        maximum size could hold it: memoized per simulator on
        ``(model name, num_gpus)``."""
        shape = (arrival.model, arrival.num_gpus)
        try:
            return self._needs_by_shape[shape]
        except KeyError:
            pass
        model = get_model(arrival.model)
        needs = []
        for pool in self.pools.values():
            system = pool.factory(model, self.calibration)
            try:
                need = system.provision_for(arrival.num_gpus).num_workers
            except (ConfigurationError, ProvisioningError):
                continue  # this technology cannot sustain the job
            if need <= pool.spec.max_workers:
                needs.append((pool, need))
        self._needs_by_shape[shape] = needs = tuple(needs)
        return needs

    def _fits_ever(self, job: _Job) -> bool:
        """Can some pool ever offer the job its workers?  ``job.needs``
        already fits each spec's maximum — what a growing autoscaler can
        reach; one that holds offers only committed capacity, and a job
        past that would queue forever, blocking everything behind it."""
        if self.autoscaler.can_grow:
            return bool(job.needs)
        return any(
            need <= pool.committed_nodes * pool.spec.workers_per_node
            for pool, need in job.needs
        )

    def _enqueue(self, job: _Job) -> None:
        """Join the queue behind every queued job of the same order key."""
        self._enqueued += 1
        key = self.policy.order_key(job.arrival)
        heapq.heappush(self._queue, (key, self._enqueued, job))
        for pool, need in job.needs:
            pool.queued += need

    # -- arrivals ------------------------------------------------------------

    def _on_arrival(self, arrival: JobArrival) -> None:
        self._arrived += 1
        jobs = [arrival]
        job_id = arrival.job_id
        # fleet rules are enacted here in simulated time, never through
        # the generic wall-clock ``FaultInjector.execute``
        injector = self._injector
        rule = None if injector is None else injector.check(
            "arrival-burst", job_id=job_id, item=job_id
        )
        if rule is not None:
            clones = int(rule.delay_s) if rule.delay_s else BURST_CLONES
            suffix = 0
            for _ in range(max(1, clones)):
                # a recorded trace may legitimately hold a job id of the
                # clone shape; skip suffixes until the id is free so a
                # clone never overwrites another job's state
                while True:
                    clone_id = f"{job_id}+burst{suffix}"
                    suffix += 1
                    if clone_id not in self._used_ids:
                        break
                self._used_ids.add(clone_id)
                jobs.append(dataclasses.replace(arrival, job_id=clone_id))
                self._expected += 1
                self._arrived += 1
        for entry in jobs:
            job = _Job(entry, self._needs(entry))
            job.enqueued_s = self.engine.now
            self._jobs[entry.job_id] = job
            if not self._fits_ever(job):
                job.state = "rejected"
                self._terminal += 1
                self._last_terminal_s = self.engine.now
                continue
            self._enqueue(job)
        self._drain()

    # -- placement -----------------------------------------------------------

    def _place(self, job: _Job, pool_name: str, need: int) -> None:
        """Fill up nodes lowest id first, spanning nodes as needed; a node
        that fills is closed in the open map at once."""
        pool = self.pools[pool_name]
        now = self.engine.now
        remaining = need
        wpn = pool.wpn
        open_map, nodes = pool.open, pool.nodes
        alloc = job.alloc
        job_id = job.arrival.job_id
        node_id = open_map.find(1)
        while remaining > 0 and node_id >= 0:
            node = nodes[node_id]
            free = wpn - node.used
            alloc.append(node)
            if free > remaining:  # the node takes the rest and stays open
                node.allocations[job_id] = remaining
                node.used += remaining
                remaining = 0
                break
            node.allocations[job_id] = free
            node.used = wpn
            remaining -= free
            open_map[node_id] = 0
            node_id = open_map.find(1, node_id + 1)
        if remaining > 0:  # _drain said it fits; this is a bug
            raise FleetError(
                f"pool {pool_name!r} lost capacity while placing "
                f"{job.arrival.job_id!r}"
            )
        pool.busy += need
        for other, queued_need in job.needs:
            other.queued -= queued_need
        job.state = "running"
        job.pool = pool_name
        job.waited_s += now - job.enqueued_s
        if job.start_s is None:
            job.start_s = now
        else:
            # a previously-displaced job won capacity again; counted here
            # (not at displacement time) so reschedules independently
            # witnesses the requeue->replace path the chaos tier gates
            job.reschedules += 1
        job.token += 1
        token = job.token
        job.run_origin_s = now
        job.finish_s = now + job.remaining_s
        self.engine.schedule(
            job.remaining_s, lambda: self._complete(job, token)
        )

    def _drain(self) -> None:
        """Offer free capacity to the queue in policy order.  The head of
        the ordered queue blocks the rest (no backfilling)."""
        queue = self._queue
        while queue:
            job = queue[0][2]
            candidates: List[Candidate] = [
                (pool.spec.name, free, need) for pool, need in job.needs
                if need <= (free := pool.up * pool.wpn - pool.busy)
            ]
            if not candidates:
                break
            choice = self.policy.choose_pool(job.arrival, candidates)
            for name, _, need in candidates:
                if name == choice:
                    break
            else:
                raise FleetError(
                    f"policy {self.policy_name!r} chose {choice!r} which is "
                    f"not a candidate for {job.arrival.job_id!r}"
                )
            heapq.heappop(queue)
            self._place(job, name, need)

    # -- completion / displacement ------------------------------------------

    def _free(self, job: _Job) -> None:
        pool = self.pools[job.pool]
        open_map = pool.open
        job_id = job.arrival.job_id
        freed = 0
        for node in job.alloc:
            released = node.allocations.pop(job_id)
            node.used -= released
            freed += released
            if node.up:  # a down node reopens at repair
                open_map[node.id] = 1
        pool.busy -= freed
        job.alloc = []

    def _complete(self, job: _Job, token: int) -> None:
        if job.token != token or job.state != "running":
            return  # displaced or slowed since this callback was scheduled
        pool = self.pools[job.pool]
        self._free(job)
        job.state = "completed"
        job.finish_s = self.engine.now
        pool.jobs_completed += 1
        self._terminal += 1
        self._last_terminal_s = self.engine.now
        self._drain()

    def _displace(self, job: _Job) -> None:
        """A node failure killed this job's allocation: requeue it once.

        The job resumes from its last checkpoint.  Its progress in this
        run is the time since placement minus this run's slow-node
        penalties, clamped to the work it had left; it keeps whole
        :data:`CHECKPOINT_S` intervals of that and loses the rest."""
        done = min(max(self.engine.now - job.run_origin_s, 0.0), job.remaining_s)
        kept = math.floor(done / CHECKPOINT_S) * CHECKPOINT_S
        job.remaining_s -= kept
        job.lost_s += done - kept
        self._free(job)
        job.token += 1  # invalidate the in-flight completion
        job.state = "queued"
        job.pool = None
        job.finish_s = None
        job.displacements += 1
        job.enqueued_s = self.engine.now
        self._enqueue(job)

    def _fail_node(self, pool: _PoolState, node: _Node) -> None:
        node.up = False
        pool.up -= 1
        pool.open[node.id] = 0
        pool.node_failures += 1
        for job_id in list(node.allocations):
            self._displace(self._jobs[job_id])  # frees this node too

        def repair() -> None:  # a down node is never retired: still ours
            node.up = True
            pool.up += 1
            pool.open[node.id] = 1  # displacement emptied it
            self._drain()

        self.engine.schedule(REPAIR_S, repair)

    def _slow_job(self, job: _Job, penalty_s: float) -> None:
        """The job finishes ``penalty_s`` late.  A job spanning several
        degraded nodes is only as slow as its slowest node — one penalty
        per epoch, not one per node — which also keeps a wide job from
        being slowed faster than it can finish."""
        if job.state != "running" or job.finish_s is None:
            return
        job.token += 1
        token = job.token
        job.finish_s += penalty_s
        job.run_origin_s += penalty_s
        self.engine.schedule(
            job.finish_s - self.engine.now, lambda: self._complete(job, token)
        )

    def _probe_nodes(self, epoch: int) -> None:
        """Ask ``node-down`` then ``slow-node`` of every up node, one
        injector call per pool per point (``FaultInjector.check_nodes``:
        one coin stream per (pool, point, epoch)).

        Per pool: every up node is asked ``node-down`` in node order and
        the fired nodes fail; the survivors — a downed node is never
        asked — are asked ``slow-node``, and a job is slowed once, by the
        worst penalty among its nodes.  Failing a node frees its jobs
        from all their nodes, so a job displaced this epoch is never
        slowed.  Fires are therefore audited grouped by (pool, point)
        within an epoch (``FaultInjector.fired()``); which nodes fire,
        each rule's ``max_fires`` budget and ``fire_counts()`` do not
        depend on that order.
        """
        injector = self._injector
        if injector is None:
            return  # nothing can fire: skip the per-node scan
        rules_for = injector.plan.rules_for
        if not (rules_for("node-down") or rules_for("slow-node")):
            return  # an injector with nothing to say to the nodes
        slowed: Dict[str, float] = {}  # job_id -> worst penalty this epoch
        for name, pool in self.pools.items():
            nodes = pool.nodes
            for node_id, _ in injector.check_nodes("node-down", name, epoch, nodes):
                self._fail_node(pool, nodes[node_id])
            for node_id, rule in injector.check_nodes("slow-node", name, epoch, nodes):
                penalty = SLOW_PENALTY_S if rule.delay_s is None else rule.delay_s
                for job_id in nodes[node_id].allocations:
                    slowed[job_id] = max(slowed.get(job_id, 0.0), penalty)
        for job_id in sorted(slowed):
            self._slow_job(self._jobs[job_id], slowed[job_id])

    # -- autoscaling / accounting -------------------------------------------

    def _integrate(self) -> None:
        now = self.engine.now
        dt_h = (now - self._last_integrate_s) / 3600.0
        if dt_h <= 0:
            return
        for pool in self.pools.values():
            capacity = pool.up * pool.wpn
            pool.capacity_worker_hours += capacity * dt_h
            pool.busy_worker_hours += pool.busy * dt_h
            if capacity != pool.power[0]:
                watts = pool.reference.power(capacity) if capacity else 0.0
                pool.power = (capacity, watts)
            pool.energy_kwh += pool.power[1] * dt_h / 1000.0
        self._last_integrate_s = now

    def _autoscale(self) -> None:
        """Ask the autoscaler about every pool whose snapshot moved.

        ``Autoscaler.target_nodes`` is a pure function of its snapshot,
        and a snapshot's other fields are the pool's constant spec, so a
        pool whose ``(committed_nodes, busy, queued)`` still equals the
        key of its last "hold" answer would get "hold" again: it is
        skipped.  A shrink that could not retire every node it was asked
        to is not a hold; that pool is asked again next tick.  Only a grow
        raises the committed count, so only a grow can set a new peak."""
        for pool in self.pools.values():
            committed = pool.committed_nodes
            key = (committed, pool.busy, pool.queued)
            if key == pool.settled:
                continue
            spec = pool.spec
            low, high = spec.min_nodes, spec.max_nodes
            target = int(self.autoscaler.target_nodes(_snapshot(
                committed, pool.wpn, pool.busy, pool.queued, low, high,
            )))
            target = low if target < low else high if target > high else target
            delta = target - committed
            if delta > 0:
                self._grow(pool, delta)
                if target > pool.peak_nodes:
                    pool.peak_nodes = target
            elif delta < 0:
                self._shrink(pool, -delta)
            else:
                pool.settled = key

    def _check_pending(self, pool: _PoolState) -> None:
        """The pending ledger must equal the surviving grow batches and
        never go negative — a mismatch means phantom nodes the autoscaler
        cannot see."""
        batches = [batch[0] for batch in pool.grow_batches]
        if pool.pending < 0 or pool.pending != sum(batches):
            raise FleetError(
                f"pool {pool.spec.name!r}: pending-growth ledger out of "
                f"sync (pending={pool.pending}, batches={batches})"
            )

    def check_ledgers(self) -> None:
        """Recount every incremental ledger from ``node.allocations`` and
        the queue — the one place that still scans — and raise
        :class:`FleetError` naming whatever drifted."""
        fields = ("up", "busy", "free", "queued", "node.used", "open map")
        for name, pool in self.pools.items():
            self._check_pending(pool)
            nodes, wpn = pool.nodes.values(), pool.wpn
            used = [sum(node.allocations.values()) for node in nodes]
            open_map = bytearray(pool.next_node_id)  # a retired id reads 0
            for u, node in zip(used, nodes):
                open_map[node.id] = node.up and u < wpn
            ledger = (
                pool.up, pool.busy, pool.free_workers(), pool.queued,
                [node.used for node in nodes], pool.open,
            )
            recount = (
                sum(node.up for node in nodes), sum(used),
                sum(wpn - u for u, node in zip(used, nodes) if node.up),
                sum(need for _, _, job in self._queue
                    for other, need in job.needs if other is pool),
                used, open_map,
            )
            drift = [
                f"{field}={have} but recounted {want}"
                for field, have, want in zip(fields, ledger, recount)
                if have != want
            ]
            if drift:
                raise FleetError(
                    f"pool {name!r}: ledgers out of sync: " + "; ".join(drift)
                )

    def _grow(self, pool: _PoolState, count: int) -> None:
        # each grow is a cancellable batch: _shrink may decrement the
        # surviving count before the scale-up latency elapses, and only
        # the remainder comes online when the callback fires
        batch = [count]
        pool.pending += count
        pool.grow_batches.append(batch)
        self._check_pending(pool)

        def activate() -> None:
            pool.grow_batches.remove(batch)
            surviving = batch[0]
            pool.pending -= surviving
            self._check_pending(pool)
            for _ in range(surviving):
                pool.add_node(_Node(pool.next_node_id))
                pool.next_node_id += 1
            if surviving:
                self._drain()

        self.engine.schedule(pool.spec.scaleup_latency_s, activate)

    def _shrink(self, pool: _PoolState, count: int) -> None:
        """Cancel pending growth first (newest batch first), then retire
        idle up nodes (highest id first).  Nodes running jobs — and down
        nodes mid-repair — are never reclaimed."""
        for batch in reversed(pool.grow_batches):
            if count <= 0:
                break
            cancelled = min(count, batch[0])
            batch[0] -= cancelled
            pool.pending -= cancelled
            count -= cancelled
        self._check_pending(pool)
        retired: List[_Node] = []
        for node in reversed(pool.nodes.values()):  # id-descending
            if len(retired) >= count:
                break
            if node.up and not node.allocations:
                retired.append(node)
        for node in retired:
            node.up = False
            pool.open[node.id] = 0
            del pool.nodes[node.id]
        pool.up -= len(retired)

    def _sample(self) -> None:
        now = self.engine.now
        if now - self._last_sample_s < SAMPLE_EVERY_S:
            return
        self._last_sample_s = now
        for name, pool in sorted(self.pools.items()):
            self._samples.append(PoolSample(
                t_s=round(now, 3), pool=name, nodes=pool.committed_nodes,
                busy_workers=pool.busy, queued_jobs=len(self._queue),
            ))

    # -- the run -------------------------------------------------------------

    def _tick(self) -> None:
        """One scheduler step; the next is :data:`STEP_S` ahead until every
        expected job has arrived and ended."""
        self._integrate()
        epoch = int(self.engine.now // FAULT_EPOCH_S)
        if epoch != self._last_fault_epoch:
            self._last_fault_epoch = epoch
            self._probe_nodes(epoch)
        self._autoscale()
        self._drain()
        self._sample()
        if self._arrived < self._expected or self._terminal < len(self._jobs):
            self.engine.schedule(STEP_S, self._tick)

    def run(self, max_events: int = 5_000_000) -> FleetResult:
        """Execute the whole trace; returns the frozen result.  A simulator
        runs once: its engine and ledgers are spent afterwards."""
        if self._ran:
            raise FleetError("a FleetSimulator runs once; build a new one")
        self._ran = True
        if self._injector is None:
            self._injector = active_injector()
        for arrival in self.trace.arrivals:
            self.engine.schedule(
                arrival.submit_s,
                lambda arrival=arrival: self._on_arrival(arrival),
            )
        # the first tick draws its sequence number at t=0, behind every
        # arrival: same-time events fire in that order, and digests see it
        self.engine.schedule(0.0, lambda: self.engine.schedule(STEP_S, self._tick))
        self.engine.run(max_events=max_events)
        self._integrate()
        self.check_ledgers()
        if self._terminal < len(self._jobs) or self._arrived < self._expected:
            raise FleetError(
                f"fleet run ended with {len(self._jobs) - self._terminal} "
                "non-terminal jobs — simulator invariant broken"
            )
        return self._build_result()

    def _build_result(self) -> FleetResult:
        records: List[FleetJobRecord] = []
        waits: List[float] = []  # queue_s of the completed jobs
        rejected = displacements = reschedules = 0
        jobs = self._jobs
        for job_id in sorted(jobs):
            job = jobs[job_id]
            arrival = job.arrival
            queue_s = round(job.waited_s, 3)
            start_s, finish_s = job.start_s, job.finish_s
            records.append(_job_record(
                job_id, arrival.model, arrival.num_gpus, arrival.priority,
                job.state, job.pool, arrival.submit_s,
                None if start_s is None else round(start_s, 3),
                None if finish_s is None else round(finish_s, 3),
                queue_s, job.reschedules, job.displacements,
            ))
            if job.state == "completed":
                waits.append(queue_s)
            elif job.state == "rejected":
                rejected += 1
            displacements += job.displacements
            reschedules += job.reschedules
        usages = []
        total_cost = total_capacity_wh = total_busy_wh = 0.0
        for name, pool in sorted(self.pools.items()):
            spec = pool.spec
            peak_workers = pool.peak_nodes * spec.workers_per_node
            cost = capacity_cost(
                peak_capex=pool.reference.capex(peak_workers),
                energy_kwh=pool.energy_kwh,
                capacity_hours=pool.capacity_worker_hours,
                calibration=self.calibration,
            )
            usages.append(PoolUsage(
                name=name,
                system=spec.system,
                workers_per_node=spec.workers_per_node,
                peak_nodes=pool.peak_nodes,
                jobs_completed=pool.jobs_completed,
                node_failures=pool.node_failures,
                capacity_worker_hours=round(pool.capacity_worker_hours, 6),
                busy_worker_hours=round(pool.busy_worker_hours, 6),
                energy_kwh=round(pool.energy_kwh, 6),
                capex=round(cost.capex, 6),
                opex=round(cost.opex, 6),
            ))
            total_cost += cost.total
            total_capacity_wh += pool.capacity_worker_hours
            total_busy_wh += pool.busy_worker_hours
        waits.sort()
        completed = len(waits)
        mean_queue = sum(waits) / completed if completed else 0.0
        p95_queue = waits[max(0, -(-95 * completed // 100) - 1)] if completed else 0.0
        attained = sum(1 for wait in waits if wait <= SLO_QUEUE_S)
        fires = {} if self._injector is None else self._injector.fire_counts()
        utilization = total_busy_wh / total_capacity_wh if total_capacity_wh else 0.0
        return FleetResult(
            trace_kind=self.trace.kind,
            trace_seed=self.trace.seed,
            policy=self.policy_name,
            autoscaler=self.autoscaler_name,
            num_jobs=len(records),
            completed=completed,
            rejected=rejected,
            displacements=displacements,
            reschedules=reschedules,
            makespan_s=round(self._last_terminal_s, 3),
            mean_queue_s=round(mean_queue, 3),
            p95_queue_s=round(p95_queue, 3),
            slo_queue_s=SLO_QUEUE_S,
            slo_attainment=round(attained / completed, 6) if completed else 1.0,
            utilization=round(utilization, 6),
            total_cost=round(total_cost, 6),
            # summed in admission order, not record order: float addition
            # is not associative, and the digest holds the sum
            lost_work_hours=round(
                sum(job.lost_s for job in self._jobs.values()) / 3600.0, 6
            ),
            jobs=tuple(records),
            pools=tuple(usages),
            samples=tuple(self._samples),
            fault_fires=fires,
        )


def run_fleet(trace: Trace, **kwargs) -> FleetResult:
    """One-call convenience: ``FleetSimulator(trace, **kwargs).run()`` —
    every keyword is a :class:`FleetSimulator` constructor argument."""
    return FleetSimulator(trace, **kwargs).run()
