"""Autoscaling — provisioning policies that resize pools over simulated time.

The fleet operator doesn't provision a static pool; capacity follows
load.  An autoscaler is consulted at scheduler steps with a frozen
:class:`PoolSnapshot` of one pool and answers one question: how many
nodes *should* this pool have.  The answer depends on the snapshot
alone, so a pool that was told to hold is asked again only once its
snapshot moves.  The simulator enacts the answer — new
nodes come online only after the pool's ``scaleup_latency_s`` (capacity
is never free or instant), shrinking removes idle nodes only (running
jobs are never evicted by the autoscaler), and every capacity change
lands in the pool's capacity-hour ledger that
:func:`repro.analysis.cost.capacity_cost` turns into dollars.

Like placement policies, autoscalers sit in one closed table,
:data:`AUTOSCALERS`, where ``repro fleet run --autoscale`` and the
experiments' names are looked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Type


@dataclass(frozen=True)
class PoolSnapshot:
    """What an autoscaler sees of one pool at one step (all workers)."""

    nodes: int  # up + pending nodes (committed capacity)
    workers_per_node: int
    busy_workers: int  # workers running jobs right now
    queued_workers: int  # aggregate demand of the queued jobs
    min_nodes: int
    max_nodes: int

    @property
    def capacity(self) -> int:
        return self.nodes * self.workers_per_node

    @property
    def utilization(self) -> float:
        return self.busy_workers / self.capacity if self.capacity else 0.0

    def clamp(self, nodes: int) -> int:
        return max(self.min_nodes, min(self.max_nodes, nodes))


def _snapshot(
    nodes, workers_per_node, busy_workers, queued_workers, min_nodes, max_nodes,
) -> PoolSnapshot:
    """``PoolSnapshot(...)`` positionally, at under half the cost: it
    writes the instance dict directly instead of paying the generated
    frozen ``__init__``'s one ``object.__setattr__`` call per field.  The
    result is an ordinary snapshot: assignment raises
    ``FrozenInstanceError`` and ``dataclasses.replace`` works.
    ``FleetSimulator._autoscale`` builds one per pool it asks."""
    snapshot = object.__new__(PoolSnapshot)
    attrs = snapshot.__dict__
    attrs["nodes"] = nodes
    attrs["workers_per_node"] = workers_per_node
    attrs["busy_workers"] = busy_workers
    attrs["queued_workers"] = queued_workers
    attrs["min_nodes"] = min_nodes
    attrs["max_nodes"] = max_nodes
    return snapshot


class Autoscaler:
    """Base autoscaler and ``fixed``: static provisioning, the pool keeps
    its current node count.

    Subclasses that can ever *raise* a pool's node count must set
    ``can_grow = True`` — the simulator uses it to decide whether a job
    larger than today's capacity could ever be placed (keep it queued
    until the pool grows) or never will be (reject it up front instead
    of letting it head-of-line block the queue forever).

    :meth:`target_nodes` must be a pure function of its
    :class:`PoolSnapshot`: no clock, no counters, no state carried from
    one call to the next.  The simulator relies on it — once a pool's
    answer was "hold" (its current node count), it is not asked again
    until that pool's snapshot changes.
    """

    can_grow = False

    def target_nodes(self, pool: PoolSnapshot) -> int:
        """The node count this pool should converge to; a pure function
        of ``pool``."""
        return pool.clamp(pool.nodes)


class TargetUtilizationAutoscaler(Autoscaler):
    """Track a worker-utilization setpoint of 70%.

    Sizes the pool so ``busy / capacity`` sits at the target; demand
    from the queue counts toward busy so a backlog pulls capacity up
    before jobs time out in the queue.
    """

    can_grow = True
    target = 0.7

    def target_nodes(self, pool: PoolSnapshot) -> int:
        demand = pool.busy_workers + pool.queued_workers
        wanted = math.ceil(
            demand / (self.target * pool.workers_per_node)
        ) if demand else pool.min_nodes
        return pool.clamp(wanted)


class QueueDepthAutoscaler(Autoscaler):
    """Chase the backlog: size the pool to exactly the workers running
    plus queued jobs need (no utilization headroom, unlike
    ``target-utilization``), and shed nodes the moment workers sit idle.

    Demand is sized absolutely — never added on top of the current node
    count — because queued jobs stay queued for the whole scale-up
    latency; re-adding the same backlog to committed capacity every step
    would compound into a roughly ``scaleup_latency_s / STEP_S``-fold
    overshoot.
    """

    can_grow = True

    def target_nodes(self, pool: PoolSnapshot) -> int:
        demand = pool.busy_workers + pool.queued_workers
        if not demand:
            return pool.clamp(pool.min_nodes)
        return pool.clamp(math.ceil(demand / pool.workers_per_node))


#: name -> autoscaler class, in the order the goldens iterate
AUTOSCALERS: Dict[str, Type[Autoscaler]] = {
    "fixed": Autoscaler,
    "target-utilization": TargetUtilizationAutoscaler,
    "queue-depth": QueueDepthAutoscaler,
}
