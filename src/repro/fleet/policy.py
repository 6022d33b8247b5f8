"""Placement policies — how the cluster scheduler packs jobs into pools.

A closed table, :data:`POLICIES`, maps each name ``repro fleet run
--policy`` and the experiments accept to its class; the simulator looks
a name up there and instantiates it once per simulator.

A policy answers two questions, both as pure functions of the visible
state (so fleet runs stay deterministic):

* :meth:`PlacementPolicy.order_key` — where a job sorts in the queue
  (smaller keys are offered capacity first; a constant, i.e. FIFO, by
  default; ``priority`` puts urgent jobs first).  The simulator keeps
  its queue as a heap on ``(order_key, enqueue sequence)``, so equal
  keys stay in enqueue order and a displaced job rejoins behind the
  queued jobs of its class;
* :meth:`PlacementPolicy.choose_pool` — which candidate pool a job
  lands in (``first-fit`` takes the first that fits, ``best-fit`` the
  tightest fit).

Candidates arrive as ``(pool_name, free_workers, needed_workers)``
tuples for pools that can hold the job *right now*; ``choose_pool``
returns one of the pool names.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Type

from repro.fleet.trace import JobArrival

#: one placement candidate: (pool name, free workers, workers needed there)
Candidate = Tuple[str, int, int]


class PlacementPolicy:
    """Base policy and ``first-fit``: FIFO queue order, the first pool
    (declaration order) that fits."""

    def order_key(self, job: JobArrival):
        """The job's place in the queue: smaller keys are offered freed
        capacity first, equal keys in enqueue order.  Must be a pure
        function of the arrival returning mutually comparable values —
        the simulator reads it once per enqueue, never re-sorts."""
        return 0

    def choose_pool(self, job: JobArrival, candidates: Sequence[Candidate]) -> str:
        """Pick one of the candidate pools (all already fit the job)."""
        return candidates[0][0]


class BestFitPolicy(PlacementPolicy):
    """FIFO queue, tightest-fitting pool (least free capacity left
    after placement; declaration order breaks ties)."""

    def choose_pool(self, job: JobArrival, candidates: Sequence[Candidate]) -> str:
        best = min(candidates, key=lambda c: c[1] - c[2])
        return best[0]


class PriorityPolicy(PlacementPolicy):
    """Priority queue (high first, FIFO within a class), first-fit pools.

    Two jobs of equal priority keep enqueue order — the deterministic
    tiebreak the chaos harness relies on.
    """

    def order_key(self, job: JobArrival) -> int:
        return -job.priority


#: name -> placement policy class, in the order the goldens iterate
POLICIES: Dict[str, Type[PlacementPolicy]] = {
    "first-fit": PlacementPolicy,
    "best-fit": BestFitPolicy,
    "priority": PriorityPolicy,
}
