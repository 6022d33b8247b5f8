"""Placement policies — how the cluster scheduler packs jobs into pools.

A :class:`repro.registry.Registry` like the system catalog: every policy
registers under a stable name via :func:`register_policy` and the
simulator, the chaos harness, and ``repro fleet --policy`` all resolve it
through the one :data:`POLICY_REGISTRY`.

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

from typing import Callable, List, Sequence, Tuple

from repro.fleet.trace import JobArrival
from repro.registry import Registry

#: one placement candidate: (pool name, free workers, workers needed there)
Candidate = Tuple[str, int, int]


class PlacementPolicy:
    """Base policy: FIFO queue order, first-fit pool choice."""

    name = "first-fit"

    def order_key(self, job: JobArrival):
        """The job's place in the queue: smaller keys are offered freed
        capacity first, equal keys in enqueue order.  Must be a pure
        function of the arrival returning mutually comparable values —
        the simulator reads it once per enqueue, never re-sorts."""
        return 0

    def queue_order(self, queued: Sequence[JobArrival]) -> List[JobArrival]:
        """``queued`` (in enqueue order) as the simulator would serve
        it.  The head blocks the rest (no backfilling), which keeps
        admission decisions O(1) per event and starvation-free."""
        return sorted(queued, key=self.order_key)

    def choose_pool(self, job: JobArrival, candidates: Sequence[Candidate]) -> str:
        """Pick one of the candidate pools (all already fit the job)."""
        return candidates[0][0]


class PolicyRegistry(Registry[Callable[[], PlacementPolicy]]):
    """Name -> :class:`PlacementPolicy` factory catalog."""

    noun = "placement policy"
    plural = "policies"

    def create(self, name: str) -> PlacementPolicy:
        """A fresh policy instance carrying its registered name."""
        policy = self.get(name)()
        policy.name = name
        return policy


#: the process-wide placement-policy catalog
POLICY_REGISTRY = PolicyRegistry()


def register_policy(
    name: str, *, replace: bool = False
) -> Callable[[Callable[[], PlacementPolicy]], Callable[[], PlacementPolicy]]:
    """Class decorator registering a placement policy by name."""
    return POLICY_REGISTRY.decorator(name, replace=replace)


def get_policy(name: str) -> PlacementPolicy:
    """Instantiate one registered policy by name."""
    return POLICY_REGISTRY.create(name)


def available_policies() -> Tuple[str, ...]:
    """Registered policy names, registration order (built-ins first)."""
    return POLICY_REGISTRY.names()


@register_policy("first-fit")
class FirstFitPolicy(PlacementPolicy):
    """FIFO queue, first pool (declaration order) that fits."""


@register_policy("best-fit")
class BestFitPolicy(PlacementPolicy):
    """FIFO queue, tightest-fitting pool (least free capacity left
    after placement; declaration order breaks ties)."""

    def choose_pool(self, job: JobArrival, candidates: Sequence[Candidate]) -> str:
        best = min(candidates, key=lambda c: (c[1] - c[2],))
        return best[0]


@register_policy("priority")
class PriorityPolicy(PlacementPolicy):
    """Priority queue (high first, FIFO within a class), first-fit pools.

    Two jobs of equal priority keep enqueue order — the deterministic
    tiebreak the chaos harness relies on.
    """

    def order_key(self, job: JobArrival) -> int:
        return -job.priority
