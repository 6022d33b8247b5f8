"""The fault injector and the probe functions woven through the code.

Probe sites call :func:`fault_point` (or :func:`fault_stage` for pipeline
stages) with their point name and a small context.  With no injector
installed — the production default — a probe is a single module-global
``None`` test and an immediate return: zero allocated objects, no locks,
no I/O.  With an injector installed, the probe consults the seeded
:class:`~repro.faults.plan.FaultPlan` and either *executes* generic
actions itself (``crash`` raises ``SystemExit``, ``error`` raises
:class:`FaultError`, ``delay`` sleeps, ``hang`` blocks on an interruptible
event) or *returns* the matched rule for cooperative actions the site must
enact in kind (``torn``, ``enospc``, ``drop``, ``corrupt``).

Evaluation is two steps, each written once.  *Resolve*: the point's rules,
in plan order, whose ``match`` accepts the probe's context, and the context
field that keys each rule's coin.  *Draw and record*: the coin
(:meth:`~repro.faults.plan.FaultPlan.hash01` below the rule's ``rate``),
then the rule's ``max_fires`` budget and the audit trail, under the lock.
:meth:`FaultInjector.check` is resolve plus one draw, the coin for every
job, stage and arrival point; :meth:`FaultInjector.check_nodes` asks one
node point about a whole fleet pool in one fault epoch, resolves once and
draws every node's coin from one keyed stream
(:meth:`~repro.faults.plan.FaultPlan.stream_words`).  Nothing is
remembered between probes.

Installation is process-global and explicit: :func:`install` /
:func:`uninstall`, or the :func:`installed` context manager (which also
releases any injected hangs on exit, so a test never leaks a sleeping
thread past its scope).  Daemons load a plan from ``repro serve --faults
PLAN.json``; ``repro chaos`` builds plans programmatically.
"""

from __future__ import annotations

import errno
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, FaultError
from repro.faults.plan import FaultPlan, FaultRule, fire_threshold

#: the process-global injector; ``None`` means every probe is a no-op
_ACTIVE: Optional["FaultInjector"] = None

#: default bounded duration of an injected hang (seconds); long enough to
#: trip any sane watchdog, short enough to never wedge a test run
DEFAULT_HANG_S = 30.0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at probe sites and audits every fire."""

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise FaultError(f"injector needs a FaultPlan, got {plan!r}")
        self.plan = plan
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._fires: Dict[Tuple[str, str], int] = {}  # (point, action) -> n
        self._rule_fires: Dict[int, int] = {}  # id(rule) -> n, for max_fires
        self._fired: List[Dict[str, Any]] = []
        #: set to release every injected hang early (uninstall sets it)
        self._release = threading.Event()

    # -- audit ---------------------------------------------------------------

    def fired(self) -> List[Dict[str, Any]]:
        """Every fire so far: [{point, action, key}, ...] in fire order."""
        with self._lock:
            return [dict(entry) for entry in self._fired]

    def fire_counts(self) -> Dict[str, int]:
        """``point:action`` -> number of fires (the chaos report's audit)."""
        with self._lock:
            return {
                f"{point}:{action}": count
                for (point, action), count in sorted(self._fires.items())
            }

    def release_hangs(self) -> None:
        """Wake every thread currently blocked in an injected hang."""
        self._release.set()

    # -- evaluation ----------------------------------------------------------

    def _resolve(self, point: str,
                 context: Dict[str, Any]) -> List[Tuple[FaultRule, Optional[str]]]:
        """Step one: the point's rules, in plan order, whose ``match``
        accepts ``context``, each with the context field that keys its
        coin (``None``: the per-point occurrence counter)."""
        resolved = []
        for rule in self.plan.rules_for(point):
            if not rule.matches(context):
                continue
            if rule.key is not None:
                field = rule.key if rule.key in context else None
            else:
                field = next(
                    (name for name in ("job_id", "item", "seed", "worker")
                     if context.get(name) is not None),
                    None,
                )
            resolved.append((rule, field))
        return resolved

    def _counter_key(self, point: str) -> str:
        with self._lock:
            n = self._counters.get(point, 0)
            self._counters[point] = n + 1
        return f"#{n}"

    def _record(self, rule: FaultRule, point: str, key: str) -> bool:
        """Step two, after the coin came up: spend one fire of ``rule``'s
        budget and audit it; ``False`` when the budget is already spent."""
        with self._lock:
            # max_fires caps THIS rule's firings: two rules on one point
            # each get their own budget (keyed by rule identity — the
            # plan's rule objects are stable for the process)
            fires = self._rule_fires.get(id(rule), 0)
            if rule.max_fires is not None and fires >= rule.max_fires:
                return False
            self._rule_fires[id(rule)] = fires + 1
            pair = (point, rule.action)
            self._fires[pair] = self._fires.get(pair, 0) + 1
            self._fired.append(
                {"point": point, "action": rule.action, "key": key}
            )
        return True

    def check(self, point: str, **context: Any) -> Optional[FaultRule]:
        """The matched firing rule for this probe occurrence, or ``None``.

        Records the fire in the audit trail; the caller (or
        :func:`fault_point`) is responsible for enacting the action.
        """
        for rule, field in self._resolve(point, context):
            key = (
                self._counter_key(point) if field is None
                else str(context[field])
            )
            if (self.plan.hash01(point, key) < rule.rate
                    and self._record(rule, point, key)):
                return rule
        return None

    def check_nodes(self, point: str, pool: str, epoch: int,
                    nodes: Mapping[int, Any]) -> List[Tuple[int, FaultRule]]:
        """Ask ``point`` about every up node in ``nodes`` (id -> node) of
        ``pool`` in fault epoch ``epoch``: ``[(node_id, rule), ...]`` for
        the nodes that fired, in id order.

        The point's rules are resolved once against ``{"pool": pool}``;
        node ``id``'s coin is word ``id`` of the one stream keyed
        ``f"{pool}:epoch-{epoch}"`` (:meth:`FaultPlan.stream_words`),
        which every rule compares against its own
        :func:`~repro.faults.plan.fire_threshold` in plan order.  The
        stream's output is prefix-stable and node ids are never reused,
        so a node's fate does not depend on which other nodes exist.
        Budgets and the audit trail are :meth:`check`'s, a fire audited
        under ``pool:node-<id>:epoch-<k>``.  A rule with a ``key``, or a
        ``match`` on ``item``, asks for a coin the stream does not have:
        :class:`ConfigurationError`.
        """
        rules = self.plan.rules_for(point)
        for rule in rules:
            if rule.key is not None or "item" in rule.match:
                raise ConfigurationError(
                    f"fault rule {rule.to_dict()} cannot be drawn at {point!r}: "
                    "node coins come from one stream per (pool, point, epoch) "
                    "indexed by node id, so a node rule takes no key and no "
                    "match on item"
                )
        armed = [
            (rule, int.from_bytes(fire_threshold(rule.rate), "big"))
            for rule in rules if rule.matches({"pool": pool})
        ]
        if not armed or not any(node.up for node in nodes.values()):
            return []  # nothing to draw: build no stream
        import numpy as np  # only an armed probe draws: a clean run never loads it

        ids = np.sort(np.fromiter(nodes, np.int64, len(nodes)))
        words = self.plan.stream_words(
            point, f"{pool}:epoch-{epoch}", int(ids[-1]) + 1
        )
        # every rule flips the same word per node, so most ids stop at the
        # highest threshold and never reach the per-rule loop; only the
        # live ids are read, never the retired ones below them
        ceiling = max(threshold for _, threshold in armed)
        fired: List[Tuple[int, FaultRule]] = []
        for node_id in ids[words[ids] < ceiling].tolist():
            if not nodes[node_id].up:
                continue
            word = int(words[node_id])
            key = f"{pool}:node-{node_id}:epoch-{epoch}"
            for rule, threshold in armed:
                if word < threshold and self._record(rule, point, key):
                    fired.append((node_id, rule))
                    break
        return fired

    def execute(self, rule: FaultRule, point: str) -> Optional[FaultRule]:
        """Enact a generic action; return cooperative rules to the site."""
        if rule.action == "crash":
            raise SystemExit(f"injected fault: worker crash at {point}")
        if rule.action == "error":
            raise FaultError(f"injected fault: transient error at {point}")
        if rule.action == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected fault: disk full at {point}"
            )
        if rule.action == "delay":
            self._release.wait(rule.delay_s if rule.delay_s is not None else 0.05)
            return None
        if rule.action == "hang":
            self._release.wait(
                rule.delay_s if rule.delay_s is not None else DEFAULT_HANG_S
            )
            return None
        # torn / drop / corrupt / down / slow / burst: cooperative — the
        # probe site enacts the misbehavior in kind (the fleet simulator
        # does so in simulated time, never wall-clock)
        return rule


# --------------------------------------------------------------------------
# installation
# --------------------------------------------------------------------------


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-global injector (probes go live)."""
    global _ACTIVE
    if not isinstance(injector, FaultInjector):
        raise FaultError(f"install needs a FaultInjector, got {injector!r}")
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Disable injection and release any threads stuck in injected hangs."""
    global _ACTIVE
    injector, _ACTIVE = _ACTIVE, None
    if injector is not None:
        injector.release_hangs()


def active_injector() -> Optional[FaultInjector]:
    """The installed injector, or ``None`` (probes disabled)."""
    return _ACTIVE


@contextmanager
def installed(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Scope-bound installation: uninstalls (and releases hangs) on exit."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


# --------------------------------------------------------------------------
# the probes (call sites across serve / exec / dataio)
# --------------------------------------------------------------------------


def fault_point(point: str, **context: Any) -> Optional[FaultRule]:
    """The generic probe: no-op unless an injector is installed.

    Generic actions (crash/error/enospc raise; delay/hang block) are
    executed here; cooperative actions (``torn``, ``drop``, ``corrupt``)
    are returned for the site to enact.  Disabled cost: one global read
    and one ``None`` test.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    rule = injector.check(point, **context)
    if rule is None:
        return None
    return injector.execute(rule, point)


def fault_stage(stage: str, **context: Any) -> None:
    """Stage-start probe: checks the three stage fault classes in order.

    ``hung-stage`` blocks (bounded, interruptible), ``slow-stage`` sleeps
    ``delay_s``, ``stage-error`` raises a retryable :class:`FaultError`.
    Sites pass a stable identity (``seed`` or ``job_id``) so firing is
    per-job deterministic.
    """
    if _ACTIVE is None:
        return
    fault_point("hung-stage", stage=stage, **context)
    fault_point("slow-stage", stage=stage, **context)
    fault_point("stage-error", stage=stage, **context)
