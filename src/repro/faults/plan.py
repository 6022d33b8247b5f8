"""Deterministic fault plans — *what* goes wrong, *where*, and *how often*.

A :class:`FaultPlan` is a frozen, seeded, dict-round-trippable description
of the faults one run should experience: a tuple of :class:`FaultRule`
entries, each naming a **fault point** (a probe site woven through the
serve/exec/dataio tiers — see :data:`FAULT_POINTS`), an **action** (crash,
hang, delay, error, torn write, disk-full, connection drop, byte
corruption), and a **rate**.

Determinism is the whole design: whether a rule fires at a given probe is
a pure function of ``sha256(plan.seed, point, key)`` — no wall clock, no
``random`` module, no dependence on thread interleavings.  The ``key`` is
a stable identity from the probe's context (a job id, a job seed), so the
same plan against the same workload injects the same faults into the same
jobs run after run, which is what lets ``repro chaos`` assert a
reproducible matrix and lets a failing chaos seed be replayed exactly.
The fleet's node points ask a whole pool at once and draw from one keyed
stream per (pool, point, epoch) instead (:meth:`FaultPlan.stream_words`):
the same predicate on a different uniform word, just as pure.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple,
)

from repro.errors import ConfigurationError, as_tuple, is_int, strict_keys

if TYPE_CHECKING:
    import numpy as np


class FaultPoint(NamedTuple):
    """One catalogue row: where the probe lives, a rule's default action,
    the default rate ``repro chaos`` and ``repro fleet run --faults`` use,
    the tiers whose code paths probe it, and what firing there means."""

    site: str
    action: str
    rate: float
    tiers: Tuple[str, ...]
    meaning: str


#: the two tiers that run the data plane (jobs, stages, journals)
_DATA_PLANE = ("serve", "batch")

#: the catalogue of named fault points (probe sites), one row each.  Serve
#: and batch rates hit about half the jobs; fleet rates are per node-epoch
#: or per arrival, so they sit much lower.  No tier probes ``row-corrupt``:
#: only the row-file writer does, and no chaos episode calls it.
FAULT_POINTS: Dict[str, FaultPoint] = {
    "worker-crash": FaultPoint("serve/pool + batch/runner", "crash", 0.45, _DATA_PLANE,
        "the worker dies mid-task (a batch worker's process is killed)"),
    "task-hang": FaultPoint("batch/runner", "hang", 0.4, ("batch",),
        "a task blocks past its deadline in the worker (watchdog territory)"),
    "hung-stage": FaultPoint("exec/executor stage", "hang", 0.4, _DATA_PLANE,
        "a stage blocks past the job deadline (watchdog territory)"),
    "slow-stage": FaultPoint("exec/executor stage", "delay", 0.6, _DATA_PLANE,
        "a stage is delayed by delay_s seconds (degraded, not dead)"),
    "stage-error": FaultPoint("exec/executor stage", "error", 0.5, _DATA_PLANE,
        "a stage raises a retryable FaultError (transient failure)"),
    "torn-write": FaultPoint("journal append", "torn", 0.5, _DATA_PLANE,
        "an index or journal append writes half a line and fails"),
    "disk-full": FaultPoint("journal append", "enospc", 0.5, _DATA_PLANE,
        "an index or journal append fails with ENOSPC before writing"),
    "conn-drop": FaultPoint("serve/protocol", "drop", 0.3, ("serve",),
        "the server drops the connection mid-reply (the client sees EOF)"),
    "queue-stall": FaultPoint("serve/queue", "delay", 0.5, ("serve",),
        "a put is delayed by delay_s seconds (producer-side turbulence)"),
    "row-corrupt": FaultPoint("dataio/rowformat", "corrupt", 0.4, (),
        "one byte of a fresh row file is flipped (caught downstream, loudly)"),
    "node-down": FaultPoint("fleet/simulator", "down", 0.01, ("fleet",),
        "a node fails; its jobs are displaced, it repairs after REPAIR_S"),
    "slow-node": FaultPoint("fleet/simulator", "slow", 0.05, ("fleet",),
        "a node degrades; its jobs finish delay_s (else SLOW_PENALTY_S) late"),
    "arrival-burst": FaultPoint("fleet/simulator", "burst", 0.03, ("fleet",),
        "an arrival fans out into clone jobs (delay_s, when set, counts them)"),
}

#: what a rule may do when it fires: each point's default action, once
FAULT_ACTIONS = tuple(dict.fromkeys(row.action for row in FAULT_POINTS.values()))


def probed_by(tier: str) -> Tuple[str, ...]:
    """The points ``tier``'s code paths probe, in catalogue order."""
    return tuple(point for point, row in FAULT_POINTS.items() if tier in row.tiers)


def check_probed(tier: str, points: Iterable[str]) -> Tuple[str, ...]:
    """``points`` as a tuple; an unknown point, or one ``tier`` never
    probes (a run under it would inject nothing and pass), is a
    :class:`ConfigurationError` naming the tier's points."""
    points = tuple(points)
    probed = probed_by(tier)
    for point in points:
        if point not in probed:
            raise ConfigurationError(
                f"unknown {tier} fault {point!r}; known: "
                f"{', '.join(sorted(probed))}"
            )
    return points


@functools.lru_cache(maxsize=256)
def fire_threshold(rate: float) -> bytes:
    """The coin's ``rate`` as eight big-endian bytes: for any sha256
    ``digest``, ``digest < fire_threshold(rate)`` is *exactly*
    ``FaultPlan.hash01(...) < rate`` for the key that digest came from.

    ``hash01`` is ``n / 2.0**64`` with ``n`` the digest's first eight
    bytes; ``float(n)`` never decreases as ``n`` grows, so the keys below
    ``rate`` are the ``n`` below one cut — the smallest ``x`` with
    ``x / 2.0**64 >= rate``, found here by bisection with the same
    division (float rounding included: at rate 1.0 the cut is ``2**64 -
    1024``, above which ``hash01`` rounds to 1.0 and never fires).  Bytes
    compare lexicographically and a 32-byte digest that ties the 8-byte
    cut is the longer, hence greater, string — so the whole digest can be
    compared unsliced.
    """
    low, high = 0, 2**64 - 1  # rate <= 1.0 and float(2**64 - 1) == 2.0**64
    while low < high:
        mid = (low + high) // 2
        if mid / 2.0**64 >= rate:
            high = mid
        else:
            low = mid + 1
    return low.to_bytes(8, "big")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection rule: point + action + rate + scope.

    ``rate`` is the deterministic firing fraction: the rule fires at a
    probe iff ``hash01(seed, point, key) < rate`` (so 1.0 always fires,
    0.0 never).  ``key`` names the context field used as the hash key;
    when unset the probe picks the first stable identity it carries
    (``job_id``, ``item``, ``seed``) and falls back to a per-point
    occurrence counter.  ``match`` restricts the rule to probes whose
    context matches every given key exactly (e.g. ``{"stage":
    "transform"}``).  ``delay_s`` is the sleep for ``delay`` and the
    bounded hang for ``hang``; ``max_fires`` caps total firings.
    """

    point: str
    action: Optional[str] = None
    rate: float = 1.0
    key: Optional[str] = None
    match: Mapping[str, Any] = field(default_factory=dict)
    delay_s: Optional[float] = None
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ConfigurationError(
                f"unknown fault point {self.point!r}; known: "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        action = self.action or FAULT_POINTS[self.point].action
        if action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {action!r}; known: "
                f"{', '.join(FAULT_ACTIONS)}"
            )
        object.__setattr__(self, "action", action)
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigurationError(
                f"rate must be within [0, 1], got {self.rate!r}"
            )
        if self.delay_s is not None and self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be non-negative, got {self.delay_s!r}"
            )
        if self.max_fires is not None and (
            not is_int(self.max_fires) or self.max_fires < 0
        ):
            raise ConfigurationError(
                f"max_fires must be a non-negative int, got {self.max_fires!r}"
            )
        object.__setattr__(self, "match", dict(self.match))

    def matches(self, context: Mapping[str, Any]) -> bool:
        """Whether this rule applies to a probe with ``context``."""
        return all(context.get(k) == v for k, v in self.match.items())

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "point": self.point,
            "action": self.action,
            "rate": self.rate,
        }
        if self.key is not None:
            payload["key"] = self.key
        if self.match:
            payload["match"] = dict(self.match)
        if self.delay_s is not None:
            payload["delay_s"] = self.delay_s
        if self.max_fires is not None:
            payload["max_fires"] = self.max_fires
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        return cls(**strict_keys(cls, data, ConfigurationError))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules — the whole injection schedule."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if not is_int(self.seed):
            raise ConfigurationError(
                f"seed must be an int, got {self.seed!r}"
            )
        rules = as_tuple(self.rules, "rules", ConfigurationError)
        for rule in rules:
            if not isinstance(rule, FaultRule):
                raise ConfigurationError(
                    f"rules must hold FaultRule entries, got {rule!r}"
                )
        object.__setattr__(self, "rules", rules)
        # looked up on every probe: index by point here (not a field, so
        # to_dict/from_dict/equality never see it)
        by_point: Dict[str, Tuple[FaultRule, ...]] = {}
        for rule in rules:
            by_point[rule.point] = by_point.get(rule.point, ()) + (rule,)
        object.__setattr__(self, "_by_point", by_point)

    def rules_for(self, point: str) -> Tuple[FaultRule, ...]:
        """This point's rules in plan order; ``()`` for an unknown point."""
        return self._by_point.get(point, ())

    def hash01(self, point: str, key: str) -> float:
        """Uniform [0, 1) hash of (seed, point, key) — the deterministic
        coin: a rule fires iff this value is below its rate.  A pure
        function, so the same plan makes the same decisions in any
        process, on any run."""
        digest = hashlib.sha256(
            f"{self.seed}:{point}:{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def stream_words(self, point: str, stream: str, count: int) -> np.ndarray:
        """The group coin: the first ``count`` big-endian 64-bit words of
        ``shake_256(f"{seed}:{point}:{stream}")``.  Member ``i`` of the
        group draws word ``i``; a rule fires for it iff ``word / 2**64 <
        rate`` — ``hash01``'s predicate on another uniform word, so
        ``word < fire_threshold(rate)`` decides it exactly.  A pure
        function: a member's word depends on the seed, the point, the
        stream key and its own index, never on which other members exist.
        """
        import numpy as np  # here, not at module level: plans load without it

        data = f"{self.seed}:{point}:{stream}".encode("utf-8")
        return np.frombuffer(hashlib.shake_256(data).digest(8 * count), dtype=">u8")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        payload = strict_keys(cls, data, ConfigurationError)
        rules = as_tuple(payload.get("rules", ()), "rules", ConfigurationError)
        payload["rules"] = tuple(map(FaultRule.from_dict, rules))
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigurationError("fault plan JSON must be an object")
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}")
        return cls.from_json(text)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
