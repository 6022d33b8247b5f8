"""Arrival traces — the workload a fleet simulation replays.

The paper's cost argument (Section III-A) is about "numerous concurrent
training jobs" arriving over time, not a fixed job mix.  A
:class:`Trace` is the frozen record of that workload: a tuple of
:class:`JobArrival` events (model, GPU count, duration, submit time,
priority), sorted by submit time, produced either by a **seeded
generator** (Poisson, diurnal, bursty flash-crowd — the same seed always
yields the byte-identical trace) or **replayed from a JSONL file**
(``Trace.load``/``Trace.save`` round-trip byte-exactly), so every fleet
run is deterministic by seed or by recorded file.

Generators use :class:`random.Random` seeded with ``f"{kind}:{seed}"``
— no global RNG state, no numpy, stable across platforms and Python
versions the repo supports.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import (
    ConfigurationError,
    FleetError,
    as_tuple,
    is_int,
    strict_keys,
)

#: the built-in arrival-process shapes
TRACE_KINDS = ("poisson", "diurnal", "bursty")

#: one simulated day — the default trace horizon
DAY_S = 86_400.0

#: JSONL header fields (first line of a saved trace)
_TRACE_FORMAT = "repro-fleet-trace"
_TRACE_VERSION = 1

#: production fleets skew toward the big models (the abl_multijob mix)
_MODEL_WEIGHTS: Tuple[Tuple[str, int], ...] = (
    ("RM1", 1), ("RM2", 2), ("RM3", 2), ("RM4", 2), ("RM5", 3),
)

#: GPU counts per job, weighted toward the common 8-GPU shape
_GPU_CHOICES: Tuple[int, ...] = (8, 8, 8, 8, 16, 16, 32)

#: job priorities (0 = batch, 2 = production-critical), weighted
_PRIORITY_CHOICES: Tuple[int, ...] = (0, 0, 0, 1, 1, 2)


@dataclass(frozen=True)
class JobArrival:
    """One training-job arrival: what shows up, when, and how big."""

    job_id: str
    model: str
    num_gpus: int
    duration_s: float
    submit_s: float
    priority: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id.strip():
            raise ConfigurationError(
                f"job_id must be a non-empty string, got {self.job_id!r}"
            )
        if not isinstance(self.model, str) or not self.model.strip():
            raise ConfigurationError(
                f"arrival {self.job_id!r}: model must be a non-empty string"
            )
        if not is_int(self.num_gpus) or self.num_gpus <= 0:
            raise ConfigurationError(
                f"arrival {self.job_id!r}: num_gpus must be a positive int, "
                f"got {self.num_gpus!r}"
            )
        if not isinstance(self.duration_s, (int, float)) or not (
            0.0 < self.duration_s < math.inf
        ):
            raise ConfigurationError(
                f"arrival {self.job_id!r}: duration_s must be positive and "
                f"finite, got {self.duration_s!r}"
            )
        if not isinstance(self.submit_s, (int, float)) or not (
            0.0 <= self.submit_s < math.inf
        ):
            raise ConfigurationError(
                f"arrival {self.job_id!r}: submit_s must be non-negative and "
                f"finite, got {self.submit_s!r}"
            )
        if not is_int(self.priority) or self.priority < 0:
            raise ConfigurationError(
                f"arrival {self.job_id!r}: priority must be a non-negative "
                f"int, got {self.priority!r}"
            )
        object.__setattr__(self, "duration_s", float(self.duration_s))
        object.__setattr__(self, "submit_s", float(self.submit_s))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "model": self.model,
            "num_gpus": self.num_gpus,
            "duration_s": self.duration_s,
            "submit_s": self.submit_s,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobArrival":
        return cls(**strict_keys(cls, data, ConfigurationError))


@dataclass(frozen=True)
class Trace:
    """A frozen arrival trace: generator metadata + sorted arrivals."""

    kind: str
    seed: int
    arrivals: Tuple[JobArrival, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind.strip():
            raise ConfigurationError("trace kind must be a non-empty string")
        if not is_int(self.seed):
            raise ConfigurationError(
                f"trace seed must be an int, got {self.seed!r}"
            )
        arrivals = as_tuple(self.arrivals, "arrivals", ConfigurationError)
        seen = set()
        for arrival in arrivals:
            if not isinstance(arrival, JobArrival):
                raise ConfigurationError(
                    f"arrivals must hold JobArrival entries, got {arrival!r}"
                )
            if arrival.job_id in seen:
                raise ConfigurationError(
                    f"duplicate job_id {arrival.job_id!r} in trace"
                )
            seen.add(arrival.job_id)
        for earlier, later in zip(arrivals, arrivals[1:]):
            if later.submit_s < earlier.submit_s:
                raise ConfigurationError(
                    "trace arrivals must be sorted by submit_s "
                    f"({later.job_id!r} at {later.submit_s} follows "
                    f"{earlier.job_id!r} at {earlier.submit_s})"
                )
        object.__setattr__(self, "arrivals", arrivals)

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def horizon_s(self) -> float:
        """Submit time of the last arrival (0.0 for an empty trace)."""
        return self.arrivals[-1].submit_s if self.arrivals else 0.0

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "arrivals": [a.to_dict() for a in self.arrivals],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Trace":
        payload = strict_keys(cls, data, ConfigurationError)
        arrivals = as_tuple(
            payload.get("arrivals", ()), "arrivals", ConfigurationError
        )
        payload["arrivals"] = tuple(map(JobArrival.from_dict, arrivals))
        return cls(**payload)

    def to_jsonl(self) -> str:
        """The replayable JSONL form: one header line, one line per
        arrival, sorted keys and fixed separators — so the same trace
        always serializes to the same bytes."""
        header = {
            "format": _TRACE_FORMAT,
            "version": _TRACE_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "num_jobs": len(self.arrivals),
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines += [
            json.dumps(a.to_dict(), sort_keys=True, separators=(",", ":"))
            for a in self.arrivals
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise FleetError("trace file is empty")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise FleetError(f"trace header is not valid JSON: {exc}")
        if not isinstance(header, dict) or header.get("format") != _TRACE_FORMAT:
            raise FleetError(
                f"not a {_TRACE_FORMAT} file (header {lines[0][:80]!r})"
            )
        if header.get("version") != _TRACE_VERSION:
            raise FleetError(
                f"unsupported trace version {header.get('version')!r} "
                f"(this build reads version {_TRACE_VERSION})"
            )
        arrivals = []
        for number, line in enumerate(lines[1:], start=2):
            try:
                arrivals.append(JobArrival.from_dict(json.loads(line)))
            except (ValueError, ConfigurationError) as exc:
                raise FleetError(f"trace line {number}: {exc}")
        declared = header.get("num_jobs")
        if declared is not None and declared != len(arrivals):
            raise FleetError(
                f"trace header declares {declared} jobs but the file "
                f"holds {len(arrivals)}"
            )
        return cls(
            kind=header.get("kind", "recorded"),
            seed=header.get("seed", 0),
            arrivals=tuple(arrivals),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "Trace":
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise FleetError(f"cannot read trace {path}: {exc}")
        return cls.from_jsonl(text)


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def _submit_times_poisson(
    rng: random.Random, num_jobs: int, horizon_s: float
) -> List[float]:
    """Homogeneous Poisson arrivals at the rate that spans the horizon."""
    rate = num_jobs / horizon_s
    t, times = 0.0, []
    while len(times) < num_jobs:
        t += rng.expovariate(rate)
        times.append(t)
    return times


def _diurnal_intensity(t: float) -> float:
    """Relative arrival intensity at simulated time ``t``: a day-period
    wave, quiet at night (t=0), peaking mid-day — the "millions of users"
    load shape the serving-side traffic imprints on training submissions."""
    return 0.25 + 0.75 * math.sin(math.pi * ((t % DAY_S) / DAY_S)) ** 2


def _submit_times_diurnal(
    rng: random.Random, num_jobs: int, horizon_s: float
) -> List[float]:
    """Non-homogeneous Poisson via thinning against the diurnal wave."""
    max_intensity = 1.0
    mean_intensity = 0.625  # time average of _diurnal_intensity
    rate = num_jobs / horizon_s / mean_intensity
    t, times = 0.0, []
    while len(times) < num_jobs:
        t += rng.expovariate(rate * max_intensity)
        if rng.random() < _diurnal_intensity(t) / max_intensity:
            times.append(t)
    return times


def _submit_times_bursty(
    rng: random.Random, num_jobs: int, horizon_s: float
) -> List[float]:
    """Poisson base load plus flash-crowd bursts (re-train storms)."""
    num_burst_jobs = num_jobs // 3
    base = _submit_times_poisson(rng, num_jobs - num_burst_jobs, horizon_s)
    num_bursts = max(1, num_jobs // 100)
    epochs = sorted(rng.uniform(0.0, horizon_s) for _ in range(num_bursts))
    burst: List[float] = []
    for index in range(num_burst_jobs):
        epoch = epochs[index % num_bursts]
        burst.append(epoch + rng.expovariate(1.0 / 90.0))
    return sorted(base + burst)


_SUBMIT_TIMES = {
    "poisson": _submit_times_poisson,
    "diurnal": _submit_times_diurnal,
    "bursty": _submit_times_bursty,
}


def generate_trace(
    kind: str = "diurnal",
    num_jobs: int = 1000,
    seed: int = 0,
    horizon_s: float = DAY_S,
    mean_duration_s: float = 5_400.0,
) -> Trace:
    """A frozen, seeded synthetic trace — same arguments, same bytes.

    ``kind`` picks the arrival process (:data:`TRACE_KINDS`); jobs draw a
    model (skewed toward the big ones), a GPU count, a log-normal
    duration around ``mean_duration_s``, and a priority, all from one
    :class:`random.Random` stream seeded with ``f"{kind}:{seed}"``.
    """
    if kind not in _SUBMIT_TIMES:
        raise ConfigurationError(
            f"unknown trace kind {kind!r}; known: {', '.join(TRACE_KINDS)}"
        )
    if not is_int(num_jobs) or num_jobs <= 0:
        raise ConfigurationError(
            f"num_jobs must be a positive int, got {num_jobs!r}"
        )
    for name, value in (("horizon_s", horizon_s),
                        ("mean_duration_s", mean_duration_s)):
        if not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"{name} must be positive and finite, got {value!r}"
            )
    names = tuple(m for m, _ in _MODEL_WEIGHTS)
    weights = tuple(w for _, w in _MODEL_WEIGHTS)
    rng = random.Random(f"{kind}:{seed}")
    times = _SUBMIT_TIMES[kind](rng, num_jobs, horizon_s)
    # log-normal durations with sigma=0.6, mean pinned to mean_duration_s
    sigma = 0.6
    mu = math.log(mean_duration_s) - sigma * sigma / 2.0
    arrivals = []
    for index, submit in enumerate(sorted(times)):
        duration = rng.lognormvariate(mu, sigma)
        duration = min(max(duration, 300.0), 6.0 * mean_duration_s)
        arrivals.append(
            JobArrival(
                job_id=f"job-{index:05d}",
                model=rng.choices(names, weights=weights)[0],
                num_gpus=rng.choice(_GPU_CHOICES),
                duration_s=round(duration, 3),
                submit_s=round(submit, 3),
                priority=rng.choice(_PRIORITY_CHOICES),
            )
        )
    return Trace(kind=kind, seed=seed, arrivals=tuple(arrivals))
