"""The unified timing-event schema — run → task → stage, one record shape.

Three subsystems already measure themselves: the batch tier journals one
terminal line per task (:class:`~repro.batch.journal.BatchJournal`), the
serve tier persists per-stage :class:`~repro.serve.records.StageEvent`
telemetry through its :class:`~repro.serve.records.JobLogIndex`, and a
fleet run returns a :class:`~repro.fleet.result.FleetResult`.  Each speaks
its own dialect.  This module flattens all three into one frozen,
dict-round-trippable :class:`TimingEvent`:

* ``source`` — which subsystem measured it (``batch``/``serve``/``fleet``);
* ``run_id`` — the run the event belongs to (journal run id, spool name,
  fleet trace);
* ``task`` — the unit of work: an experiment label (``fig11``), a job's
  content label (``RM1 x8192/4``), or a fleet model / pool;
* ``stage`` — where inside the task: the batch tier's whole-task
  ``"task"`` stage, a pipeline stage (``extract``/``transform``), the
  serve tier's whole-job ``"job"`` rollup, or a fleet phase;
* ``elapsed_s``/``attempts``/``outcome`` — the measurement itself, plus
  auxiliary ``metrics`` (``utilization``, ``slo_attainment``, ...);
* ``cached`` — the timing is a replay stamp, not a measurement (a batch
  result prefilled from the RunStore or the journal).  Trend summaries
  skip cached events so a cache hit can never masquerade as a 1000x
  speedup.

The extractors (`events_from_batch_journal`, `events_from_job_index`,
`events_from_fleet_result`) are read-only: they parse the artifacts the
subsystems already write — no subsystem grows a telemetry dependency.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import TelemetryError, is_int, strict_keys

#: every subsystem that can emit timing events
EVENT_SOURCES = ("batch", "serve", "fleet")

#: every outcome a timing event can carry.  ``ok`` timings feed trend
#: comparison; the rest are kept for attribution (a task that flipped
#: from ok to failed should be visible, not silently absent).
EVENT_OUTCOMES = ("ok", "failed", "timeout", "interrupted", "cancelled",
                  "skipped")

#: the batch tier times whole tasks, not stages — this is its stage name
TASK_STAGE = "task"
#: the serve tier's whole-job rollup stage (submit -> terminal)
JOB_STAGE = "job"

#: serve job/stage statuses -> event outcomes
_SERVE_OUTCOMES = {
    "completed": "ok",
    "failed": "failed",
    "cancelled": "cancelled",
    "interrupted": "interrupted",
    "skipped": "skipped",
}


@dataclass(frozen=True)
class TimingEvent:
    """One structured timing measurement (see module docstring)."""

    source: str
    run_id: str
    task: str
    stage: str
    outcome: str
    elapsed_s: Optional[float] = None
    attempts: int = 1
    cached: bool = False
    at: Optional[float] = None
    metrics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.source not in EVENT_SOURCES:
            raise TelemetryError(
                f"event source must be one of {EVENT_SOURCES}, "
                f"got {self.source!r}"
            )
        for name in ("run_id", "task", "stage"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise TelemetryError(
                    f"event {name} must be a non-empty string, got {value!r}"
                )
        if self.outcome not in EVENT_OUTCOMES:
            raise TelemetryError(
                f"event outcome must be one of {EVENT_OUTCOMES}, "
                f"got {self.outcome!r}"
            )
        if self.elapsed_s is not None:
            if (
                not isinstance(self.elapsed_s, (int, float))
                or isinstance(self.elapsed_s, bool)
                or self.elapsed_s < 0
            ):
                raise TelemetryError(
                    f"event elapsed_s must be a non-negative number or None, "
                    f"got {self.elapsed_s!r}"
                )
            object.__setattr__(self, "elapsed_s", float(self.elapsed_s))
        if not is_int(self.attempts) or self.attempts < 0:
            raise TelemetryError(
                f"event attempts must be a non-negative int, "
                f"got {self.attempts!r}"
            )
        metrics = dict(self.metrics)
        for name, value in metrics.items():
            if not isinstance(name, str) or not name.strip():
                raise TelemetryError(
                    f"metric names must be non-empty strings, got {name!r}"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TelemetryError(
                    f"metric {name!r} must be a number, got {value!r}"
                )
        object.__setattr__(self, "metrics", metrics)

    @property
    def key(self) -> str:
        """The comparable series this event contributes to."""
        return f"{self.source}/{self.task}/{self.stage}"

    def metric_values(self) -> Dict[str, float]:
        """Every comparable scalar: ``elapsed_s`` (when timed) + metrics."""
        values: Dict[str, float] = {}
        if self.elapsed_s is not None:
            values["elapsed_s"] = self.elapsed_s
        values.update(self.metrics)
        return values

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "run_id": self.run_id,
            "task": self.task,
            "stage": self.stage,
            "outcome": self.outcome,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
            "cached": self.cached,
            "at": self.at,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimingEvent":
        return cls(**strict_keys(cls, data, TelemetryError))


# ---------------------------------------------------------------------------
# extractors
# ---------------------------------------------------------------------------


def events_from_batch_journal(
    path: str, run_id: Optional[str] = None
) -> List[TimingEvent]:
    """Timing events from one batch run journal (one per terminal task line).

    ``task`` is the journaled human label (``fig11``) when present — older
    journals written before labels were stamped fall back to the content
    key.  Cache-prefilled completions (``attempts == 0`` or an explicit
    ``cached`` stamp) come back with ``cached=True`` so trend summaries
    can skip them.
    """
    from repro.batch.journal import BatchJournal

    journal = BatchJournal(path)
    state = journal.load()
    resolved = (
        state.run_id or run_id
        or os.path.splitext(os.path.basename(path))[0]
    )
    events = []
    for index in sorted(state.outcomes):
        line = state.outcomes[index]
        attempts = int(line.get("attempts") or 0)
        elapsed = line.get("elapsed_s")
        events.append(TimingEvent(
            source="batch",
            run_id=resolved,
            task=str(line.get("label") or line.get("key")),
            stage=TASK_STAGE,
            outcome=str(line.get("status")),
            elapsed_s=float(elapsed) if elapsed is not None else None,
            attempts=attempts,
            cached=bool(line.get("cached")) or attempts == 0,
            at=line.get("at"),
        ))
    return events


def events_from_job_index(
    path: str, run_id: Optional[str] = None
) -> List[TimingEvent]:
    """Timing events from a serve-tier job index (jobs.jsonl).

    Each job contributes one event per recorded pipeline stage
    (``generate``/``partition``/``extract``/``transform``/...) plus one
    whole-job ``"job"`` rollup (submit -> terminal wall time).  ``task``
    is the job's *content* label (model x rows/shards), not its job id —
    job ids are unique per run and would never line up across runs.
    Non-terminal records (a live daemon's queued/running jobs) are
    skipped; they have nothing to time yet.
    """
    from repro.serve.records import JobLogIndex

    if not os.path.exists(path):
        raise TelemetryError(f"serve job index {path} does not exist")
    resolved = run_id or os.path.basename(
        os.path.dirname(os.path.abspath(path))
    ) or "serve"
    events = []
    for record in JobLogIndex(path).load():
        outcome = _SERVE_OUTCOMES.get(record.state)
        if outcome is None:
            continue  # queued/running: still in flight
        task = record.job.label
        for stage_event in record.stages:
            stage_outcome = _SERVE_OUTCOMES.get(
                stage_event.status,
                "ok" if stage_event.status == "completed" else None,
            )
            if stage_outcome is None:
                continue  # "started" markers carry no timing
            events.append(TimingEvent(
                source="serve",
                run_id=resolved,
                task=task,
                stage=stage_event.stage,
                outcome=stage_outcome,
                elapsed_s=stage_event.elapsed_s,
                attempts=record.attempts,
                at=stage_event.at,
                metrics=dict(stage_event.metrics),
            ))
        job_elapsed = None
        if record.completed_at is not None and record.started_at is not None:
            job_elapsed = max(0.0, record.completed_at - record.started_at)
        events.append(TimingEvent(
            source="serve",
            run_id=resolved,
            task=task,
            stage=JOB_STAGE,
            outcome=outcome,
            elapsed_s=job_elapsed,
            attempts=record.attempts,
            at=record.completed_at,
        ))
    return events


def events_from_fleet_result(
    result: Union[str, Mapping[str, Any], Any], run_id: Optional[str] = None
) -> List[TimingEvent]:
    """Timing events from a fleet run (a FleetResult, its dict, or a JSON
    file holding one).

    Delegates to :meth:`~repro.fleet.result.FleetResult.telemetry_events`:
    per-job ``queue``/``run`` events keyed by model, per-pool ``capacity``
    events carrying the utilization/energy/cost metrics, and one
    whole-run ``fleet/run`` rollup.
    """
    from repro.fleet.result import FleetResult

    if isinstance(result, str):
        try:
            with open(result) as handle:
                result = json.load(handle)
        except (OSError, ValueError) as exc:
            raise TelemetryError(f"cannot read fleet result {result}: {exc}")
    if isinstance(result, Mapping):
        try:
            result = FleetResult.from_dict(result)
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed fleet result payload: {exc}")
    if not isinstance(result, FleetResult):
        raise TelemetryError(
            f"expected a FleetResult, its dict, or a JSON path, "
            f"got {result!r}"
        )
    resolved = run_id or f"fleet-{result.trace_kind}-{result.trace_seed}"
    return result.telemetry_events(resolved)


def collect_events(
    batch_journals: Tuple[str, ...] = (),
    serve_indexes: Tuple[str, ...] = (),
    fleet_results: Tuple[str, ...] = (),
    run_id: Optional[str] = None,
) -> List[TimingEvent]:
    """Extract and concatenate events from any mix of the three sources."""
    events: List[TimingEvent] = []
    for path in batch_journals:
        events.extend(events_from_batch_journal(path, run_id=run_id))
    for path in serve_indexes:
        events.extend(events_from_job_index(path, run_id=run_id))
    for path in fleet_results:
        events.extend(events_from_fleet_result(path, run_id=run_id))
    return events
