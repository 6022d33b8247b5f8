"""Job lifecycle records — the service's source of truth.

Every job the streaming service touches is described by one frozen,
dict-round-trippable :class:`JobRecord`: which :class:`PreprocessJob` was
asked for, where it came from (``source``), where it stands
(queued/running/completed/failed/cancelled), when it moved
(``submitted_at``/``started_at``/``completed_at``), how often it was tried,
the per-stage :class:`StageEvent` telemetry, and — once finished — the
minibatch content digest that makes the service's central guarantee
checkable (``repro submit --wait`` digests match ``repro preprocess
--serial`` byte for byte).

Records are immutable; every transition produces a new record via the
``mark_*`` helpers, and :class:`JobLogIndex` appends each transition to a
JSONL index next to the spool directory (last line per job wins, most
recently completed first on load) so a restarted or external process can
reconstruct the full lifecycle without talking to the daemon.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.preprocess import PreprocessJob
from repro.errors import ReproError, ServeError, as_tuple, is_int, strict_keys
from repro.journal import JsonlJournal

#: every state a job can be in; the last three are terminal.  "interrupted"
#: marks a job a dead daemon left queued/running — a restarted service
#: re-enqueues it, so it is explicitly non-terminal.
JOB_STATES = (
    "queued", "running", "interrupted", "completed", "failed", "cancelled"
)
TERMINAL_STATES = ("completed", "failed", "cancelled")

#: every status a pipeline stage event can carry
STAGE_STATUSES = ("started", "completed", "failed", "skipped")


@dataclass(frozen=True)
class StageEvent:
    """One structured telemetry event for one pipeline stage.

    ``failed`` events must carry error details; ``skipped`` records a stage
    that never ran because an earlier one failed — it is written explicitly
    rather than left absent, so a record's stage list always names the full
    pipeline.
    """

    stage: str
    status: str
    at: float  # unix timestamp of the event
    elapsed_s: Optional[float] = None
    metrics: Mapping[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.stage, str) or not self.stage.strip():
            raise ServeError("stage must be a non-empty string")
        if self.status not in STAGE_STATUSES:
            raise ServeError(
                f"stage status must be one of {STAGE_STATUSES}, "
                f"got {self.status!r}"
            )
        if self.status == "failed" and not self.error:
            raise ServeError("failed stage events must include error details")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "status": self.status,
            "at": self.at,
            "elapsed_s": self.elapsed_s,
            "metrics": dict(self.metrics),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageEvent":
        return cls(**strict_keys(cls, data, ServeError))


@dataclass(frozen=True)
class JobRecord:
    """The full lifecycle of one service job (immutable snapshot)."""

    job_id: str
    job: PreprocessJob
    source: str = "client"
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    attempts: int = 0
    stages: Tuple[StageEvent, ...] = ()
    digest: Optional[str] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id.strip():
            raise ServeError("job_id must be a non-empty string")
        if not isinstance(self.job, PreprocessJob):
            raise ServeError(f"job must be a PreprocessJob, got {self.job!r}")
        if self.state not in JOB_STATES:
            raise ServeError(
                f"state must be one of {JOB_STATES}, got {self.state!r}"
            )
        if not is_int(self.attempts) or self.attempts < 0:
            raise ServeError(
                f"attempts must be a non-negative int, got {self.attempts!r}"
            )
        if self.state == "failed" and not self.error:
            raise ServeError("failed jobs must include error details")
        if self.state == "completed" and not self.digest:
            raise ServeError("completed jobs must include the output digest")
        object.__setattr__(
            self, "stages", as_tuple(self.stages, "stages", ServeError)
        )
        for event in self.stages:
            if not isinstance(event, StageEvent):
                raise ServeError(f"stages must hold StageEvents, got {event!r}")

    # -- state ---------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        """Whether this record can never transition again."""
        return self.state in TERMINAL_STATES

    # -- transitions (functional updates) ------------------------------------

    def mark_running(self, at: float) -> "JobRecord":
        """One more attempt starts executing now."""
        return dataclasses.replace(
            self,
            state="running",
            started_at=self.started_at if self.started_at is not None else at,
            attempts=self.attempts + 1,
        )

    def mark_completed(self, at: float, digest: str) -> "JobRecord":
        return dataclasses.replace(
            self, state="completed", completed_at=at, digest=digest, error=None
        )

    def mark_failed(self, at: float, error: str) -> "JobRecord":
        return dataclasses.replace(
            self, state="failed", completed_at=at, error=error
        )

    def mark_cancelled(self, at: float, reason: Optional[str] = None) -> "JobRecord":
        return dataclasses.replace(
            self, state="cancelled", completed_at=at, error=reason
        )

    def mark_interrupted(self, at: float) -> "JobRecord":
        """A daemon died while this job was queued or running.

        Interrupted is *not* terminal: recovery re-enqueues the job, and
        ``mark_running`` on the re-enqueued record keeps the original
        ``submitted_at``/``attempts`` history.
        """
        return dataclasses.replace(
            self,
            state="interrupted",
            error=f"daemon exited at {at:.3f} with this job in flight",
        )

    def with_stage(self, event: StageEvent) -> "JobRecord":
        """Append one stage telemetry event."""
        return dataclasses.replace(self, stages=self.stages + (event,))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (round-trips via :meth:`from_dict`)."""
        return {
            "job_id": self.job_id,
            "job": self.job.to_dict(),
            "source": self.source,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "attempts": self.attempts,
            "stages": [event.to_dict() for event in self.stages],
            "digest": self.digest,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output (strict keys)."""
        payload = strict_keys(cls, data, ServeError)
        payload["job"] = PreprocessJob.from_dict(payload["job"])
        stages = as_tuple(payload.get("stages", ()), "stages", ServeError)
        payload["stages"] = tuple(map(StageEvent.from_dict, stages))
        return cls(**payload)


#: the index compacts once it holds more lines than this, and more than
#: :data:`COMPACT_RATIO` lines per distinct job
COMPACT_MIN_LINES = 512
COMPACT_RATIO = 8.0


def _completion_key(record: JobRecord) -> float:
    """Most recent activity: completion, else start, else submission."""
    for stamp in (record.completed_at, record.started_at, record.submitted_at):
        if stamp is not None:
            return stamp
    return 0.0


class JobLogIndex:
    """Append-only JSONL index of job transitions next to the spool dir.

    One line per transition; on load the last line per ``job_id`` wins and
    records come back ordered by most recent completion first (the
    ingestion-log-index convention).  A torn final line — a daemon killed
    mid-append — is tolerated; corruption anywhere else is a loud
    :class:`~repro.errors.ServeError`, never a silent skip.

    ``fsync=True`` makes every append durable (flush + ``os.fsync``) —
    the daemon path turns this on so a completed job's digest survives a
    host crash; the default stays off for tests and throwaway spools.

    A failed append (torn write, disk full) is *healed* on the next
    successful one: the index remembers the pre-write size and truncates
    back to it before writing, so a half-line never becomes loud interior
    corruption once more lines land after it.

    The index also self-bounds: every transition appends a line, so a
    long-lived daemon's index grows without limit unless compacted.
    :meth:`maybe_compact` rewrites the file down to the latest record per
    job once the line count exceeds :data:`COMPACT_RATIO` times the distinct
    job count (and :data:`COMPACT_MIN_LINES`, so small spools never churn).
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.compactions = 0
        self._lock = threading.Lock()
        # the file mechanics — torn-tail healing, fsync, fault probes,
        # atomic rewrite — live in the shared JsonlJournal core
        self._journal = JsonlJournal(path, fsync=fsync)
        self._jobs: set = set()  # distinct job_ids appended this process

    @property
    def fsync(self) -> bool:
        return self._journal.fsync

    def append(self, record: JobRecord) -> None:
        """Durably append one transition (thread-safe).

        With ``fsync`` on, the line is flushed and fsynced before this
        returns; otherwise durability is left to the OS page cache.
        """
        line = json.dumps(record.to_dict(), sort_keys=True)
        with self._lock:
            self._journal.append(line, job_id=record.job_id)
            self._jobs.add(record.job_id)

    def load(self) -> List[JobRecord]:
        """Latest record per job, most recently completed first."""
        with self._lock:
            return self._load_locked()

    def _load_locked(self) -> List[JobRecord]:
        latest: Dict[str, JobRecord] = {}
        for number, text, complete in self._journal.read():
            try:
                payload = json.loads(text.decode("utf-8"))
                record = JobRecord.from_dict(payload)
            except (ValueError, ReproError) as exc:
                if not complete:
                    continue  # torn final append from a killed daemon
                raise ServeError(
                    f"corrupt job index {self.path} at line {number}: {exc}"
                )
            latest[record.job_id] = record
        return sorted(latest.values(), key=_completion_key, reverse=True)

    # -- compaction ----------------------------------------------------------

    def should_compact(self) -> bool:
        """Whether the line count warrants a rewrite (cheap, in-memory)."""
        jobs = max(1, len(self._jobs))
        return self._journal.lines >= max(
            COMPACT_MIN_LINES, int(COMPACT_RATIO * jobs)
        )

    def maybe_compact(self) -> bool:
        """Compact if :meth:`should_compact`; returns whether it ran."""
        with self._lock:
            if not self.should_compact():
                return False
            self._compact_locked()
            return True

    def compact(self) -> int:
        """Rewrite the index down to one line per job; returns lines kept.

        Atomic: the compacted index is written to a temp file in the same
        directory, fsynced, and ``os.replace``d over the original — a
        crash mid-compaction leaves the old index intact.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        records = self._load_locked()
        records.sort(key=_completion_key)  # oldest first, append order
        self._journal.rewrite(
            [json.dumps(record.to_dict(), sort_keys=True) for record in records]
        )
        self._jobs = {record.job_id for record in records}
        self.compactions += 1
        return len(records)
