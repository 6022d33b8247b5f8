"""Per-run batch journals — the crash-safe record every batch run writes.

A :class:`BatchJournal` is a JSONL file (one per run id, under
``<store root>/batch/`` by default) built on the shared
:class:`~repro.journal.JsonlJournal` core, so it inherits the serve
tier's torn-tail healing, fsync durability, atomic rewrite, and
``disk-full``/``torn-write`` fault probes.  Line shapes:

* ``{"type": "run", "run_id", "tasks": [key, ...], "policy": {...}}`` —
  the header, written once per fresh run.  ``tasks`` pins the batch's
  content digests *positionally*, which is what lets resume verify it is
  replaying the same batch.
* ``{"type": "task", "index", "key", "status", ...}`` — one line per
  attempt start (``status: "started"``) and one terminal line per task
  (``status`` in :data:`~repro.batch.outcomes.OUTCOME_STATES`); ``ok``
  lines carry the encoded ``result`` payload so a resumed run can return
  byte-identical output without re-running completed tasks.
* ``{"type": "resume"}`` — appended each time a run is resumed; terminal
  lines after the marker supersede earlier ones for the same task.

On :meth:`load`, the last terminal line per task wins; a task with only
``started`` lines was in flight when the writer died and is re-enqueued
by resume.  Corruption anywhere but a torn final line raises a loud
:class:`~repro.errors.BatchError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.batch.outcomes import OUTCOME_STATES, BatchOutcome
from repro.batch.policy import BatchPolicy
from repro.errors import BatchError, is_int
from repro.journal import JsonlJournal

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def content_key(index: int, task: Any) -> str:
    """Content digest of one task's ``to_dict()`` — the identity a journal
    header pins per position, so resume can verify it replays the same batch."""
    return hashlib.sha256(
        json.dumps(task.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class BatchJournalState:
    """Everything :meth:`BatchJournal.load` can reconstruct from disk."""

    run_id: Optional[str]
    keys: Tuple[str, ...]
    policy: Dict[str, Any]
    #: last terminal task line per index (the resume prefill source)
    outcomes: Dict[int, Dict[str, Any]]
    #: indices with at least one ``started`` line (in flight at a crash)
    started: Set[int]
    resumes: int
    #: most terminal lines any one task got within one run segment
    #: (between resume markers); > 1 means duplicated completions —
    #: the chaos invariant the batch tier gates on
    max_terminal_per_segment: int

    def completed(self) -> Set[int]:
        """Indices whose last terminal line is ``ok`` — skipped on resume."""
        return {
            index
            for index, line in self.outcomes.items()
            if line.get("status") == "ok"
        }


class BatchJournal:
    """One run's append-only JSONL journal (see module docstring)."""

    def __init__(self, path: str, run_id: Optional[str] = None,
                 fsync: bool = False) -> None:
        self.run_id = run_id
        self._journal = JsonlJournal(path, fsync=fsync)

    @property
    def path(self) -> str:
        return self._journal.path

    @classmethod
    def default_root(cls) -> str:
        """``<experiment store root>/batch`` — journals live next to the
        RunStore cache they describe."""
        from repro.api.experiment import default_store_root

        return os.path.join(default_store_root(), "batch")

    @classmethod
    def for_run(cls, run_id: str, root: Optional[str] = None,
                fsync: bool = False) -> "BatchJournal":
        """The journal for ``run_id`` under ``root`` (default store root)."""
        if not isinstance(run_id, str) or not _RUN_ID_RE.match(run_id):
            raise BatchError(
                f"run id must match {_RUN_ID_RE.pattern}, got {run_id!r}"
            )
        root = root if root is not None else cls.default_root()
        return cls(os.path.join(root, f"{run_id}.jsonl"),
                   run_id=run_id, fsync=fsync)

    # -- writing -------------------------------------------------------------

    def start_run(self, keys: Sequence[str], policy: BatchPolicy) -> None:
        """Begin a fresh run: the journal is atomically reset to just the
        header, so a stale journal under the same run id never bleeds
        into this run's resume state."""
        header = {
            "type": "run",
            "run_id": self.run_id,
            "tasks": list(keys),
            "policy": policy.to_dict(),
            "at": time.time(),
        }
        self._journal.rewrite([json.dumps(header, sort_keys=True)])

    def mark_resume(self) -> None:
        """Append the resume marker (terminal lines after it supersede)."""
        self._append({"type": "resume", "run_id": self.run_id,
                      "at": time.time()})

    def task_started(self, index: int, key: str, attempt: int) -> None:
        self._append({
            "type": "task",
            "index": index,
            "key": key,
            "status": "started",
            "attempt": attempt,
            "at": time.time(),
        }, item=key)

    def task_done(self, outcome: BatchOutcome,
                  payload: Any = None) -> None:
        """Append one task's terminal line (``ok`` carries the encoded
        result payload so resume can replay it without re-running).

        The line stamps timing consistently for its readers (resume and
        ``benchmarks/claims_summary.py``): ``elapsed_s`` is always a
        float (never null — BatchOutcome enforces it), ``label`` names
        the experiment the way humans do, and ``cached`` marks
        cache-prefilled completions whose 0.0 stamp is bookkeeping, not
        a measurement.
        """
        line = {
            "type": "task",
            "index": outcome.index,
            "key": outcome.key,
            "label": outcome.label,
            "status": outcome.state,
            "attempts": outcome.attempts,
            "elapsed_s": float(outcome.elapsed_s),
            "cached": outcome.cached,
            "error": outcome.error,
            "at": time.time(),
        }
        if outcome.state == "ok":
            line["result"] = payload
        self._append(line, item=outcome.key)

    def _append(self, payload: Dict[str, Any], **fault_context: Any) -> None:
        # No sort_keys: the ``result`` payload must keep its insertion
        # order, or float reductions over replayed dicts (e.g. a result's
        # ``sum(d.values())``) re-associate and resume stops being
        # byte-identical to an uninterrupted run.
        self._journal.append(json.dumps(payload), **fault_context)

    # -- reading -------------------------------------------------------------

    def load(self) -> BatchJournalState:
        """Reconstruct the run's state (last terminal line per task wins)."""
        header: Optional[Dict[str, Any]] = None
        outcomes: Dict[int, Dict[str, Any]] = {}
        started: Set[int] = set()
        resumes = 0
        segment_counts: Dict[int, int] = {}
        max_terminal = 0
        for number, text, complete in self._journal.read():
            if not complete:
                continue  # torn final append from a killed run
            try:
                payload = json.loads(text.decode("utf-8"))
            except ValueError as exc:
                raise BatchError(
                    f"corrupt batch journal {self.path} at line {number}: "
                    f"{exc}"
                )
            if not isinstance(payload, dict):
                raise BatchError(
                    f"corrupt batch journal {self.path} at line {number}: "
                    f"expected an object, got {type(payload).__name__}"
                )
            kind = payload.get("type")
            if kind == "run":
                if header is not None:
                    raise BatchError(
                        f"corrupt batch journal {self.path} at line "
                        f"{number}: duplicate run header"
                    )
                if not isinstance(payload.get("tasks") or [], list) or (
                    not isinstance(payload.get("policy") or {}, dict)
                ):
                    raise BatchError(
                        f"corrupt batch journal {self.path} at line "
                        f"{number}: run header needs a tasks list and a "
                        f"policy object"
                    )
                header = payload
            elif kind == "resume":
                resumes += 1
                segment_counts = {}
            elif kind == "task":
                if header is None:
                    raise BatchError(
                        f"corrupt batch journal {self.path} at line "
                        f"{number}: task line before the run header"
                    )
                index = payload.get("index")
                keys = header.get("tasks") or []
                if not is_int(index) or not (0 <= index < len(keys)):
                    raise BatchError(
                        f"corrupt batch journal {self.path} at line "
                        f"{number}: task index {index!r} out of range"
                    )
                if payload.get("key") != keys[index]:
                    raise BatchError(
                        f"corrupt batch journal {self.path} at line "
                        f"{number}: task key {payload.get('key')!r} does "
                        f"not match header key {keys[index]!r}"
                    )
                status = payload.get("status")
                if status == "started":
                    started.add(index)
                elif status in OUTCOME_STATES:
                    outcomes[index] = payload
                    segment_counts[index] = segment_counts.get(index, 0) + 1
                    max_terminal = max(max_terminal, segment_counts[index])
                else:
                    raise BatchError(
                        f"corrupt batch journal {self.path} at line "
                        f"{number}: unknown task status {status!r}"
                    )
            else:
                raise BatchError(
                    f"corrupt batch journal {self.path} at line {number}: "
                    f"unknown line type {kind!r}"
                )
        if header is None:
            raise BatchError(
                f"batch journal {self.path} has no run header — nothing "
                f"to resume"
            )
        return BatchJournalState(
            run_id=header.get("run_id"),
            keys=tuple(header.get("tasks") or ()),
            policy=dict(header.get("policy") or {}),
            outcomes=outcomes,
            started=started,
            resumes=resumes,
            max_terminal_per_segment=max_terminal,
        )
