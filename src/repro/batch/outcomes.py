"""Per-task outcome records — what the batch runner hands back.

Every task a :class:`~repro.batch.runner.BatchRunner` touches ends in
exactly one frozen :class:`BatchOutcome`: which task (``index`` into the
submitted sequence, content ``key``, human ``label``), how it ended
(``state``), how hard it was tried (``attempts``), how long it took, and
— depending on the state — the result or the error text.  In ``degrade``
mode the full input-ordered outcome list *is* the batch's return value,
which is what lets ``repro report`` render a partial report with failed
experiments explicitly marked instead of dying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import BatchError, is_int

#: every terminal state a batch task can end in.  ``ok`` carries a
#: result; ``failed`` means the task raised and exhausted its retries;
#: ``timeout`` means it blew the wall-clock deadline and its worker was
#: terminated; ``interrupted`` means the worker process died underneath
#: it (OOM kill, SIGKILL, injected crash) — not retried, because the
#: runner cannot know what side effects the dead attempt had.
OUTCOME_STATES = ("ok", "failed", "timeout", "interrupted")


@dataclass(frozen=True)
class BatchOutcome:
    """The terminal record of one batch task."""

    index: int
    key: str
    label: str
    state: str
    attempts: int = 0
    elapsed_s: float = 0.0
    error: Optional[str] = None
    result: Any = None

    def __post_init__(self) -> None:
        if not is_int(self.index) or self.index < 0:
            raise BatchError(
                f"index must be a non-negative int, got {self.index!r}"
            )
        if not isinstance(self.key, str) or not self.key:
            raise BatchError(f"key must be a non-empty string, got {self.key!r}")
        if self.state not in OUTCOME_STATES:
            raise BatchError(
                f"state must be one of {OUTCOME_STATES}, got {self.state!r}"
            )
        if not is_int(self.attempts) or self.attempts < 0:
            raise BatchError(
                f"attempts must be a non-negative int, got {self.attempts!r}"
            )
        if (
            not isinstance(self.elapsed_s, (int, float))
            or isinstance(self.elapsed_s, bool)
            or self.elapsed_s < 0
        ):
            raise BatchError(
                f"elapsed_s must be a non-negative number, "
                f"got {self.elapsed_s!r}"
            )
        object.__setattr__(self, "elapsed_s", float(self.elapsed_s))
        if self.state != "ok" and not self.error:
            raise BatchError(
                f"{self.state} outcomes must include error details"
            )

    @property
    def ok(self) -> bool:
        return self.state == "ok"

    @property
    def cached(self) -> bool:
        """The result came from a cache (RunStore hit or journal replay),
        not from running the task — its ``elapsed_s`` is a bookkeeping
        stamp, never a measurement."""
        return self.attempts == 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for reports and journals.

        Deliberately excludes ``result`` — results can be arbitrary
        objects; the journal stores them separately through the runner's
        ``encode_result`` hook.
        """
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "state": self.state,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
        }
