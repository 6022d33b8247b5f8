"""Crash-safe, resumable batch execution — the tier behind Sweep/report.

See :mod:`repro.batch.runner` for the execution model,
:mod:`repro.batch.journal` for the per-run JSONL journal and resume
semantics, :mod:`repro.batch.policy` for the retry/timeout/failure-mode
knobs, and :mod:`repro.batch.outcomes` for the per-task records.
"""

from repro.batch.journal import BatchJournal, BatchJournalState, content_key
from repro.batch.outcomes import OUTCOME_STATES, BatchOutcome
from repro.batch.policy import FAILURE_MODES, BatchPolicy
from repro.batch.runner import BatchRunner

__all__ = [
    "BatchJournal",
    "BatchJournalState",
    "BatchOutcome",
    "BatchPolicy",
    "BatchRunner",
    "FAILURE_MODES",
    "OUTCOME_STATES",
    "content_key",
]
