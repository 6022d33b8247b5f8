"""Crash-safe, resumable batch execution — the tier behind Sweep/report.

See :mod:`repro.batch.runner` for the execution model,
:mod:`repro.batch.journal` for the per-run JSONL journal and resume
semantics, :mod:`repro.batch.policy` for the retry/timeout/failure-mode
knobs, and :mod:`repro.batch.outcomes` for the per-task records.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.batch.journal": (
        "BatchJournal", "BatchJournalState", "content_key",
    ),
    "repro.batch.outcomes": ("OUTCOME_STATES", "BatchOutcome"),
    "repro.batch.policy": ("FAILURE_MODES", "BatchPolicy"),
    "repro.batch.runner": ("BatchRunner",),
})

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
