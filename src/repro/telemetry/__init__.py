"""Structured run telemetry: one timing-event schema over the batch
journal, the serve job index, and fleet simulation results, plus the
committed trend store and noise-aware regression comparison behind
``repro trend`` (see ``docs/telemetry.md``)."""

from repro.telemetry.events import (
    EVENT_OUTCOMES,
    EVENT_SOURCES,
    JOB_STAGE,
    TASK_STAGE,
    TimingEvent,
    collect_events,
    events_from_batch_journal,
    events_from_fleet_result,
    events_from_job_index,
)
from repro.telemetry.trend import (
    DEFAULT_BASELINE_RUNS,
    DEFAULT_MIN_ELAPSED_S,
    DEFAULT_THRESHOLD,
    DEFAULT_THRESHOLDS,
    HIGHER_IS_BETTER,
    SUMMARY_SCHEMA,
    MetricSample,
    RunSummary,
    TrendComparison,
    TrendDelta,
    TrendStore,
    compare_summaries,
    higher_is_better,
    render_history,
    render_markdown,
    summarize_events,
    threshold_for,
)

__all__ = [
    "EVENT_OUTCOMES",
    "EVENT_SOURCES",
    "JOB_STAGE",
    "TASK_STAGE",
    "TimingEvent",
    "collect_events",
    "events_from_batch_journal",
    "events_from_fleet_result",
    "events_from_job_index",
    "DEFAULT_BASELINE_RUNS",
    "DEFAULT_MIN_ELAPSED_S",
    "DEFAULT_THRESHOLD",
    "DEFAULT_THRESHOLDS",
    "HIGHER_IS_BETTER",
    "SUMMARY_SCHEMA",
    "MetricSample",
    "RunSummary",
    "TrendComparison",
    "TrendDelta",
    "TrendStore",
    "compare_summaries",
    "higher_is_better",
    "render_history",
    "render_markdown",
    "summarize_events",
    "threshold_for",
]
