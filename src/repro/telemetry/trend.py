"""Run summaries, the committed trend store, and noise-aware comparison.

A :class:`RunSummary` is one run's timing events collapsed into comparable
per-``(source, task, stage, metric)`` samples — ``best`` (the robust
statistic for timings), ``mean``, and ``count``.  A :class:`TrendStore` is
a directory of committed summaries (``benchmarks/trend/<run-id>.json`` in
this repo), which is what turns every journaled CI run into regression
evidence the next run can be compared against.

Comparison is deliberately noise-aware, because the evidence comes from
shared CI runners:

* **best-of-N baselines** — the baseline value for a series is the best
  over the last N committed runs, so one slow baseline run cannot make
  everything after it look like an improvement (or mask a regression);
* **per-metric relative thresholds** — wall-clock ``elapsed_s`` gates at
  2x (runners vary), every other metric at 1.5x; callers can override per
  metric;
* **direction-aware** — ``elapsed_s`` regresses upward, a fleet run's
  ``completed``/``slo_attainment``/``utilization`` (and any ``*_per_s``
  rate) regress downward;
* **absolute noise floor** — sub-``min_elapsed_s`` timings (scheduler
  jitter territory) are never regressions; they stay in the table but
  classify as within-band.

The result is a :class:`TrendComparison` whose regressions *name the
offending task and stage* — "``batch/fig11/task`` elapsed_s 0.42 → 1.31
(3.1x > 2.0x)" — which is the whole point: CI should say which experiment
moved, not "the suite got slower".
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TelemetryError, is_int, strict_keys
from repro.telemetry.events import TimingEvent

#: summary file format — bump to invalidate every committed summary
SUMMARY_SCHEMA = 1

#: metrics where larger values are better (everything else regresses up):
#: a fleet result's completed jobs, SLO attainment and utilization
HIGHER_IS_BETTER = ("completed", "slo_attainment", "utilization")

#: default per-metric regression thresholds (current/baseline ratio in the
#: bad direction).  Wall clock gates loosest: shared runners are noisy.
DEFAULT_THRESHOLDS = {"elapsed_s": 2.0}

#: fallback threshold for metrics not named above
DEFAULT_THRESHOLD = 1.5

#: wall-clock samples where baseline AND current sit under this many
#: seconds are scheduler jitter, never regressions
DEFAULT_MIN_ELAPSED_S = 0.05

#: how many committed runs the best-of-N baseline draws from
DEFAULT_BASELINE_RUNS = 5

_STATUSES = ("regression", "improvement", "within", "new", "missing")


def higher_is_better(metric: str) -> bool:
    """Direction of ``metric`` (throughput-style metrics regress down)."""
    return metric in HIGHER_IS_BETTER or metric.endswith("_per_s")


def threshold_for(
    metric: str, overrides: Optional[Mapping[str, float]] = None
) -> float:
    """The regression threshold for ``metric`` (ratio in the bad
    direction; must be > 1)."""
    table = dict(DEFAULT_THRESHOLDS)
    table.update(overrides or {})
    value = float(table.get(metric, DEFAULT_THRESHOLD))
    if value <= 1.0:
        raise TelemetryError(
            f"threshold for {metric!r} must be > 1, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class MetricSample:
    """One comparable scalar series from one run."""

    source: str
    task: str
    stage: str
    metric: str
    best: float
    mean: float
    count: int
    outcome: str = "ok"
    attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("source", "task", "stage", "metric"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise TelemetryError(
                    f"sample {name} must be a non-empty string, got {value!r}"
                )
        if not is_int(self.count) or self.count < 1:
            raise TelemetryError(
                f"sample count must be a positive int, got {self.count!r}"
            )

    @property
    def key(self) -> str:
        return f"{self.source}/{self.task}/{self.stage}/{self.metric}"

    @property
    def series(self) -> str:
        """The key without the metric (names the task + stage)."""
        return f"{self.source}/{self.task}/{self.stage}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "task": self.task,
            "stage": self.stage,
            "metric": self.metric,
            "best": self.best,
            "mean": self.mean,
            "count": self.count,
            "outcome": self.outcome,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricSample":
        return cls(**strict_keys(cls, data, TelemetryError))


@dataclass(frozen=True)
class RunSummary:
    """One run's samples, as committed to the trend store."""

    run_id: str
    recorded_at: Optional[float] = None
    meta: Mapping[str, str] = field(default_factory=dict)
    samples: Tuple[MetricSample, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.run_id, str) or not self.run_id.strip():
            raise TelemetryError(
                f"run_id must be a non-empty string, got {self.run_id!r}"
            )
        object.__setattr__(
            self,
            "samples",
            tuple(sorted(self.samples, key=lambda s: s.key)),
        )
        object.__setattr__(self, "meta", dict(self.meta))
        for sample in self.samples:
            if not isinstance(sample, MetricSample):
                raise TelemetryError(
                    f"samples must hold MetricSamples, got {sample!r}"
                )

    def by_key(self) -> Dict[str, MetricSample]:
        return {sample.key: sample for sample in self.samples}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SUMMARY_SCHEMA,
            "run_id": self.run_id,
            "recorded_at": self.recorded_at,
            "meta": dict(self.meta),
            "samples": [sample.to_dict() for sample in self.samples],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSummary":
        payload = dict(data)
        version = payload.pop("schema_version", SUMMARY_SCHEMA)
        if version != SUMMARY_SCHEMA:
            raise TelemetryError(
                f"unsupported summary schema {version!r} "
                f"(this build reads {SUMMARY_SCHEMA})"
            )
        strict_keys(cls, payload, TelemetryError)
        payload["samples"] = tuple(
            MetricSample.from_dict(s) for s in payload.get("samples", ())
        )
        return cls(**payload)


def summarize_events(
    events: Sequence[TimingEvent],
    run_id: str,
    recorded_at: Optional[float] = None,
    meta: Optional[Mapping[str, str]] = None,
    include_cached: bool = False,
) -> RunSummary:
    """Collapse timing events into one run's comparable samples.

    Only ``ok`` events contribute timing samples — a failed task's wall
    time measures the failure path, not the work — and cache-replayed
    events are skipped unless ``include_cached`` (a cache hit's stamp is
    bookkeeping, not a measurement).  Multiple events on the same series
    (e.g. many serve jobs with the same content label) aggregate to
    best / mean / count.
    """
    buckets: Dict[Tuple[str, str], List[Tuple[float, TimingEvent]]] = {}
    for event in events:
        if event.outcome != "ok":
            continue
        if event.cached and not include_cached:
            continue
        for metric, value in event.metric_values().items():
            buckets.setdefault((event.key, metric), []).append((value, event))
    samples = []
    for (series, metric), entries in buckets.items():
        values = [value for value, _ in entries]
        best = (
            max(values) if higher_is_better(metric) else min(values)
        )
        event = entries[0][1]
        samples.append(MetricSample(
            source=event.source,
            task=event.task,
            stage=event.stage,
            metric=metric,
            best=best,
            mean=sum(values) / len(values),
            count=len(values),
            outcome="ok",
            attempts=max(e.attempts for _, e in entries),
        ))
    return RunSummary(
        run_id=run_id,
        recorded_at=time.time() if recorded_at is None else recorded_at,
        meta=meta or {},
        samples=tuple(samples),
    )


# ---------------------------------------------------------------------------
# the committed trend store
# ---------------------------------------------------------------------------

_RUN_FILE_SUFFIX = ".json"


class TrendStore:
    """A directory of committed run summaries (one JSON file per run).

    The repo's store lives at ``benchmarks/trend/``; CI smoke jobs write
    throwaway stores in their workspace.  Files are written with sorted
    keys and a trailing newline so committed summaries diff cleanly.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, run_id: str) -> str:
        if (
            not isinstance(run_id, str)
            or not run_id.strip()
            or os.sep in run_id
            or run_id.startswith(".")
        ):
            raise TelemetryError(f"invalid trend run id {run_id!r}")
        return os.path.join(self.root, f"{run_id}{_RUN_FILE_SUFFIX}")

    def record(self, summary: RunSummary) -> str:
        """Write ``summary`` to the store; returns the file path."""
        path = self.path(summary.run_id)
        os.makedirs(self.root, exist_ok=True)
        blob = json.dumps(summary.to_dict(), indent=2, sort_keys=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            handle.write(blob + "\n")
        os.replace(tmp, path)
        return path

    def load(self, run_id: str) -> RunSummary:
        path = self.path(run_id)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise TelemetryError(f"cannot read trend summary {path}: {exc}")
        return RunSummary.from_dict(payload)

    def run_ids(self) -> List[str]:
        """Committed run ids, oldest first (by recorded_at, then id)."""
        return [summary.run_id for summary in self.summaries()]

    def summaries(self) -> List[RunSummary]:
        """Every committed summary, oldest first."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        loaded = []
        for name in names:
            if not name.endswith(_RUN_FILE_SUFFIX) or name.startswith("."):
                continue
            loaded.append(self.load(name[: -len(_RUN_FILE_SUFFIX)]))
        loaded.sort(key=lambda s: (s.recorded_at or 0.0, s.run_id))
        return loaded

    def baselines(
        self, count: int = DEFAULT_BASELINE_RUNS,
        exclude: Optional[str] = None,
    ) -> List[RunSummary]:
        """The newest ``count`` committed summaries (best-of-N pool),
        excluding ``exclude`` so a recorded run never baselines itself."""
        pool = [
            summary for summary in self.summaries()
            if exclude is None or summary.run_id != exclude
        ]
        return pool[-count:] if count > 0 else pool


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendDelta:
    """One series' movement between the baseline pool and the current run."""

    source: str
    task: str
    stage: str
    metric: str
    status: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    ratio: Optional[float] = None
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise TelemetryError(
                f"delta status must be one of {_STATUSES}, "
                f"got {self.status!r}"
            )

    @property
    def series(self) -> str:
        return f"{self.source}/{self.task}/{self.stage}"

    def describe(self) -> str:
        """One human line naming the task, stage, and delta."""
        if self.status == "new":
            return (
                f"{self.series} {self.metric}: new series "
                f"(current {self.current:g}, no baseline)"
            )
        if self.status == "missing":
            return (
                f"{self.series} {self.metric}: missing from this run "
                f"(baseline {self.baseline:g})"
            )
        arrow = "->"
        return (
            f"{self.series} {self.metric}: {self.baseline:g} {arrow} "
            f"{self.current:g} ({self.ratio:.2f}x vs threshold "
            f"{self.threshold:.2f}x)"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "task": self.task,
            "stage": self.stage,
            "metric": self.metric,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class TrendComparison:
    """The full current-vs-baseline verdict."""

    run_id: str
    baseline_runs: Tuple[str, ...]
    deltas: Tuple[TrendDelta, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "deltas",
            tuple(sorted(
                self.deltas,
                key=lambda d: (d.source, d.task, d.stage, d.metric),
            )),
        )

    def regressions(self) -> List[TrendDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    def improvements(self) -> List[TrendDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in _STATUSES}
        for delta in self.deltas:
            counts[delta.status] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "baseline_runs": list(self.baseline_runs),
            "counts": self.counts(),
            "deltas": [delta.to_dict() for delta in self.deltas],
        }


def compare_summaries(
    current: RunSummary,
    baselines: Sequence[RunSummary],
    thresholds: Optional[Mapping[str, float]] = None,
    min_elapsed_s: float = DEFAULT_MIN_ELAPSED_S,
) -> TrendComparison:
    """Compare ``current`` against the best-of-N ``baselines`` pool.

    With an empty baseline pool every series classifies ``new`` — the
    comparison still renders, it just gates nothing (first run in a fresh
    store).
    """
    baseline_best: Dict[str, MetricSample] = {}
    for summary in baselines:
        for sample in summary.samples:
            seen = baseline_best.get(sample.key)
            if seen is None:
                baseline_best[sample.key] = sample
            elif higher_is_better(sample.metric):
                if sample.best > seen.best:
                    baseline_best[sample.key] = sample
            elif sample.best < seen.best:
                baseline_best[sample.key] = sample
    deltas = []
    current_keys = current.by_key()
    for key, sample in current_keys.items():
        threshold = threshold_for(sample.metric, thresholds)
        base = baseline_best.get(key)
        if base is None:
            deltas.append(TrendDelta(
                source=sample.source, task=sample.task, stage=sample.stage,
                metric=sample.metric, status="new", current=sample.best,
            ))
            continue
        if higher_is_better(sample.metric):
            # express the ratio in the bad direction either way, so a
            # ratio above the threshold is always "worse"
            ratio = (
                base.best / sample.best if sample.best > 0 else float("inf")
            )
        else:
            ratio = (
                sample.best / base.best if base.best > 0 else float("inf")
            )
        status = "within"
        if ratio >= threshold:
            status = "regression"
        elif ratio <= 1.0 / threshold:
            status = "improvement"
        if (
            sample.metric == "elapsed_s"
            and status != "within"
            and sample.best < min_elapsed_s
            and base.best < min_elapsed_s
        ):
            status = "within"  # both sides under the jitter floor
        deltas.append(TrendDelta(
            source=sample.source, task=sample.task, stage=sample.stage,
            metric=sample.metric, status=status, baseline=base.best,
            current=sample.best, ratio=ratio, threshold=threshold,
        ))
    # a series is "missing" only when its *source* reported this run at
    # all — a batch-only gate run is not missing the fleet baselines
    current_sources = {sample.source for sample in current.samples}
    for key, base in baseline_best.items():
        if key in current_keys or base.source not in current_sources:
            continue
        deltas.append(TrendDelta(
            source=base.source, task=base.task, stage=base.stage,
            metric=base.metric, status="missing", baseline=base.best,
        ))
    return TrendComparison(
        run_id=current.run_id,
        baseline_runs=tuple(s.run_id for s in baselines),
        deltas=tuple(deltas),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_TREND_MARKS = {
    "regression": "⬆ regression",
    "improvement": "⬇ improvement",
    "within": "—",
    "new": "new",
    "missing": "**missing**",
}

#: a markdown table stops listing within-band rows past this many deltas
_MARKDOWN_ROW_BUDGET = 60


def render_markdown(
    comparison: TrendComparison, title: str = "Run telemetry trend"
) -> str:
    """GitHub-flavoured markdown for ``$GITHUB_STEP_SUMMARY``."""
    counts = comparison.counts()
    baselines = (
        ", ".join(f"`{r}`" for r in comparison.baseline_runs) or "none"
    )
    lines = [
        f"### {title}",
        "",
        f"Run `{comparison.run_id}` vs best-of-N baseline ({baselines}): "
        f"**{counts['regression']} regression(s)**, "
        f"{counts['improvement']} improvement(s), {counts['within']} "
        f"within band, {counts['new']} new, {counts['missing']} missing.",
        "",
    ]
    deltas = list(comparison.deltas)
    listed = [d for d in deltas if d.status != "within"]
    if len(deltas) <= _MARKDOWN_ROW_BUDGET:
        listed = deltas
    if listed:
        lines.append(
            "| source | task | stage | metric | baseline | current | "
            "ratio | trend |"
        )
        lines.append("|---|---|---|---|---:|---:|---:|---|")
        for delta in listed:
            baseline = (
                f"{delta.baseline:g}" if delta.baseline is not None else "—"
            )
            current = (
                f"{delta.current:g}" if delta.current is not None else "—"
            )
            ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "—"
            lines.append(
                f"| {delta.source} | {delta.task} | {delta.stage} "
                f"| {delta.metric} | {baseline} | {current} | {ratio} "
                f"| {_TREND_MARKS[delta.status]} |"
            )
    if len(deltas) > _MARKDOWN_ROW_BUDGET:
        lines.append("")
        lines.append(
            f"({counts['within']} within-band series not listed.)"
        )
    lines.append("")
    return "\n".join(lines)


def render_history(
    summaries: Sequence[RunSummary], metric: Optional[str] = None
) -> Dict[str, Any]:
    """The long-run trend payload: every series' value per committed run.

    Deterministic given the store contents (sorted series, run order by
    ``recorded_at``), which is what makes ``repro trend report --json``
    byte-stable.
    """
    run_ids = [summary.run_id for summary in summaries]
    series: Dict[str, Dict[str, Any]] = {}
    for position, summary in enumerate(summaries):
        for sample in summary.samples:
            if metric is not None and sample.metric != metric:
                continue
            entry = series.setdefault(sample.key, {
                "source": sample.source,
                "task": sample.task,
                "stage": sample.stage,
                "metric": sample.metric,
                "values": [None] * len(run_ids),
            })
            entry["values"][position] = sample.best
    return {
        "runs": run_ids,
        "series": [series[key] for key in sorted(series)],
    }
