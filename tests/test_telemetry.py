"""Tests for the structured run-telemetry tier (repro.telemetry):

* ``TimingEvent`` validation and dict round trips;
* the batch-journal and serve-job-index extractors, including label
  fallback for pre-label journals, cached stamps, stage rollups, and loud
  errors on missing/malformed sources;
* ``summarize_events`` aggregation (best/mean/count, direction-aware,
  cached and non-ok filtering);
* ``TrendStore`` record/load round trips, byte-stable files, run-id
  hygiene, and best-of-N baseline selection;
* ``compare_summaries`` threshold/noise logic — regression vs
  improvement vs within-band, direction awareness, the wall-clock noise
  floor, new/missing classification scoped to present sources;
* the ``repro trend`` CLI surface (record/compare/report), including the
  acceptance path: an injected 3x slowdown in one experiment's stage is
  detected and *named* in non-zero-exit output, and ``--json`` output is
  byte-stable across invocations.
"""

import json

import pytest

from repro.api import PreprocessJob
from repro.batch import BatchJournal, BatchOutcome, BatchPolicy
from repro.cli import main
from repro.errors import TelemetryError
from repro.serve.records import JobLogIndex, JobRecord, StageEvent
from repro.telemetry import (
    DEFAULT_THRESHOLDS,
    JOB_STAGE,
    TASK_STAGE,
    MetricSample,
    RunSummary,
    TimingEvent,
    TrendStore,
    compare_summaries,
    events_from_batch_journal,
    events_from_job_index,
    higher_is_better,
    render_history,
    render_markdown,
    summarize_events,
    threshold_for,
)


def make_event(**overrides):
    base = dict(source="batch", run_id="run-1", task="fig11",
                stage=TASK_STAGE, outcome="ok", elapsed_s=0.5, attempts=1)
    base.update(overrides)
    return TimingEvent(**base)


class TestTimingEvent:
    def test_round_trip(self):
        event = make_event(metrics={"utilization": 0.5}, at=100.0)
        assert TimingEvent.from_dict(event.to_dict()) == event

    def test_key_and_metric_values(self):
        event = make_event(metrics={"peak_nodes": 7.0})
        assert event.key == "batch/fig11/task"
        assert event.metric_values() == {"elapsed_s": 0.5, "peak_nodes": 7.0}

    def test_untimed_event_has_no_elapsed_metric(self):
        event = make_event(elapsed_s=None)
        assert event.metric_values() == {}

    def test_elapsed_coerced_to_float(self):
        assert isinstance(make_event(elapsed_s=2).elapsed_s, float)

    @pytest.mark.parametrize("overrides", [
        {"source": "nope"},
        {"run_id": ""},
        {"task": "  "},
        {"stage": ""},
        {"outcome": "exploded"},
        {"elapsed_s": -1.0},
        {"elapsed_s": True},
        {"attempts": -1},
        {"metrics": {"": 1.0}},
        {"metrics": {"x": "fast"}},
        {"source": "bench"},
    ])
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(TelemetryError):
            make_event(**overrides)

    def test_from_dict_rejects_unknown_keys(self):
        payload = make_event().to_dict()
        payload["surprise"] = 1
        with pytest.raises(TelemetryError, match="surprise"):
            TimingEvent.from_dict(payload)


class TestBatchExtraction:
    def _journal(self, tmp_path, outcomes):
        journal = BatchJournal(str(tmp_path / "run.jsonl"), run_id="r1")
        journal.start_run([o.key for o in outcomes], BatchPolicy())
        for outcome in outcomes:
            journal.task_done(outcome, payload={"v": outcome.index})
        return journal

    def test_extracts_labels_outcomes_and_cached(self, tmp_path):
        journal = self._journal(tmp_path, [
            BatchOutcome(index=0, key="aaa", label="fig11", state="ok",
                         attempts=1, elapsed_s=0.25, result={}),
            BatchOutcome(index=1, key="bbb", label="fig12", state="ok",
                         attempts=0, elapsed_s=0.0, result={}),
            BatchOutcome(index=2, key="ccc", label="fig13", state="failed",
                         attempts=2, elapsed_s=0.1, error="boom"),
        ])
        events = events_from_batch_journal(journal.path)
        assert [e.task for e in events] == ["fig11", "fig12", "fig13"]
        assert all(e.source == "batch" and e.stage == TASK_STAGE
                   for e in events)
        assert all(e.run_id == "r1" for e in events)
        assert [e.outcome for e in events] == ["ok", "ok", "failed"]
        assert [e.cached for e in events] == [False, True, False]
        assert events[0].elapsed_s == 0.25
        assert all(isinstance(e.elapsed_s, float) for e in events)

    def test_journal_terminal_lines_always_stamp_timing(self, tmp_path):
        """The satellite fix: ok lines never journal null elapsed_s, and
        cache-prefilled completions are marked so trend comparison can
        skip them instead of seeing bogus 0.0 measurements."""
        journal = self._journal(tmp_path, [
            BatchOutcome(index=0, key="aaa", label="fig11", state="ok",
                         attempts=0, elapsed_s=0.0, result={}),
        ])
        lines = [json.loads(line)
                 for line in open(journal.path).read().splitlines()]
        terminal = [line for line in lines if line.get("status") == "ok"]
        assert terminal, "expected a terminal ok line"
        for line in terminal:
            assert isinstance(line["elapsed_s"], float)
            assert line["label"] == "fig11"
            assert line["cached"] is True

    def test_pre_label_journal_falls_back_to_key(self, tmp_path):
        path = tmp_path / "old.jsonl"
        header = {"type": "run", "run_id": None, "tasks": ["abc123"],
                  "policy": {}, "at": 1.0}
        line = {"type": "task", "index": 0, "key": "abc123",
                "status": "ok", "attempts": 1, "elapsed_s": 0.5,
                "error": None, "at": 2.0, "result": {}}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        (event,) = events_from_batch_journal(str(path))
        assert event.task == "abc123"
        assert event.run_id == "old"  # falls back to the file name

    def test_missing_journal_is_loud(self, tmp_path):
        with pytest.raises(Exception, match="no run header"):
            events_from_batch_journal(str(tmp_path / "nope.jsonl"))


class TestServeExtraction:
    def _record(self, **overrides):
        base = dict(
            job_id="job-1",
            job=PreprocessJob(model="RM1", num_rows=64, num_shards=2),
            state="completed", submitted_at=10.0, started_at=11.0,
            completed_at=14.0, attempts=1, digest="sha256:aa",
            stages=(
                StageEvent(stage="extract", status="started", at=11.0),
                StageEvent(stage="extract", status="completed", at=12.0,
                           elapsed_s=1.0, metrics={"mb_per_s": 3.5}),
                StageEvent(stage="transform", status="completed", at=14.0,
                           elapsed_s=2.0),
            ),
        )
        base.update(overrides)
        return JobRecord(**base)

    def test_extracts_stages_and_job_rollup(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(self._record())
        events = events_from_job_index(index.path, run_id="serve-1")
        assert [(e.stage, e.outcome) for e in events] == [
            ("extract", "ok"), ("transform", "ok"), (JOB_STAGE, "ok"),
        ]
        label = PreprocessJob(model="RM1", num_rows=64, num_shards=2).label
        assert all(e.task == label for e in events)
        assert events[0].metrics == {"mb_per_s": 3.5}
        assert events[-1].elapsed_s == pytest.approx(3.0)  # 14.0 - 11.0

    def test_skips_in_flight_jobs_and_started_markers(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(self._record(
            state="queued", started_at=None, completed_at=None,
            attempts=0, digest=None, stages=(),
        ))
        assert events_from_job_index(index.path) == []

    def test_failed_job_maps_to_failed_outcome(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(self._record(
            state="failed", digest=None, error="boom",
            stages=(
                StageEvent(stage="extract", status="failed", at=12.0,
                           elapsed_s=1.0, error="boom"),
                StageEvent(stage="transform", status="skipped", at=12.0),
            ),
        ))
        events = events_from_job_index(index.path)
        assert [(e.stage, e.outcome) for e in events] == [
            ("extract", "failed"), ("transform", "skipped"),
            (JOB_STAGE, "failed"),
        ]

    def test_missing_index_is_loud(self, tmp_path):
        with pytest.raises(TelemetryError, match="does not exist"):
            events_from_job_index(str(tmp_path / "nope.jsonl"))


class TestSummarize:
    def test_aggregates_best_mean_count(self):
        events = [make_event(elapsed_s=v) for v in (0.5, 0.3, 0.7)]
        summary = summarize_events(events, run_id="r", recorded_at=1.0)
        (sample,) = summary.samples
        assert sample.best == 0.3  # lower is better for elapsed
        assert sample.mean == pytest.approx(0.5)
        assert sample.count == 3

    def test_best_is_direction_aware(self):
        events = [make_event(elapsed_s=None, metrics={"utilization": v})
                  for v in (0.1, 0.3, 0.2)]
        summary = summarize_events(events, run_id="r", recorded_at=1.0)
        (sample,) = summary.samples
        assert sample.metric == "utilization"
        assert sample.best == 0.3  # higher is better

    def test_skips_cached_and_non_ok(self):
        events = [
            make_event(elapsed_s=9.0, cached=True, attempts=0),
            make_event(outcome="failed", elapsed_s=0.1),
            make_event(elapsed_s=0.4),
        ]
        summary = summarize_events(events, run_id="r", recorded_at=1.0)
        (sample,) = summary.samples
        assert sample.best == 0.4

    def test_include_cached_keeps_replays(self):
        events = [make_event(elapsed_s=9.0, cached=True, attempts=0)]
        assert summarize_events(events, run_id="r",
                                recorded_at=1.0).samples == ()
        kept = summarize_events(events, run_id="r", recorded_at=1.0,
                                include_cached=True)
        assert kept.samples[0].best == 9.0


def summary_of(run_id, values, recorded_at=1.0, metric="elapsed_s",
               source="batch"):
    """A RunSummary with one sample per (task, value) pair."""
    samples = tuple(
        MetricSample(source=source, task=task, stage=TASK_STAGE,
                     metric=metric, best=value, mean=value, count=1)
        for task, value in values.items()
    )
    return RunSummary(run_id=run_id, recorded_at=recorded_at,
                      samples=samples)


class TestTrendStore:
    def test_record_load_round_trip(self, tmp_path):
        store = TrendStore(str(tmp_path))
        summary = summary_of("run-a", {"fig11": 0.5}, recorded_at=5.0)
        store.record(summary)
        assert store.load("run-a") == summary

    def test_files_are_byte_stable(self, tmp_path):
        store = TrendStore(str(tmp_path))
        summary = summary_of("run-a", {"fig11": 0.5, "fig12": 0.25})
        store.record(summary)
        first = open(store.path("run-a"), "rb").read()
        store.record(summary)
        assert open(store.path("run-a"), "rb").read() == first
        assert first.endswith(b"\n")

    @pytest.mark.parametrize("run_id", ["", "a/b", "../x", ".hidden"])
    def test_rejects_bad_run_ids(self, tmp_path, run_id):
        with pytest.raises(TelemetryError):
            TrendStore(str(tmp_path)).path(run_id)

    def test_summaries_ordered_and_baselines_exclude_current(self, tmp_path):
        store = TrendStore(str(tmp_path))
        for n, run_id in enumerate(["old", "mid", "new"]):
            store.record(summary_of(run_id, {"fig11": 0.5},
                                    recorded_at=float(n)))
        assert store.run_ids() == ["old", "mid", "new"]
        pool = store.baselines(count=2, exclude="new")
        assert [s.run_id for s in pool] == ["old", "mid"]
        assert [s.run_id for s in store.baselines(count=1)] == ["new"]

    def test_load_missing_run_is_loud(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            TrendStore(str(tmp_path)).load("ghost")

    def test_unsupported_schema_is_loud(self, tmp_path):
        store = TrendStore(str(tmp_path))
        store.record(summary_of("run-a", {"fig11": 0.5}))
        payload = json.load(open(store.path("run-a")))
        payload["schema_version"] = 99
        open(store.path("run-a"), "w").write(json.dumps(payload))
        with pytest.raises(TelemetryError, match="schema"):
            store.load("run-a")


class TestCompare:
    def test_regression_improvement_within(self):
        baseline = summary_of("base", {"fig11": 0.2, "fig12": 0.2,
                                       "fig13": 0.2})
        current = summary_of("cur", {"fig11": 0.65, "fig12": 0.05,
                                     "fig13": 0.22})
        comparison = compare_summaries(current, [baseline])
        status = {d.task: d.status for d in comparison.deltas}
        assert status == {"fig11": "regression", "fig12": "improvement",
                          "fig13": "within"}
        (regression,) = comparison.regressions()
        text = regression.describe()
        assert "fig11" in text and TASK_STAGE in text
        assert "3.2" in text  # the ratio, named in the delta

    def test_direction_aware_attainment_regression(self):
        baseline = summary_of("base", {"fleet": 1.0},
                              metric="slo_attainment", source="fleet")
        current = summary_of("cur", {"fleet": 0.4},
                             metric="slo_attainment", source="fleet")
        comparison = compare_summaries(current, [baseline])
        (delta,) = comparison.deltas
        assert delta.status == "regression"
        assert delta.ratio == pytest.approx(2.5)

    def test_noise_floor_suppresses_tiny_timings(self):
        baseline = summary_of("base", {"fig13": 0.0002})
        current = summary_of("cur", {"fig13": 0.0009})
        comparison = compare_summaries(current, [baseline],
                                       min_elapsed_s=0.05)
        assert comparison.deltas[0].status == "within"
        # ...but a real slowdown past the floor still fires
        comparison = compare_summaries(
            summary_of("cur", {"fig13": 0.2}), [baseline],
            min_elapsed_s=0.05,
        )
        assert comparison.deltas[0].status == "regression"

    def test_best_of_n_uses_best_baseline(self):
        slow = summary_of("slow", {"fig11": 1.0}, recorded_at=1.0)
        fast = summary_of("fast", {"fig11": 0.2}, recorded_at=2.0)
        current = summary_of("cur", {"fig11": 0.5})
        comparison = compare_summaries(current, [slow, fast])
        (delta,) = comparison.deltas
        assert delta.baseline == 0.2
        assert delta.status == "regression"  # 2.5x vs the best baseline

    def test_new_and_missing_scoped_to_present_sources(self):
        baseline = RunSummary(run_id="base", recorded_at=1.0, samples=(
            summary_of("x", {"fig11": 0.5}).samples
            + summary_of("x", {"fleet": 0.6}, metric="utilization",
                         source="fleet").samples
        ))
        current = summary_of("cur", {"fig12": 0.5})
        comparison = compare_summaries(current, [baseline])
        status = {(d.source, d.task): d.status for d in comparison.deltas}
        # fig12 is new, fig11 is missing; the fleet series is NOT
        # missing — this run had no fleet source at all
        assert status == {("batch", "fig12"): "new",
                          ("batch", "fig11"): "missing"}

    def test_empty_baseline_pool_classifies_new(self):
        comparison = compare_summaries(
            summary_of("cur", {"fig11": 0.5}), []
        )
        assert comparison.deltas[0].status == "new"
        assert comparison.regressions() == []

    def test_threshold_override_and_validation(self):
        assert threshold_for("elapsed_s") == DEFAULT_THRESHOLDS["elapsed_s"]
        assert threshold_for("elapsed_s", {"elapsed_s": 3.0}) == 3.0
        assert threshold_for("unknown_metric") == 1.5
        assert higher_is_better("items_per_s")  # *_per_s heuristic
        with pytest.raises(TelemetryError, match="must be > 1"):
            threshold_for("elapsed_s", {"elapsed_s": 0.9})
        baseline = summary_of("base", {"fig11": 0.2})
        current = summary_of("cur", {"fig11": 0.3})
        comparison = compare_summaries(current, [baseline],
                                       thresholds={"elapsed_s": 1.2})
        assert comparison.deltas[0].status == "regression"

    @pytest.mark.parametrize("metric",
                             ["completed", "slo_attainment", "utilization"])
    def test_fleet_headline_metrics_regress_downward(self, metric):
        baseline = summary_of("base", {"fleet": 0.8}, metric=metric,
                              source="fleet")
        risen = summary_of("up", {"fleet": 0.95}, metric=metric,
                           source="fleet")
        fallen = summary_of("down", {"fleet": 0.4}, metric=metric,
                            source="fleet")
        assert higher_is_better(metric)
        assert [d.status for d in compare_summaries(risen, [baseline])
                .deltas] == ["within"]
        assert [d.status for d in compare_summaries(fallen, [baseline])
                .deltas] == ["regression"]
        # the best-of-N baseline is the highest value in the pool
        pool = [fallen, baseline]
        assert compare_summaries(risen, pool).deltas[0].baseline == 0.8

    def test_fleet_result_rising_utilization_is_no_regression(self):
        from repro.fleet import FleetSimulator
        from repro.fleet.trace import generate_trace

        trace = generate_trace(kind="diurnal", num_jobs=30, seed=3)
        runs = {}
        for autoscaler in ("fixed", "target-utilization"):
            result = FleetSimulator(trace, autoscaler=autoscaler).run()
            runs[autoscaler] = summarize_events(
                result.telemetry_events("fleet-day"), run_id=autoscaler,
                recorded_at=1.0,
            )
        deltas = {
            d.metric: d
            for d in compare_summaries(runs["target-utilization"],
                                       [runs["fixed"]]).deltas
            if d.task == "fleet" and d.stage == "run"
        }
        rise = deltas["utilization"]
        assert rise.current > rise.baseline * 1.5
        assert rise.status == "improvement"

    def test_markdown_names_the_regression(self):
        comparison = compare_summaries(
            summary_of("cur", {"fig11": 0.65}),
            [summary_of("base", {"fig11": 0.2})],
        )
        text = render_markdown(comparison)
        assert "| fig11 | task |" in text.replace("batch | fig11", "fig11")
        assert "regression" in text
        assert "`base`" in text

    def test_markdown_elides_within_rows_past_budget(self):
        tasks = {f"exp{n:03d}": 0.2 for n in range(70)}
        comparison = compare_summaries(
            summary_of("cur", dict(tasks, exp000=0.65)),
            [summary_of("base", tasks)],
        )
        text = render_markdown(comparison)
        assert "exp000" in text
        assert "exp042" not in text  # within-band rows elided
        assert "not listed" in text


class TestHistory:
    def test_history_is_deterministic(self):
        runs = [
            summary_of("a", {"fig11": 0.5}, recorded_at=1.0),
            summary_of("b", {"fig11": 0.6, "fig12": 0.1}, recorded_at=2.0),
        ]
        payload = render_history(runs)
        assert payload["runs"] == ["a", "b"]
        assert payload["series"][0]["values"] == [0.5, 0.6]
        assert payload["series"][1]["values"] == [None, 0.1]
        assert render_history(runs) == payload


class TestTrendCLI:
    def _write_journal(self, path, timings, run_id="r1"):
        """A synthetic batch journal: one ok terminal line per task."""
        outcomes = [
            BatchOutcome(index=n, key=f"key-{label}", label=label,
                         state="ok", attempts=1, elapsed_s=elapsed,
                         result={})
            for n, (label, elapsed) in enumerate(sorted(timings.items()))
        ]
        journal = BatchJournal(str(path), run_id=run_id)
        journal.start_run([o.key for o in outcomes], BatchPolicy())
        for outcome in outcomes:
            journal.task_done(outcome, payload={})
        return str(path)

    def test_record_then_compare_detects_injected_slowdown(
        self, tmp_path, capsys
    ):
        """The acceptance path: a journaled baseline run is recorded,
        then a rerun with one experiment's stage 3x slower must exit
        non-zero and name that experiment id and stage."""
        store = str(tmp_path / "trend")
        base = self._write_journal(
            tmp_path / "base.jsonl",
            {"fig11": 0.30, "fig12": 0.20, "fig13": 0.10},
        )
        assert main([
            "trend", "record", "--store", store, "--run-id", "base",
            "--batch-journal", base, "--recorded-at", "1.0",
        ]) == 0
        slow = self._write_journal(
            tmp_path / "slow.jsonl",
            {"fig11": 0.30, "fig12": 0.60, "fig13": 0.10},  # fig12 3x
        )
        capsys.readouterr()
        rc = main([
            "trend", "compare", "--store", store, "--run-id", "current",
            "--batch-journal", slow,
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "REGRESSION" in captured.err
        assert "fig12" in captured.err  # the experiment id, named
        assert TASK_STAGE in captured.err  # ...and its stage
        assert "fig11" not in captured.err  # unchanged tasks not blamed
        assert "3.00x" in captured.out

    def test_compare_green_on_uninjected_run_and_fail_on_none(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "trend")
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        main(["trend", "record", "--store", store, "--run-id", "base",
              "--batch-journal", base, "--recorded-at", "1.0"])
        assert main([
            "trend", "compare", "--store", store, "--run-id", "cur",
            "--batch-journal", base,
        ]) == 0
        slow = self._write_journal(tmp_path / "slow.jsonl", {"fig11": 0.9})
        assert main([
            "trend", "compare", "--store", store, "--run-id", "cur",
            "--batch-journal", slow, "--fail-on", "none",
        ]) == 0  # report-only mode never gates

    def test_compare_loads_recorded_run_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "trend")
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        slow = self._write_journal(tmp_path / "slow.jsonl", {"fig11": 0.9})
        main(["trend", "record", "--store", store, "--run-id", "base",
              "--batch-journal", base, "--recorded-at", "1.0"])
        main(["trend", "record", "--store", store, "--run-id", "cur",
              "--batch-journal", slow, "--recorded-at", "2.0"])
        capsys.readouterr()
        rc = main(["trend", "compare", "--store", store, "--run-id", "cur"])
        assert rc == 1
        assert "fig11" in capsys.readouterr().err

    def test_compare_json_and_markdown_outputs(self, tmp_path, capsys):
        store = str(tmp_path / "trend")
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        main(["trend", "record", "--store", store, "--run-id", "base",
              "--batch-journal", base, "--recorded-at", "1.0"])
        capsys.readouterr()
        md_path = str(tmp_path / "trend.md")
        assert main([
            "trend", "compare", "--store", store, "--run-id", "cur",
            "--batch-journal", base, "--json", "--markdown", md_path,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["within"] == 1
        assert payload["deltas"][0]["task"] == "fig11"
        assert "fig11" in open(md_path).read()

    def test_report_json_is_byte_stable(self, tmp_path, capsys):
        store = str(tmp_path / "trend")
        base = self._write_journal(tmp_path / "base.jsonl",
                                   {"fig11": 0.3, "fig12": 0.1})
        main(["trend", "record", "--store", store, "--run-id", "base",
              "--batch-journal", base, "--recorded-at", "1.0"])
        capsys.readouterr()
        assert main(["trend", "report", "--store", store, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["trend", "report", "--store", store, "--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["runs"] == ["base"]
        assert len(payload["series"]) == 2

    def test_record_json_is_byte_stable(self, tmp_path, capsys):
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        argv = ["trend", "record", "--store", str(tmp_path / "trend"),
                "--run-id", "base", "--batch-journal", base,
                "--recorded-at", "1.0", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_record_requires_sources_and_valid_meta(self, tmp_path):
        store = str(tmp_path / "trend")
        with pytest.raises(SystemExit, match="no telemetry sources"):
            main(["trend", "record", "--store", store, "--run-id", "x"])
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main(["trend", "record", "--store", store, "--run-id", "x",
                  "--batch-journal", base, "--meta", "oops"])

    def test_record_meta_lands_in_summary(self, tmp_path):
        store = str(tmp_path / "trend")
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        assert main(["trend", "record", "--store", store, "--run-id", "x",
                     "--batch-journal", base, "--recorded-at", "1.0",
                     "--meta", "host=ci", "--meta", "sha=abc"]) == 0
        assert TrendStore(store).load("x").meta == {
            "host": "ci", "sha": "abc"
        }

    def test_report_human_output(self, tmp_path, capsys):
        store = str(tmp_path / "trend")
        base = self._write_journal(tmp_path / "base.jsonl", {"fig11": 0.3})
        main(["trend", "record", "--store", store, "--run-id", "base",
              "--batch-journal", base, "--recorded-at", "1.0"])
        capsys.readouterr()
        assert main(["trend", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "runs: base" in out
        assert "batch/fig11/task" in out
        assert main(["trend", "report",
                     "--store", str(tmp_path / "empty")]) == 0
        assert "no committed runs" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_repo_trend_store_loads(self):
        """The committed baseline under benchmarks/trend/ must stay
        readable by the current schema."""
        import os

        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "trend")
        store = TrendStore(root)
        summaries = store.summaries()
        assert summaries, "benchmarks/trend must hold >= 1 baseline"
        for summary in summaries:
            assert summary.samples
