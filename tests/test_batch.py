"""Tests for the fault-tolerant batch tier (repro.batch):

* ``BatchPolicy`` validation, worker clamp, backoff, dict round trips;
* ``BatchOutcome`` state machine;
* the shared ``JsonlJournal`` core (torn-tail healing, atomic rewrite);
* ``BatchJournal`` line shapes, resume segments, corruption handling;
* ``BatchRunner`` serial + parallel: retries, degrade vs strict, wall
  clock timeouts, SIGKILLed workers, journaled resume, and a
  ``ConfigurationError`` that fails on its first attempt;
* the ``Sweep.run`` / ``run_experiments`` entry points on top of it
  (scenario order, caching completed results even when a later task
  fails strict);
* ``repro chaos --tier batch`` invariants and the CLI's resume surface,
  including a subprocess SIGKILL of ``repro report`` while a gated
  experiment is in flight, whose resumed output must be byte-identical
  to an uninterrupted run.
"""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import (
    BatchJournal,
    BatchOutcome,
    BatchPolicy,
    BatchRunner,
    ExperimentRun,
    RunStore,
    Scenario,
    Sweep,
    run_experiments,
)
from repro.batch.journal import content_key
from repro.errors import (
    BatchError,
    BatchTaskError,
    ConfigurationError,
    FaultError,
    TaskTimeoutError,
)
from repro.journal import JsonlJournal

FAST = BatchPolicy(max_retries=1, backoff_s=0.001, failure_mode="degrade")


# -- module-level worker functions (forked workers run these) ---------------

def _double(x):
    return x * 2


def _fail_on_negative(x):
    if x < 0:
        raise ValueError(f"bad input {x}")
    return x * 2


def _misconfigured(x):
    raise ConfigurationError(f"bad setting {x}")


def _disk_hiccup(x):
    raise OSError(f"disk hiccup {x}")


def _injected_fault(x):
    raise FaultError(f"injected {x}")


def _kill_self_on_negative(x):
    if x < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


def _hang_on_negative(x):
    if x < 0:
        time.sleep(30.0)
    return x * 2


def _touch_then_fail(path):
    """Fails on first sight of ``path``, succeeds after (cross-process)."""
    if os.path.exists(path):
        return "recovered"
    with open(path, "w") as handle:
        handle.write("seen")
    raise RuntimeError("first attempt always fails")


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_retries == 1
        assert policy.failure_mode == "strict"
        assert policy.task_timeout_s is None
        assert policy.processes is None

    def test_worker_count_clamps_explicit_processes(self):
        # the Sweep.run bug: an explicit processes was not clamped to the
        # task count, spawning idle workers
        assert BatchPolicy(processes=64).worker_count(3) == 3
        assert BatchPolicy(processes=2).worker_count(10) == 2
        assert BatchPolicy(processes=4).worker_count(0) == 1
        assert BatchPolicy().worker_count(1) == 1

    def test_backoff_is_exponential(self):
        policy = BatchPolicy(backoff_s=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"backoff_s": -0.1},
        {"backoff_s": "0.1"},
        {"task_timeout_s": 0},
        {"task_timeout_s": -1.0},
        {"failure_mode": "maybe"},
        {"processes": 0},
        {"processes": -2},
        {"processes": "4"},
        # `sweep --task-timeout nan` never reaped a hung scenario
        {"backoff_s": float("nan")},
        {"backoff_s": float("inf")},
        {"task_timeout_s": float("nan")},
        {"task_timeout_s": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchPolicy(**kwargs)

    def test_dict_round_trip(self):
        policy = BatchPolicy(max_retries=3, task_timeout_s=7.5,
                             failure_mode="degrade", processes=2)
        assert BatchPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy.from_dict({"max_retries": 1, "bogus": True})


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


class TestBatchOutcome:
    def test_ok(self):
        outcome = BatchOutcome(index=0, key="k", label="L", state="ok",
                               attempts=1, result=42)
        assert outcome.ok
        assert outcome.result == 42
        assert "result" not in outcome.to_dict()

    def test_non_ok_requires_error(self):
        with pytest.raises(BatchError):
            BatchOutcome(index=0, key="k", label="L", state="failed",
                         attempts=1)

    def test_rejects_unknown_state(self):
        with pytest.raises(BatchError):
            BatchOutcome(index=0, key="k", label="L", state="exploded",
                         attempts=1, error="x")


# ---------------------------------------------------------------------------
# shared journal core
# ---------------------------------------------------------------------------


class TestJsonlJournal:
    def test_append_and_read(self, tmp_path):
        journal = JsonlJournal(str(tmp_path / "j.jsonl"))
        journal.append('{"a": 1}')
        journal.append('{"b": 2}')
        entries = journal.read()
        assert [(t, c) for _, t, c in entries] == [
            (b'{"a": 1}', True), (b'{"b": 2}', True),
        ]
        assert journal.lines == 2

    def test_torn_tail_is_flagged_and_healed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\n{"half')  # killed mid-append
        journal = JsonlJournal(str(path))
        entries = journal.read()
        assert entries[-1][2] is False  # torn tail is incomplete
        journal.append('{"b": 2}')  # heals before appending
        assert [t for _, t, _ in journal.read()] == [b'{"a": 1}', b'{"b": 2}']

    def test_rewrite_replaces_contents(self, tmp_path):
        journal = JsonlJournal(str(tmp_path / "j.jsonl"))
        journal.append('{"a": 1}')
        journal.rewrite(['{"z": 9}'])
        assert [t for _, t, _ in journal.read()] == [b'{"z": 9}']
        assert journal.lines == 1


# ---------------------------------------------------------------------------
# batch journal
# ---------------------------------------------------------------------------


class TestBatchJournal:
    def _journal(self, tmp_path, run_id="run1"):
        return BatchJournal(str(tmp_path / f"{run_id}.jsonl"), run_id=run_id)

    def test_for_run_rejects_bad_ids(self, tmp_path):
        for bad in ("", "../escape", "has space", None, 7):
            with pytest.raises(BatchError):
                BatchJournal.for_run(bad, root=str(tmp_path))

    def test_for_run_places_journal_under_root(self, tmp_path):
        journal = BatchJournal.for_run("smoke", root=str(tmp_path))
        assert journal.path == str(tmp_path / "smoke.jsonl")
        assert journal.run_id == "smoke"

    def test_start_run_resets_stale_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.start_run(["k0"], BatchPolicy())
        journal.task_done(BatchOutcome(index=0, key="k0", label="t0",
                                       state="ok", attempts=1, result=1),
                          payload=1)
        journal.start_run(["k0"], BatchPolicy())  # fresh run, same id
        state = journal.load()
        assert state.completed() == set()
        assert state.outcomes == {}

    def test_load_reconstructs_run(self, tmp_path):
        journal = self._journal(tmp_path)
        policy = BatchPolicy(max_retries=2, failure_mode="degrade")
        journal.start_run(["k0", "k1", "k2"], policy)
        journal.task_started(0, "k0", 1)
        journal.task_done(BatchOutcome(index=0, key="k0", label="t0",
                                       state="ok", attempts=1, result="r0"),
                          payload="r0")
        journal.task_started(1, "k1", 1)
        journal.task_done(BatchOutcome(index=1, key="k1", label="t1",
                                       state="failed", attempts=2,
                                       error="boom"))
        journal.task_started(2, "k2", 1)  # in flight at the crash
        state = journal.load()
        assert state.run_id == "run1"
        assert state.keys == ("k0", "k1", "k2")
        assert BatchPolicy.from_dict(state.policy) == policy
        assert state.completed() == {0}
        assert state.outcomes[0]["result"] == "r0"
        assert state.outcomes[1]["status"] == "failed"
        assert 2 not in state.outcomes
        assert state.started == {0, 1, 2}
        assert state.max_terminal_per_segment == 1

    def test_terminal_lines_stamp_timing_label_and_cached(self, tmp_path):
        # readers take these straight off the line: elapsed_s is never
        # null, and a cache-prefilled 0.0 is marked as no measurement
        journal = self._journal(tmp_path)
        journal.start_run(["k0", "k1", "k2"], BatchPolicy())
        for outcome in (
            BatchOutcome(index=0, key="k0", label="fig11", state="ok",
                         attempts=1, elapsed_s=0.25, result={}),
            BatchOutcome(index=1, key="k1", label="fig12", state="ok",
                         attempts=0, result={}),
            BatchOutcome(index=2, key="k2", label="fig13", state="failed",
                         attempts=2, elapsed_s=1, error="boom"),
        ):
            journal.task_done(outcome, payload={})
        with open(journal.path) as handle:
            lines = [json.loads(line) for line in handle]
        terminal = [line for line in lines if line["type"] == "task"]
        assert [line["label"] for line in terminal] == [
            "fig11", "fig12", "fig13"
        ]
        assert [line["elapsed_s"] for line in terminal] == [0.25, 0.0, 1.0]
        assert all(type(line["elapsed_s"]) is float for line in terminal)
        assert [line["cached"] for line in terminal] == [False, True, False]

    def test_resume_segments_supersede(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.start_run(["k0"], BatchPolicy())
        journal.task_done(BatchOutcome(index=0, key="k0", label="t0",
                                       state="failed", attempts=2,
                                       error="boom"))
        journal.mark_resume()
        journal.task_done(BatchOutcome(index=0, key="k0", label="t0",
                                       state="ok", attempts=1, result="r"),
                          payload="r")
        state = journal.load()
        assert state.resumes == 1
        assert state.completed() == {0}
        # one terminal per segment, not two in one
        assert state.max_terminal_per_segment == 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.start_run(["k0"], BatchPolicy())
        journal.task_done(BatchOutcome(index=0, key="k0", label="t0",
                                       state="ok", attempts=1, result="r"),
                          payload="r")
        with open(journal.path, "a") as handle:
            handle.write('{"type": "task", "ind')  # torn mid-append
        state = BatchJournal(journal.path, run_id="run1").load()
        assert state.completed() == {0}

    def test_interior_corruption_is_loud(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.start_run(["k0"], BatchPolicy())
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"type": "resume"}) + "\n")
        with pytest.raises(BatchError):
            BatchJournal(journal.path, run_id="run1").load()

    def test_key_mismatch_is_loud(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.start_run(["k0"], BatchPolicy())
        journal.task_started(0, "DIFFERENT", 1)
        with pytest.raises(BatchError):
            journal.load()

    @pytest.mark.parametrize("line, message", [
        ([1, 2], "expected an object, got list"),
        ({"type": "run", "run_id": "x", "tasks": []}, "duplicate run header"),
        ({"type": "task", "index": 2, "key": "k0", "status": "started"},
         "task index 2 out of range"),
        ({"type": "task", "index": -1, "key": "k1", "status": "started"},
         "task index -1 out of range"),
        ({"type": "task", "index": True, "key": "k1", "status": "started"},
         "task index True out of range"),
        ({"type": "task", "index": 0, "key": "k0", "status": "exploded"},
         "unknown task status 'exploded'"),
        ({"type": "note"}, "unknown line type 'note'"),
    ], ids=["non-object", "duplicate-header", "index-past-end",
            "negative-index", "bool-index", "unknown-status", "unknown-type"])
    def test_malformed_line_names_itself(self, tmp_path, line, message):
        journal = self._journal(tmp_path)
        journal.start_run(["k0", "k1"], BatchPolicy())
        with open(journal.path, "a") as handle:
            handle.write(json.dumps(line) + "\n")
        with pytest.raises(BatchError, match=f"at line 2: {message}"):
            journal.load()

    @pytest.mark.parametrize("field, value", [("tasks", 5), ("policy", 5)])
    def test_a_header_of_the_wrong_shape_names_itself(self, tmp_path, field, value):
        header = {"type": "run", "run_id": "x", "tasks": ["k0"], "policy": {}}
        path = tmp_path / "header.jsonl"
        path.write_text(json.dumps({**header, field: value}) + "\n")
        with pytest.raises(BatchError, match="at line 1: run header needs"):
            BatchJournal(str(path)).load()

    def test_task_line_before_the_header_is_loud(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text(json.dumps({"type": "task", "index": 0, "key": "k0",
                                    "status": "started"}) + "\n")
        with pytest.raises(BatchError,
                           match="at line 1: task line before the run header"):
            BatchJournal(str(path)).load()

    def test_missing_journal_has_no_run_header(self, tmp_path):
        with pytest.raises(BatchError, match="has no run header"):
            BatchJournal(str(tmp_path / "nope.jsonl")).load()

    def test_pre_label_journal_still_loads(self, tmp_path):
        # journals written before labels and cached stamps existed
        path = tmp_path / "old.jsonl"
        header = {"type": "run", "run_id": None, "tasks": ["abc123"],
                  "policy": {}, "at": 1.0}
        line = {"type": "task", "index": 0, "key": "abc123", "status": "ok",
                "attempts": 1, "elapsed_s": 0.5, "error": None, "at": 2.0,
                "result": {}}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        state = BatchJournal(str(path)).load()
        assert state.run_id is None and state.keys == ("abc123",)
        assert state.completed() == {0}
        assert state.outcomes[0] == line

    def test_duplicate_completions_in_one_segment_are_counted(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.start_run(["k0"], BatchPolicy())
        for result in ("first", "second"):
            journal.task_done(BatchOutcome(index=0, key="k0", label="t0",
                                           state="ok", attempts=1,
                                           result=result), payload=result)
        state = journal.load()
        assert state.max_terminal_per_segment == 2
        assert state.outcomes[0]["result"] == "second"  # the last line wins

    def test_content_key_digests_the_task_not_its_position(self):
        run = ExperimentRun("fig3", params={"model": "RM1"})
        key = content_key(0, run)
        assert key == content_key(5, run)
        assert key == hashlib.sha256(
            json.dumps(run.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert key != content_key(0, ExperimentRun("fig3",
                                                   params={"model": "RM5"}))


# ---------------------------------------------------------------------------
# runner — serial
# ---------------------------------------------------------------------------


class TestRunnerSerial:
    def test_happy_path(self):
        runner = BatchRunner(_double, policy=FAST)
        outcomes = runner.run([1, 2, 3], parallel=False)
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_retry_then_success(self):
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return x

        runner = BatchRunner(
            flaky, policy=BatchPolicy(max_retries=2, backoff_s=0.001,
                                      failure_mode="degrade"))
        outcomes = runner.run([7], parallel=False)
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert calls == [7, 7]

    def test_degrade_returns_failed_outcome(self):
        runner = BatchRunner(_fail_on_negative, policy=FAST)
        outcomes = runner.run([1, -1, 3], parallel=False)
        assert [o.state for o in outcomes] == ["ok", "failed", "ok"]
        failed = outcomes[1]
        assert failed.attempts == 2  # initial + 1 retry
        assert "bad input -1" in failed.error

    def test_strict_raises_typed_error(self):
        runner = BatchRunner(
            _fail_on_negative,
            policy=BatchPolicy(max_retries=0, backoff_s=0.001))
        with pytest.raises(BatchTaskError, match="failed"):
            runner.run([1, -1, 3], parallel=False)

    def test_on_outcome_sees_completions_before_strict_failure(self):
        seen = []
        runner = BatchRunner(
            _fail_on_negative,
            policy=BatchPolicy(max_retries=0, backoff_s=0.001),
            on_outcome=seen.append)
        with pytest.raises(BatchTaskError):
            runner.run([1, 2, -1], parallel=False)
        assert [o.state for o in seen] == ["ok", "ok", "failed"]

    def test_precomputed_skips_execution(self):
        def explode(x):
            raise AssertionError("must not run")

        runner = BatchRunner(explode, policy=FAST)
        outcomes = runner.run([1, 2], parallel=False,
                              precomputed={0: "a", 1: "b"})
        assert [o.result for o in outcomes] == ["a", "b"]
        assert all(o.attempts == 0 for o in outcomes)  # cache marker

    def test_rejects_bad_worker_fn_and_precomputed_range(self):
        with pytest.raises(BatchError):
            BatchRunner("not callable")
        runner = BatchRunner(_double, policy=FAST)
        with pytest.raises(BatchError):
            runner.run([1], parallel=False, precomputed={5: "x"})

    @pytest.mark.parametrize("knob, value", [
        ("task_timeout_s", 0.01), ("processes", 2),
    ])
    def test_a_process_knob_is_refused_before_any_task_runs(
            self, knob, value, tmp_path):
        """The inline path has no worker to time out or count: a 10 ms
        deadline used to return ``['ok', 'ok']`` after two 0.3 s tasks."""
        calls = []

        def slow(x):
            calls.append(x)
            time.sleep(0.3)
            return "ok"

        journal = BatchJournal(str(tmp_path / "j.jsonl"))
        runner = BatchRunner(
            slow, policy=BatchPolicy(**{knob: value}), journal=journal)
        with pytest.raises(ConfigurationError,
                           match=rf"serial batch runner cannot honour "
                                 rf"{knob}={value!r}"):
            runner.run([1], parallel=False)
        assert calls == []
        assert not (tmp_path / "j.jsonl").exists()


# ---------------------------------------------------------------------------
# runner — parallel (real forked workers)
# ---------------------------------------------------------------------------


class TestRunnerParallel:
    def test_happy_path_matches_serial(self):
        policy = BatchPolicy(failure_mode="degrade")
        parallel = BatchRunner(
            _double, policy=dataclasses.replace(policy, processes=2)
        ).run(list(range(6)))
        serial = BatchRunner(_double, policy=policy).run(
            list(range(6)), parallel=False)
        assert [o.result for o in parallel] == [o.result for o in serial]
        assert [o.index for o in parallel] == list(range(6))

    def test_task_exception_retries_cross_process(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = BatchRunner(
            _touch_then_fail,
            policy=BatchPolicy(max_retries=1, backoff_s=0.001,
                               failure_mode="degrade", processes=2))
        outcomes = runner.run([marker])
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert outcomes[0].result == "recovered"

    def test_exhausted_retries_fail(self):
        runner = BatchRunner(
            _fail_on_negative,
            policy=BatchPolicy(max_retries=1, backoff_s=0.001,
                               failure_mode="degrade", processes=2))
        outcomes = runner.run([1, -1, 3])
        assert [o.state for o in outcomes] == ["ok", "failed", "ok"]
        assert outcomes[1].attempts == 2

    def test_sigkilled_worker_is_interrupted_not_retried(self):
        runner = BatchRunner(
            _kill_self_on_negative,
            policy=BatchPolicy(max_retries=3, backoff_s=0.001,
                               failure_mode="degrade", processes=2))
        outcomes = runner.run([1, -1, 2, 3])
        assert [o.state for o in outcomes] == [
            "ok", "interrupted", "ok", "ok"]
        interrupted = outcomes[1]
        assert interrupted.attempts == 1  # never retried
        assert "died" in interrupted.error
        assert runner.leaked_workers == 0

    def test_sigkilled_worker_raises_typed_error_in_strict(self):
        runner = BatchRunner(
            _kill_self_on_negative,
            policy=BatchPolicy(max_retries=0, backoff_s=0.001,
                               processes=2))
        with pytest.raises(BatchTaskError, match="interrupted"):
            runner.run([1, -1, 2, 3])

    def test_hung_task_times_out_and_pool_recovers(self):
        runner = BatchRunner(
            _hang_on_negative,
            policy=BatchPolicy(max_retries=0, backoff_s=0.001,
                               task_timeout_s=0.4, failure_mode="degrade",
                               processes=2))
        started = time.monotonic()
        outcomes = runner.run([1, -1, 2, 3])
        elapsed = time.monotonic() - started
        assert [o.state for o in outcomes] == ["ok", "timeout", "ok", "ok"]
        assert "task_timeout_s" in outcomes[1].error
        assert elapsed < 10.0  # watchdog, not the 30s sleep
        assert runner.leaked_workers == 0

    def test_hung_task_raises_timeout_error_in_strict(self):
        runner = BatchRunner(
            _hang_on_negative,
            policy=BatchPolicy(max_retries=0, backoff_s=0.001,
                               task_timeout_s=0.4, processes=2))
        with pytest.raises(TaskTimeoutError):
            runner.run([1, -1, 2, 3])


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
class TestOnlyTransientErrorsRetry:
    """A ``ConfigurationError`` would raise again on every retry, so it
    fails on its first attempt; ``OSError`` and ``FaultError`` may pass
    on a retry (the chaos tier relies on that) and keep retrying."""

    @staticmethod
    def policy(parallel, failure_mode="degrade"):
        """Two worker processes on the process path, none inline."""
        return BatchPolicy(max_retries=3, backoff_s=0.001,
                           failure_mode=failure_mode,
                           processes=2 if parallel else None)

    def test_configuration_error_fails_on_its_first_attempt(self, parallel):
        runner = BatchRunner(_misconfigured, policy=self.policy(parallel))
        outcomes = runner.run([1, 2], parallel=parallel)
        assert [o.state for o in outcomes] == ["failed", "failed"]
        assert [o.attempts for o in outcomes] == [1, 1]
        assert outcomes[0].error == "ConfigurationError: bad setting 1"

    @pytest.mark.parametrize("fn, error", [
        (_disk_hiccup, "OSError: disk hiccup 2"),
        (_injected_fault, "FaultError: injected 2"),
    ], ids=["OSError", "FaultError"])
    def test_transient_errors_still_retry(self, parallel, fn, error):
        runner = BatchRunner(fn, policy=self.policy(parallel))
        outcomes = runner.run([1, 2], parallel=parallel)
        assert [o.attempts for o in outcomes] == [4, 4]
        assert outcomes[1].error == error

    def test_configuration_error_raises_typed_in_strict(self, parallel):
        runner = BatchRunner(
            _misconfigured, policy=self.policy(parallel, failure_mode="strict"))
        with pytest.raises(BatchTaskError, match="after 1 attempt"):
            runner.run([1, 2], parallel=parallel)


# ---------------------------------------------------------------------------
# runner — journal + resume
# ---------------------------------------------------------------------------


class TestRunnerResume:
    def _runner(self, fn, journal, processes=2):
        policy = BatchPolicy(max_retries=0, backoff_s=0.001,
                             failure_mode="degrade", processes=processes)
        return BatchRunner(fn, policy=policy, journal=journal)

    def test_resume_skips_completed_and_reruns_failures(self, tmp_path):
        journal = BatchJournal.for_run("r1", root=str(tmp_path))
        first = self._runner(_fail_on_negative, journal)
        outcomes = first.run([1, -2, 3])
        assert [o.state for o in outcomes] == ["ok", "failed", "ok"]
        # second pass with a healthy worker function resumes the journal
        journal2 = BatchJournal.for_run("r1", root=str(tmp_path))
        second = self._runner(_double, journal2)
        resumed = second.run([1, -2, 3], resume=True)
        assert second.resumed_tasks == 2  # the two ok tasks prefilled
        assert [o.state for o in resumed] == ["ok", "ok", "ok"]
        # prefilled results replay the original payloads, the failed task
        # ran fresh
        assert [o.result for o in resumed] == [2, -4, 6]
        assert [o.attempts for o in resumed] == [1, 1, 1]
        state = journal2.load()
        assert state.resumes == 1
        assert state.completed() == {0, 1, 2}
        assert state.max_terminal_per_segment == 1

    def test_resume_requires_matching_keys(self, tmp_path):
        journal = BatchJournal.for_run("r2", root=str(tmp_path))
        self._runner(_double, journal).run([1, 2])
        fresh = BatchJournal.for_run("r2", root=str(tmp_path))
        with pytest.raises(BatchError, match="does not describe"):
            self._runner(_double, fresh).run([1, 2, 3], resume=True)

    def test_resume_without_journal_is_loud(self):
        runner = BatchRunner(_double, policy=FAST)
        with pytest.raises(BatchError, match="resume requires"):
            runner.run([1], resume=True)

    def test_interrupted_writer_reruns_started_tasks(self, tmp_path):
        # simulate a SIGKILLed batch: header + one completion + one task
        # that only ever logged "started"
        journal = BatchJournal.for_run("r3", root=str(tmp_path))
        journal.start_run(["task-0", "task-1"],
                          BatchPolicy(failure_mode="degrade"))
        journal.task_started(0, "task-0", 1)
        journal.task_done(BatchOutcome(index=0, key="task-0", label="t0",
                                       state="ok", attempts=1, result=2),
                          payload=2)
        journal.task_started(1, "task-1", 1)  # writer dies here
        fresh = BatchJournal.for_run("r3", root=str(tmp_path))
        runner = self._runner(_double, fresh)
        resumed = runner.run([1, 2], resume=True)
        assert runner.resumed_tasks == 1
        assert [o.result for o in resumed] == [2, 4]

    def test_journal_append_failures_do_not_kill_the_batch(self, tmp_path):
        from repro.faults.injector import FaultInjector, installed
        from repro.faults.plan import FaultPlan, FaultRule

        journal = BatchJournal.for_run("r4", root=str(tmp_path))
        plan = FaultPlan(seed=3, rules=(
            FaultRule(point="torn-write", action="torn", rate=1.0),))
        runner = self._runner(_double, journal, processes=None)
        with installed(FaultInjector(plan)):
            outcomes = runner.run([1, 2, 3], parallel=False)
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert runner.journal_errors  # every append tore, all recorded
        # the journal healed itself: still loadable
        BatchJournal.for_run("r4", root=str(tmp_path)).load()


# ---------------------------------------------------------------------------
# entry points: Sweep.run and run_experiments
# ---------------------------------------------------------------------------


class TestSweepBatch:
    def _sweep(self, systems=("Disagg", "PreSto")):
        return Sweep.grid(models=["RM1"], systems=list(systems),
                          num_gpus=[8], num_batches=10)

    def test_results_are_in_scenario_order_and_byte_stable(self):
        sweep = self._sweep()
        first = sweep.run()
        again = sweep.run()
        assert [r.scenario for r in first] == list(sweep)
        assert json.dumps([r.to_dict() for r in first]).encode() == (
            json.dumps([r.to_dict() for r in again]).encode())

    def test_misconfigured_scenario_fails_on_its_first_attempt(self):
        """A ``ConfigurationError`` is deterministic: retrying it only
        re-raises it after a backoff sleep."""
        sweep = Sweep([Scenario(model="RM1", system="Co-located", num_gpus=1)])
        [outcome] = sweep.run(
            policy=BatchPolicy(failure_mode="degrade", max_retries=3))
        assert outcome.state == "failed"
        assert outcome.attempts == 1
        assert outcome.error.startswith("ConfigurationError: RM1: 16 co-located")

    def test_a_deadline_it_cannot_enforce_is_refused(self):
        with pytest.raises(ConfigurationError, match="task_timeout_s=5"):
            self._sweep().run(policy=BatchPolicy(task_timeout_s=5))

    def test_degrade_returns_outcomes(self):
        outcomes = self._sweep().run(
            policy=BatchPolicy(failure_mode="degrade"))
        assert all(isinstance(o, BatchOutcome) for o in outcomes)
        assert all(o.ok for o in outcomes)
        assert all(o.result.to_dict() for o in outcomes)

    def test_journaled_sweep_resumes(self, tmp_path):
        sweep = self._sweep()
        journal = BatchJournal.for_run("sw", root=str(tmp_path))
        first = sweep.run(journal=journal)
        fresh = BatchJournal.for_run("sw", root=str(tmp_path))
        resumed = sweep.run(journal=fresh, resume=True)
        assert [r.to_dict() for r in resumed] == [
            r.to_dict() for r in first]


class TestRunExperimentsBatch:
    def test_strict_failure_still_caches_completed(self, tmp_path):
        """The satellite fix: a later task failing strict no longer
        discards results already computed — they land in the store as
        they finish."""
        from repro.api import register_experiment
        from repro.api.experiment import EXPERIMENT_REGISTRY
        from repro.experiments.table1_models import Table1Result

        @register_experiment("_batch_test_boom", title="_Batch Test Boom",
                             kind="ablation", order=99_999)
        def _boom() -> Table1Result:
            raise RuntimeError("boom")

        try:
            store = RunStore(tmp_path)
            runs = [ExperimentRun("table1"),
                    ExperimentRun("_batch_test_boom")]
            with pytest.raises(BatchTaskError):
                run_experiments(
                    runs, store=store,
                    policy=BatchPolicy(max_retries=0, backoff_s=0.001))
            # the completed first task was cached despite the batch dying
            assert store.load(ExperimentRun("table1")) is not None
        finally:
            EXPERIMENT_REGISTRY.unregister("_batch_test_boom")

    def test_degrade_marks_failures_in_partial_report(self):
        from repro.api import register_experiment
        from repro.api.experiment import EXPERIMENT_REGISTRY
        from repro.experiments import report as report_mod
        from repro.experiments.table1_models import Table1Result

        @register_experiment("_batch_test_flaky", title="_Batch Test Flaky",
                             kind="ablation", order=99_999)
        def _flaky() -> Table1Result:
            raise RuntimeError("flaky")

        try:
            results = report_mod.run_all(
                kinds=["ablation"],
                policy=BatchPolicy(max_retries=0, backoff_s=0.001,
                                   failure_mode="degrade"))
            marker = results["_Batch Test Flaky"]
            assert isinstance(marker, report_mod.ExperimentFailure)
            assert marker.claims() == []
            assert "FAILED" in marker.render().upper()
            rendered = report_mod.render_report(results)
            assert "_Batch Test Flaky" in rendered
        finally:
            EXPERIMENT_REGISTRY.unregister("_batch_test_flaky")

    def test_cached_results_replay_through_batch_tier(self, tmp_path):
        store = RunStore(tmp_path)
        runs = [ExperimentRun("table1")]
        first = run_experiments(runs, store=store)
        again = run_experiments(runs, store=store)
        assert first[0].to_dict() == again[0].to_dict()


# ---------------------------------------------------------------------------
# chaos --tier batch
# ---------------------------------------------------------------------------


class TestChaosBatch:
    def test_batch_matrix_holds_invariants(self, tmp_path):
        from repro.faults.chaos import check_report, run_chaos

        report = run_chaos(
            ("worker-crash", "torn-write"), seed=7, tier="batch",
            spool_root=str(tmp_path), num_jobs=4, rows=64, shards=1,
            workers=2, job_timeout_s=5.0)
        assert report["tier"] == "batch"
        check_report(report)  # raises on any violated invariant
        assert report["ok"]
        by_fault = {ep["fault"]: ep for ep in report["episodes"]}
        # the fault-free resume pass converged on all-ok
        for ep in report["episodes"]:
            assert ep["resumed_states"] == {"ok": 4}
        assert by_fault["torn-write"]["index_errors"] > 0

    def test_task_hang_episode_times_out_and_recovers(self, tmp_path):
        from repro.faults.chaos import run_batch_episode

        episode = run_batch_episode(
            "task-hang", seed=7, spool_dir=str(tmp_path), num_jobs=3,
            rows=64, shards=1, workers=2, job_timeout_s=1.0)
        assert episode["violations"] == []
        assert episode["resumed_states"] == {"ok": 3}

    def test_unknown_tier_is_rejected(self):
        from repro.faults.chaos import run_chaos

        with pytest.raises(ConfigurationError):
            run_chaos(tier="cloud")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliSurface:
    def test_parser_accepts_batch_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["report", "--run-id", "smoke", "--failure-mode", "degrade"])
        assert args.run_id == "smoke"
        assert args.failure_mode == "degrade"
        args = parser.parse_args(["report", "--resume", "smoke"])
        assert args.resume == "smoke"
        args = parser.parse_args(
            ["sweep", "--failure-mode", "degrade", "--max-retries", "2",
             "--run-id", "sw"])
        assert args.max_retries == 2
        args = parser.parse_args(["chaos", "--tier", "batch"])
        assert args.tier == "batch"

    def test_bad_run_id_exits_loudly(self, tmp_path):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit, match="run id"):
            cli_main(["report", "--run-id", "../escape",
                      "--cache-dir", str(tmp_path)])


#: a figure registered through ``$REPRO_EXPERIMENTS`` that blocks until
#: the file ``$REPRO_TEST_GATE`` exists, leaving ``<gate>.blocked`` behind
#: once it is waiting, so a test can kill the report while it is in flight
GATED_FIGURE = """
import os
import time
from dataclasses import dataclass

from repro.api import ExperimentResult, register_experiment


@dataclass(frozen=True)
class GatedResult(ExperimentResult):
    opened: int

    def columns(self):
        return ["opened"]

    def rows(self):
        return [(self.opened,)]

    def table_title(self):
        return "Gated figure"


@register_experiment("gated", title="Gated figure", kind="figure", order=75)
def run() -> GatedResult:
    gate = os.environ["REPRO_TEST_GATE"]
    if not os.path.exists(gate):
        open(gate + ".blocked", "w").close()
    deadline = time.monotonic() + 120
    while not os.path.exists(gate):
        if time.monotonic() > deadline:
            raise RuntimeError(f"gate {gate} never opened")
        time.sleep(0.01)
    return GatedResult(opened=1)
"""


class TestSigkillResume:
    """The acceptance scenario: SIGKILL ``repro report`` while a task is
    in flight, resume it, and the resumed JSON output must be
    byte-identical to an uninterrupted run.

    The kill lands inside the gated figure (paper order 75, between fig11
    and fig12), so figures before it are journaled ``ok`` and it and the
    ones after it are not: the resume both replays and re-runs."""

    def _run_cli(self, args, tmp_path, cache_dir, **popen_kwargs):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["REPRO_EXPERIMENTS"] = "gated_figure"
        env["REPRO_TEST_GATE"] = str(tmp_path / "gate")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, str(tmp_path), env.get("PYTHONPATH", "")])
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + args,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            **popen_kwargs)

    def test_sigkilled_report_resumes_byte_identical(self, tmp_path):
        (tmp_path / "gated_figure.py").write_text(GATED_FIGURE)
        gate = tmp_path / "gate"
        base = ["report", "--only", "figures", "--json"]
        # reference: uninterrupted run in its own cache, gate open
        gate.touch()
        ref_proc = self._run_cli(base, tmp_path, tmp_path / "ref")
        ref_out, ref_err = ref_proc.communicate(timeout=300)
        assert ref_proc.returncode == 0, ref_err.decode()
        assert b'"Gated figure"' in ref_out

        # journaled run, gate shut: SIGKILLed once the gated task blocks
        gate.unlink()
        victim = self._run_cli(base + ["--run-id", "smoke"], tmp_path,
                               tmp_path / "vic", start_new_session=True)
        blocked = tmp_path / "gate.blocked"
        deadline = time.monotonic() + 120
        while (not blocked.exists() and victim.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        try:
            assert blocked.exists(), "the gated figure never started"
        finally:
            if victim.poll() is None:
                os.killpg(victim.pid, signal.SIGKILL)
            victim.communicate(timeout=60)
        assert victim.returncode == -signal.SIGKILL

        journal_path = tmp_path / "vic" / "batch" / "smoke.jsonl"
        lines = [json.loads(line)
                 for line in journal_path.read_text().splitlines()]
        tasks = len(lines[0]["tasks"])
        ok = sum(line.get("status") == "ok" for line in lines)
        assert 0 < ok < tasks

        gate.touch()
        resume = self._run_cli(base + ["--resume", "smoke"], tmp_path,
                               tmp_path / "vic")
        res_out, res_err = resume.communicate(timeout=300)
        assert resume.returncode == 0, res_err.decode()
        assert res_out == ref_out  # byte-identical claims payload
