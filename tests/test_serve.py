"""Tests for the streaming preprocessing service: lifecycle records, the
bounded queue, the worker pool, sources, the service itself, and the
line-oriented socket protocol — all in-process, no external network."""

import dataclasses
import json
import os
import threading
import time

import pytest

from repro.api import PreprocessJob
from repro.errors import (
    ConfigurationError,
    JobNotFoundError,
    QueueClosedError,
    QueueFullError,
    ServeError,
)
from repro.serve import (
    BoundedJobQueue,
    DirectoryJobSource,
    JobLogIndex,
    JobRecord,
    JobSource,
    PreprocessService,
    ServiceClient,
    ServiceServer,
    SourceWatcher,
    StageEvent,
    SyntheticJobSource,
    WorkerPool,
    read_endpoint,
)

JOB = PreprocessJob(model="RM1", num_rows=256, num_shards=1)


def fast_runner(job, record_stage):
    """Instant stand-in for the data plane: digest derives from the seed."""
    record_stage("generate", "started", {})
    record_stage("generate", "completed", {"elapsed_s": 0.0, "rows": job.num_rows})
    return f"digest-{job.seed}"


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class TestStageEvent:
    def test_round_trip(self):
        event = StageEvent(
            "extract", "completed", at=12.5, elapsed_s=0.25,
            metrics={"bytes_read": 100.0},
        )
        rebuilt = StageEvent.from_dict(event.to_dict())
        assert rebuilt == event

    def test_failed_requires_error(self):
        with pytest.raises(ServeError, match="error details"):
            StageEvent("extract", "failed", at=1.0)
        StageEvent("extract", "failed", at=1.0, error="boom")  # fine

    def test_bad_status_rejected(self):
        with pytest.raises(ServeError, match="status"):
            StageEvent("extract", "exploded", at=1.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServeError, match="unknown"):
            StageEvent.from_dict({"stage": "x", "status": "started", "at": 1.0,
                                  "bogus": 1})

    @pytest.mark.parametrize("stage", ["", "   ", None, 3])
    def test_blank_or_non_string_stage_rejected(self, stage):
        with pytest.raises(ServeError, match="non-empty string"):
            StageEvent(stage, "started", at=1.0)

    def test_skipped_stage_needs_no_error_and_round_trips(self):
        # a failed stage's successors are written explicitly as skipped
        event = StageEvent("transform", "skipped", at=12.0)
        assert event.error is None and event.elapsed_s is None
        assert StageEvent.from_dict(event.to_dict()) == event


class TestJobRecord:
    def test_dict_round_trip(self):
        record = (
            JobRecord(job_id="job-1", job=JOB, submitted_at=1.0)
            .mark_running(at=2.0)
            .with_stage(StageEvent("generate", "started", at=2.1))
            .with_stage(StageEvent("generate", "completed", at=2.2,
                                   elapsed_s=0.1, metrics={"rows": 256.0}))
            .mark_completed(at=3.0, digest="abc123")
        )
        rebuilt = JobRecord.from_dict(record.to_dict())
        assert rebuilt == record
        assert rebuilt.job == JOB
        assert rebuilt.stages == record.stages

    def test_json_round_trip(self):
        record = JobRecord(job_id="job-1", job=JOB, submitted_at=1.0)
        rebuilt = JobRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record

    def test_transitions(self):
        record = JobRecord(job_id="j", job=JOB, submitted_at=1.0)
        assert record.state == "queued" and not record.is_terminal
        running = record.mark_running(at=2.0)
        assert running.attempts == 1 and running.started_at == 2.0
        again = running.mark_running(at=5.0)
        assert again.attempts == 2
        assert again.started_at == 2.0  # first start is preserved
        done = again.mark_completed(at=6.0, digest="d")
        assert done.is_terminal and done.completed_at == 6.0

    def test_failed_requires_error(self):
        record = JobRecord(job_id="j", job=JOB)
        with pytest.raises(ServeError, match="error details"):
            dataclasses.replace(record, state="failed")

    def test_completed_requires_digest(self):
        record = JobRecord(job_id="j", job=JOB)
        with pytest.raises(ServeError, match="digest"):
            dataclasses.replace(record, state="completed")

    def test_bad_state_rejected(self):
        with pytest.raises(ServeError, match="state"):
            JobRecord(job_id="j", job=JOB, state="paused")

    def test_unknown_keys_rejected(self):
        data = JobRecord(job_id="j", job=JOB).to_dict()
        data["surprise"] = 1
        with pytest.raises(ServeError, match="unknown"):
            JobRecord.from_dict(data)

    @pytest.mark.parametrize("job_id", ["", "   ", None, 7])
    def test_blank_or_non_string_job_id_rejected(self, job_id):
        with pytest.raises(ServeError, match="job_id"):
            JobRecord(job_id=job_id, job=JOB)

    def test_job_must_be_a_preprocess_job(self):
        with pytest.raises(ServeError, match="PreprocessJob"):
            JobRecord(job_id="j", job=JOB.to_dict())

    @pytest.mark.parametrize("attempts", [-1, True, 1.0, "1"])
    def test_attempts_must_be_a_non_negative_int(self, attempts):
        with pytest.raises(ServeError, match="attempts"):
            JobRecord(job_id="j", job=JOB, attempts=attempts)

    def test_stages_are_stage_events_held_as_a_tuple(self):
        event = StageEvent("generate", "started", at=1.0)
        record = JobRecord(job_id="j", job=JOB, stages=[event])
        assert record.stages == (event,)
        with pytest.raises(ServeError, match="StageEvents"):
            JobRecord(job_id="j", job=JOB, stages=(event.to_dict(),))

    @pytest.mark.parametrize("state, terminal", [
        ("queued", False), ("running", False), ("interrupted", False),
        ("completed", True), ("failed", True), ("cancelled", True),
    ])
    def test_only_finished_states_are_terminal(self, state, terminal):
        record = JobRecord(job_id="j", job=JOB, state=state, error="e",
                           digest="d")
        assert record.is_terminal is terminal

    def test_mark_failed_keeps_the_error(self):
        failed = (JobRecord(job_id="j", job=JOB, submitted_at=1.0)
                  .mark_running(at=2.0).mark_failed(at=3.0, error="boom"))
        assert failed.state == "failed" and failed.error == "boom"
        assert failed.completed_at == 3.0 and failed.digest is None
        assert failed.is_terminal

    def test_mark_cancelled_needs_no_reason(self):
        cancelled = JobRecord(job_id="j", job=JOB).mark_cancelled(at=4.0)
        assert cancelled.state == "cancelled" and cancelled.error is None
        assert cancelled.completed_at == 4.0 and cancelled.is_terminal
        reason = JobRecord(job_id="j", job=JOB).mark_cancelled(4.0, "drain")
        assert reason.error == "drain"

    def test_interrupted_job_resumes_with_its_history(self):
        running = JobRecord(job_id="j", job=JOB, submitted_at=1.0
                            ).mark_running(at=2.0)
        interrupted = running.mark_interrupted(at=5.0)
        assert interrupted.state == "interrupted"
        assert not interrupted.is_terminal
        assert interrupted.error == (
            "daemon exited at 5.000 with this job in flight"
        )
        resumed = interrupted.mark_running(at=9.0)
        assert resumed.attempts == 2
        assert resumed.started_at == 2.0 and resumed.submitted_at == 1.0
        done = resumed.mark_completed(at=10.0, digest="d")
        assert done.error is None  # completion clears the interruption note


class TestJobLogIndex:
    def test_last_line_per_job_wins(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        record = JobRecord(job_id="job-1", job=JOB, submitted_at=1.0)
        index.append(record)
        index.append(record.mark_running(at=2.0))
        index.append(record.mark_running(at=2.0).mark_completed(3.0, "d"))
        loaded = index.load()
        assert [r.state for r in loaded] == ["completed"]
        assert loaded[0].digest == "d"

    def test_most_recently_completed_first(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        early = JobRecord(job_id="job-1", job=JOB, submitted_at=1.0)
        late = JobRecord(job_id="job-2", job=JOB, submitted_at=2.0)
        index.append(early.mark_running(3.0).mark_completed(9.0, "d1"))
        index.append(late.mark_running(4.0).mark_completed(5.0, "d2"))
        assert [r.job_id for r in index.load()] == ["job-1", "job-2"]

    def test_missing_file_is_empty(self, tmp_path):
        assert JobLogIndex(str(tmp_path / "nothing.jsonl")).load() == []

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        index = JobLogIndex(str(path))
        index.append(JobRecord(job_id="job-1", job=JOB, submitted_at=1.0))
        with open(path, "a") as handle:
            handle.write('{"job_id": "job-2", "tru')  # killed mid-append
        loaded = index.load()
        assert [r.job_id for r in loaded] == ["job-1"]

    def test_interior_corruption_is_loud(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        index = JobLogIndex(str(path))
        index.append(JobRecord(job_id="job-1", job=JOB, submitted_at=1.0))
        with open(path, "a") as handle:
            handle.write("garbage\n")  # complete line: not a torn append
        index.append(JobRecord(job_id="job-2", job=JOB, submitted_at=2.0))
        with pytest.raises(ServeError, match="line 2"):
            index.load()

    def test_a_record_without_its_job_is_loud_and_typed(self, tmp_path):
        # a complete ``{}`` line used to escape as ``KeyError: 'job'`` and
        # kill ``repro serve`` at start-up with a traceback
        path = tmp_path / "jobs.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ServeError, match="line 1.*missing required keys"):
            JobLogIndex(str(path)).load()

    def test_stage_history_survives_the_index(self, tmp_path):
        # the per-stage timings and metrics a reader takes off jobs.jsonl
        record = (
            JobRecord(job_id="job-1", job=JOB, submitted_at=10.0)
            .mark_running(at=11.0)
            .with_stage(StageEvent("extract", "started", at=11.0))
            .with_stage(StageEvent("extract", "completed", at=12.0,
                                   elapsed_s=1.0, metrics={"mb_per_s": 3.5}))
            .with_stage(StageEvent("transform", "completed", at=14.0,
                                   elapsed_s=2.0))
            .mark_completed(at=14.0, digest="sha256:aa")
        )
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(record)
        (loaded,) = index.load()
        assert loaded == record
        assert loaded.job.label == JOB.label
        assert [(e.stage, e.status) for e in loaded.stages] == [
            ("extract", "started"), ("extract", "completed"),
            ("transform", "completed"),
        ]
        assert loaded.stages[1].metrics == {"mb_per_s": 3.5}
        assert [e.elapsed_s for e in loaded.stages] == [None, 1.0, 2.0]
        assert loaded.completed_at - loaded.started_at == pytest.approx(3.0)

    def test_in_flight_job_loads_with_no_stages(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(JobRecord(job_id="job-1", job=JOB, submitted_at=1.0))
        (loaded,) = index.load()
        assert loaded.state == "queued" and loaded.stages == ()
        assert loaded.started_at is None and loaded.digest is None

    def test_failed_job_keeps_its_failed_and_skipped_stages(self, tmp_path):
        record = (
            JobRecord(job_id="job-1", job=JOB, submitted_at=10.0)
            .mark_running(at=11.0)
            .with_stage(StageEvent("extract", "failed", at=12.0,
                                   elapsed_s=1.0, error="boom"))
            .with_stage(StageEvent("transform", "skipped", at=12.0))
            .mark_failed(at=12.0, error="boom")
        )
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(record)
        (loaded,) = index.load()
        assert loaded.state == "failed" and loaded.error == "boom"
        assert [(e.stage, e.status, e.error) for e in loaded.stages] == [
            ("extract", "failed", "boom"), ("transform", "skipped", None),
        ]

    def test_unfinished_jobs_order_by_start_then_submission(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(JobRecord(job_id="queued", job=JOB, submitted_at=5.0))
        index.append(JobRecord(job_id="started", job=JOB, submitted_at=1.0)
                     .mark_running(at=7.0))
        index.append(JobRecord(job_id="done", job=JOB, submitted_at=2.0)
                     .mark_running(at=3.0).mark_completed(6.0, "d"))
        assert [r.job_id for r in index.load()] == ["started", "done", "queued"]


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


class TestBoundedJobQueue:
    def test_fifo(self):
        queue = BoundedJobQueue(capacity=4)
        for item in "abc":
            queue.put(item)
        assert [queue.get() for _ in range(3)] == ["a", "b", "c"]

    def test_reject_policy_raises_when_full(self):
        queue = BoundedJobQueue(capacity=2, policy="reject")
        queue.put("a")
        queue.put("b")
        with pytest.raises(QueueFullError):
            queue.put("c")
        assert len(queue) == 2 and queue.free == 0

    def test_block_policy_times_out(self):
        queue = BoundedJobQueue(capacity=1, policy="block")
        queue.put("a")
        start = time.monotonic()
        with pytest.raises(QueueFullError):
            queue.put("b", timeout=0.05)
        assert time.monotonic() - start >= 0.04

    def test_blocked_put_released_by_get(self):
        queue = BoundedJobQueue(capacity=1, policy="block")
        queue.put("a")
        done = threading.Event()

        def producer():
            queue.put("b", timeout=5.0)
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert queue.get() == "a"
        assert done.wait(5.0)
        assert queue.get() == "b"

    def test_closed_refuses_puts_and_drains_gets(self):
        queue = BoundedJobQueue(capacity=4)
        queue.put("a")
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put("b")
        assert queue.free == 0
        assert queue.get() == "a"  # drain what was queued
        with pytest.raises(QueueClosedError):
            queue.get()

    def test_get_timeout(self):
        queue = BoundedJobQueue(capacity=1)
        with pytest.raises(TimeoutError):
            queue.get(timeout=0.05)

    def test_cancel_removes_matching(self):
        queue = BoundedJobQueue(capacity=8)
        for item in ("a1", "b1", "a2"):
            queue.put(item)
        removed = queue.cancel(lambda item: item.startswith("a"))
        assert removed == ["a1", "a2"]
        assert queue.snapshot() == ["b1"]

    def test_invalid_construction(self):
        with pytest.raises(ServeError):
            BoundedJobQueue(capacity=0)
        with pytest.raises(ServeError):
            BoundedJobQueue(policy="drop")


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def _pool(self, runner, **kwargs):
        queue = BoundedJobQueue(capacity=32)
        done, errors = [], []
        kwargs.setdefault("num_workers", 2)
        pool = WorkerPool(
            queue,
            runner,
            on_done=lambda item, result, error: (
                errors.append((item, error)) if error else done.append(
                    (item, result)
                )
            ),
            **kwargs,
        )
        return queue, pool, done, errors

    def test_processes_all_items(self):
        queue, pool, done, errors = self._pool(lambda item, attempt: item * 2)
        pool.start()
        for n in range(10):
            queue.put(n)
        assert pool.drain(timeout=10.0)
        assert sorted(done) == [(n, n * 2) for n in range(10)]
        assert errors == []

    def test_retry_backoff_is_exponential(self):
        attempts, delays = [], []

        def flaky(item, attempt):
            attempts.append(attempt)
            if attempt <= 3:
                raise ValueError("transient")
            return "ok"

        queue, pool, done, errors = self._pool(
            flaky,
            num_workers=1,
            max_retries=3,
            backoff_s=0.1,
            sleep=delays.append,
        )
        pool.start()
        queue.put("job")
        assert pool.drain(timeout=10.0)
        assert attempts == [1, 2, 3, 4]
        assert delays == pytest.approx([0.1, 0.2, 0.4])
        assert done == [("job", "ok")] and errors == []

    def test_retries_exhausted_reports_failure(self):
        def always_broken(item, attempt):
            raise ValueError("permanent")

        queue, pool, done, errors = self._pool(
            always_broken, max_retries=2, backoff_s=0.0
        )
        pool.start()
        queue.put("job")
        assert pool.drain(timeout=10.0)
        assert done == []
        assert len(errors) == 1
        item, error = errors[0]
        assert item == "job" and isinstance(error, ValueError)

    def test_worker_death_replaces_worker_and_reports_job(self):
        deaths = []

        def poison(item, attempt):
            if item == "poison":
                raise SystemExit("worker crashed")
            return "ok"

        queue = BoundedJobQueue(capacity=8)
        done, errors = [], []
        pool = WorkerPool(
            queue,
            poison,
            num_workers=1,
            on_done=lambda item, result, error: (
                errors.append((item, error)) if error else done.append(item)
            ),
            on_worker_death=lambda worker, item, error: deaths.append(
                (worker, item)
            ),
        )
        pool.start()
        queue.put("poison")
        queue.put("survivor")  # must still run on the replacement worker
        assert pool.drain(timeout=10.0)
        assert done == ["survivor"]
        assert len(errors) == 1 and isinstance(errors[0][1], SystemExit)
        assert pool.workers_replaced >= 1
        assert deaths and deaths[0][1] == "poison"

    def test_stop_cancels_queued_tail(self):
        release = threading.Event()

        def slow(item, attempt):
            release.wait(10.0)
            return item

        queue, pool, done, errors = self._pool(slow, num_workers=1)
        pool.start()
        for item in ("a", "b", "c"):
            queue.put(item)
        while not pool.inflight():
            time.sleep(0.005)
        release.set()
        cancelled = pool.stop(timeout=10.0)
        # "a" was in flight (runs to completion); the tail never executes
        assert set(cancelled) <= {"b", "c"}
        assert set(cancelled) | {item for item, _ in done} == {"a", "b", "c"}

    def test_invalid_construction(self):
        queue = BoundedJobQueue()
        for bad in (
            {"num_workers": 0},
            {"max_retries": -1},
            {"backoff_s": -0.1},
            # a NaN backoff made time.sleep raise a bare ValueError at the
            # first retry; a NaN deadline timed every job out at the first
            # watchdog tick, an infinite one never
            {"backoff_s": float("nan")},
            {"backoff_s": float("inf")},
            {"job_timeout_s": float("nan")},
            {"job_timeout_s": float("inf")},
        ):
            with pytest.raises(ServeError):
                WorkerPool(queue, lambda i, a: i, **bad)


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


class TestPreprocessService:
    def test_digest_matches_serial_batch_path(self, tmp_path):
        """The central guarantee: the service's digest is byte-identical to
        the serial ``PreprocessJob.run(parallel=False)`` digest."""
        job = PreprocessJob(model="RM1", num_rows=512, num_shards=2)
        serial = job.run(parallel=False).digest
        with PreprocessService(spool_dir=str(tmp_path), num_workers=1) as svc:
            record = svc.submit(job)
            final = svc.wait(record.job_id, timeout=120.0)
        assert final.state == "completed"
        assert final.digest == serial
        # the full pipeline is visible in the telemetry
        started = [e.stage for e in final.stages if e.status == "started"]
        completed = [e.stage for e in final.stages if e.status == "completed"]
        assert started == ["generate", "partition", "extract", "transform"]
        assert completed == started

    def test_records_persist_to_jsonl_index(self, tmp_path):
        with PreprocessService(
            spool_dir=str(tmp_path), runner=fast_runner
        ) as svc:
            first = svc.submit(JOB)
            svc.wait(first.job_id, timeout=30.0)
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        loaded = index.load()
        assert [r.job_id for r in loaded] == [first.job_id]
        assert loaded[0].state == "completed"
        assert loaded[0].digest == f"digest-{JOB.seed}"

    def test_reject_backpressure_is_typed_and_tombstoned(self, tmp_path):
        release = threading.Event()

        def stuck(job, record_stage):
            release.wait(30.0)
            return "digest"

        service = PreprocessService(
            spool_dir=str(tmp_path),
            queue_capacity=1,
            num_workers=1,
            policy="reject",
            runner=stuck,
        )
        service.start()
        try:
            running = service.submit(JOB)  # a worker grabs this one
            while not service.pool.inflight():
                time.sleep(0.005)
            service.submit(dataclasses.replace(JOB, seed=1))  # fills the queue
            with pytest.raises(QueueFullError):
                service.submit(dataclasses.replace(JOB, seed=2))
        finally:
            release.set()
            service.stop(drain=True, timeout=30.0)
        assert service.wait(running.job_id).state == "completed"
        # the rejected submission is not a live job but leaves a terminal
        # tombstone in the index — nothing vanishes silently
        assert len(service.jobs()) == 2
        tombstones = [
            r
            for r in JobLogIndex(str(tmp_path / "jobs.jsonl")).load()
            if r.state == "cancelled"
        ]
        assert len(tombstones) == 1
        assert "rejected" in tombstones[0].error

    def test_a_job_that_sets_processes_is_refused(self, tmp_path):
        """The runner runs every job inline on one worker, so a process
        count never took effect; refused before any index line."""
        with PreprocessService(
            spool_dir=str(tmp_path), runner=fast_runner
        ) as svc:
            with pytest.raises(ConfigurationError, match="processes=2"):
                svc.submit(dataclasses.replace(JOB, processes=2))
            with pytest.raises(ConfigurationError, match="processes=2"):
                svc.submit(dataclasses.replace(JOB, processes=2).to_dict())
            assert svc.jobs() == []
        assert JobLogIndex(str(tmp_path / "jobs.jsonl")).load() == []

    def test_drain_finishes_every_queued_job(self, tmp_path):
        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=2, runner=fast_runner
        )
        service.start()
        records = [
            service.submit(dataclasses.replace(JOB, seed=i)) for i in range(8)
        ]
        service.stop(drain=True, timeout=30.0)
        final = [service.status(r.job_id) for r in records]
        assert all(r.state == "completed" for r in final)
        assert [r.digest for r in final] == [f"digest-{i}" for i in range(8)]

    def test_no_drain_cancels_queued_tail_explicitly(self, tmp_path):
        release = threading.Event()

        def stuck(job, record_stage):
            release.wait(30.0)
            return "digest"

        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=stuck
        )
        service.start()
        records = [
            service.submit(dataclasses.replace(JOB, seed=i)) for i in range(3)
        ]
        while not service.pool.inflight():
            time.sleep(0.005)
        threading.Timer(0.1, release.set).start()
        service.stop(drain=False, timeout=30.0)
        states = {r.job_id: service.status(r.job_id).state for r in records}
        assert states[records[0].job_id] == "completed"  # in-flight finishes
        tail = [states[r.job_id] for r in records[1:]]
        assert tail == ["cancelled", "cancelled"]
        for record in records[1:]:
            assert service.status(record.job_id).error == "service shutdown"
        # every record is terminal — no orphans
        assert all(service.status(r.job_id).is_terminal for r in records)

    def test_cancel_queued_job(self, tmp_path):
        release = threading.Event()

        def stuck(job, record_stage):
            release.wait(30.0)
            return "digest"

        service = PreprocessService(num_workers=1, runner=stuck)
        service.start()
        try:
            service.submit(JOB)
            while not service.pool.inflight():
                time.sleep(0.005)
            queued = service.submit(dataclasses.replace(JOB, seed=1))
            assert service.cancel(queued.job_id) is True
            assert service.status(queued.job_id).state == "cancelled"
            # terminal records never transition again
            assert service.cancel(queued.job_id) is False
        finally:
            release.set()
            service.stop(drain=True, timeout=30.0)

    def test_cancel_unknown_job(self):
        service = PreprocessService(runner=fast_runner)
        with pytest.raises(JobNotFoundError):
            service.cancel("job-999999")

    def test_retry_then_success(self):
        calls = []

        def flaky(job, record_stage):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("transient glitch")
            return "digest-after-retry"

        service = PreprocessService(
            num_workers=1, max_retries=2, backoff_s=0.0, runner=flaky
        )
        service.start()
        record = service.submit(JOB)
        final = service.wait(record.job_id, timeout=30.0)
        service.stop(timeout=30.0)
        assert final.state == "completed"
        assert final.digest == "digest-after-retry"
        assert final.attempts == 2
        retries = [e for e in final.stages if e.stage == "retry"]
        assert len(retries) == 1
        assert retries[0].metrics["attempt"] == 1

    def test_failure_records_stage_attribution(self):
        def dies_in_extract(job, record_stage):
            record_stage("generate", "started", {})
            record_stage("generate", "completed", {})
            record_stage("extract", "started", {})
            raise ValueError("bad chunk CRC")

        service = PreprocessService(
            num_workers=1, max_retries=0, runner=dies_in_extract
        )
        service.start()
        record = service.submit(JOB)
        final = service.wait(record.job_id, timeout=30.0)
        service.stop(timeout=30.0)
        assert final.state == "failed"
        assert "bad chunk CRC" in final.error
        by_stage = {(e.stage, e.status) for e in final.stages}
        assert ("extract", "failed") in by_stage
        assert ("generate", "completed") in by_stage
        # stages that never ran are recorded explicitly as skipped
        assert ("partition", "skipped") in by_stage
        assert ("transform", "skipped") in by_stage
        failed = [e for e in final.stages if e.status == "failed"]
        assert all("bad chunk CRC" in e.error for e in failed)

    def test_mid_run_transform_failure_attributes_one_stage(self, monkeypatch):
        """The default runner streams shard by shard: when shard 2 of 4
        fails in Transform, partition and extract are recorded completed
        (with the counts they reached) and transform alone failed."""
        from repro.ops.pipeline import PreprocessingPipeline

        run = PreprocessingPipeline.run

        def cursed_run(self, raw, batch_id=0):
            if batch_id == 2:
                raise ValueError("shard 2 is cursed")
            return run(self, raw, batch_id=batch_id)

        monkeypatch.setattr(PreprocessingPipeline, "run", cursed_run)
        service = PreprocessService(num_workers=1, max_retries=0)
        service.start()
        record = service.submit(PreprocessJob(model="RM1", num_rows=64, num_shards=4))
        final = service.wait(record.job_id, timeout=60.0)
        service.stop(timeout=30.0)
        assert final.state == "failed"
        by_stage = {}
        for event in final.stages:
            by_stage.setdefault(event.stage, []).append(event.status)
        assert by_stage == {
            "generate": ["started", "completed"],
            "partition": ["started", "completed"],
            "extract": ["started", "completed"],
            "transform": ["started", "failed"],
        }
        reached = {
            e.stage: e.metrics for e in final.stages if e.status == "completed"
        }
        assert reached["partition"]["shards"] == 3
        assert reached["extract"]["file_bytes"] == reached["partition"]["file_bytes"]

    def test_watch_streams_transitions_until_terminal(self):
        service = PreprocessService(num_workers=1, runner=fast_runner)
        service.start()
        record = service.submit(JOB)
        snapshots = list(service.watch(record.job_id, timeout=30.0))
        service.stop(timeout=30.0)
        assert snapshots[0].state in ("queued", "running")
        assert snapshots[-1].state == "completed"
        assert all(not s.is_terminal for s in snapshots[:-1])

    def test_submit_after_stop_is_refused(self):
        service = PreprocessService(runner=fast_runner)
        service.start()
        service.stop(timeout=30.0)
        with pytest.raises(QueueClosedError):
            service.submit(JOB)

    def test_counts(self):
        service = PreprocessService(num_workers=1, runner=fast_runner)
        service.start()
        record = service.submit(JOB)
        service.wait(record.job_id, timeout=30.0)
        service.stop(timeout=30.0)
        assert service.counts() == {"completed": 1}


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


class TestDirectoryJobSource:
    def test_picks_up_each_file_once(self, tmp_path):
        source = DirectoryJobSource(str(tmp_path))
        (tmp_path / "a.json").write_text(json.dumps(JOB.to_dict()))
        jobs = source.take(10)
        assert jobs == [JOB]
        assert source.take(10) == []  # remembered, never re-read
        (tmp_path / "b.json").write_text(
            json.dumps(dataclasses.replace(JOB, seed=7).to_dict())
        )
        assert [j.seed for j in source.take(10)] == [7]

    def test_respects_limit(self, tmp_path):
        source = DirectoryJobSource(str(tmp_path))
        for i in range(5):
            (tmp_path / f"{i}.json").write_text(
                json.dumps(dataclasses.replace(JOB, seed=i).to_dict())
            )
        assert len(source.take(2)) == 2
        assert len(source.take(10)) == 3

    def test_invalid_file_rejected_loudly_not_fatally(self, tmp_path):
        source = DirectoryJobSource(str(tmp_path))
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "good.json").write_text(json.dumps(JOB.to_dict()))
        jobs = source.take(10)
        assert jobs == [JOB]
        assert list(source.rejected) == [str(tmp_path / "bad.json")]
        assert source.take(10) == []  # the bad file is never retried

    def test_a_spec_of_the_wrong_shape_is_rejected_not_raised(self, tmp_path):
        # ``{}`` used to raise ``TypeError`` out of ``take`` and end the
        # watcher thread, so later valid specs were never ingested
        source = DirectoryJobSource(str(tmp_path))
        (tmp_path / "a.json").write_text("{}")
        (tmp_path / "b.json").write_text(json.dumps(JOB.to_dict()))
        assert source.take(10) == [JOB]
        assert list(source.rejected) == [str(tmp_path / "a.json")]

    def test_a_spec_that_sets_processes_is_rejected(self, tmp_path):
        source = DirectoryJobSource(str(tmp_path))
        (tmp_path / "a.json").write_text(
            json.dumps(dataclasses.replace(JOB, processes=2).to_dict())
        )
        (tmp_path / "b.json").write_text(json.dumps(JOB.to_dict()))
        assert source.take(10) == [JOB]
        assert list(source.rejected) == [str(tmp_path / "a.json")]
        assert "processes=2" in source.rejected[str(tmp_path / "a.json")]

    def test_an_empty_path_is_refused(self):
        with pytest.raises(ConfigurationError, match="needs a path"):
            DirectoryJobSource("")

    def test_a_missing_spool_is_created_and_labels_its_records(self, tmp_path):
        path = str(tmp_path / "incoming" / "jobs")
        source = DirectoryJobSource(path)
        assert os.path.isdir(path)
        assert source.name == f"watch:{path}"
        assert source.take(10) == []


class TestSyntheticJobSource:
    def test_emits_distinct_seeds(self):
        source = SyntheticJobSource(model="RM1", num_rows=64, count=3, seed=10)
        first = source.take(2)
        assert [j.seed for j in first] == [10, 11]
        assert not source.exhausted
        assert [j.seed for j in source.take(10)] == [12]
        assert source.exhausted
        assert source.take(10) == []

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticJobSource(count=0)

    def test_bad_model_fails_at_attach_time(self):
        with pytest.raises(ConfigurationError):
            SyntheticJobSource(model="NoSuchModel")

    def test_every_job_has_the_template_shape_and_the_model_label(self):
        source = SyntheticJobSource(model="RM1", num_rows=64, num_shards=2, count=2)
        assert source.name == "synthetic:RM1"
        assert source.take(10) == [
            PreprocessJob(model="RM1", num_rows=64, num_shards=2, seed=seed)
            for seed in (0, 1)
        ]


class TestUserSource:
    def test_a_user_source_plugs_in_as_an_instance(self, tmp_path):
        """No catalog: a JobSource subclass is attached as an object, and
        the watcher submits its jobs under the source's own name."""

        class ListSource(JobSource):
            name = "list:mine"

            def __init__(self, jobs):
                self.pending = list(jobs)

            def take(self, limit):
                taken, self.pending = self.pending[:limit], self.pending[limit:]
                return taken

        jobs = [dataclasses.replace(JOB, seed=seed) for seed in (5, 6)]
        with PreprocessService(
            spool_dir=str(tmp_path), runner=fast_runner, poll_interval=0.02,
        ) as service:
            service.attach_source(ListSource(jobs))
            deadline = time.monotonic() + 30.0
            while (len(service.jobs(state="completed")) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            records = service.jobs()
        assert [r.state for r in records] == ["completed", "completed"]
        assert {r.source for r in records} == {"list:mine"}
        assert sorted(r.digest for r in records) == ["digest-5", "digest-6"]

    def test_a_refused_job_is_audited_and_the_watcher_goes_on(self, tmp_path):
        """A user source's job that sets ``processes`` used to end the
        watcher thread once the service refused it."""

        class OnceSource(JobSource):
            name = "once"

            def __init__(self, *batches):
                self.batches = list(batches)

            def take(self, limit):
                return self.batches.pop(0) if self.batches else []

        refused = dataclasses.replace(JOB, processes=2)
        with PreprocessService(
            spool_dir=str(tmp_path), runner=fast_runner, poll_interval=0.02,
        ) as service:
            service.attach_source(OnceSource([refused], [JOB]))
            deadline = time.monotonic() + 30.0
            while not service.jobs("completed") and time.monotonic() < deadline:
                time.sleep(0.02)
            records = service.jobs()
        assert [(r.job, r.state) for r in records] == [(JOB, "completed")]
        assert [name for name, _ in service.watcher.refused] == ["once"]
        assert "processes=2" in service.watcher.refused[0][1]


class TestSourceWatcher:
    def test_poll_respects_free_capacity(self):
        submitted = []
        watcher = SourceWatcher(
            submit=lambda job, source: submitted.append((job.seed, source)),
            free_slots=lambda: 2,
        )
        source = SyntheticJobSource(model="RM1", count=5)
        watcher.attach(source)
        assert watcher.poll_once() == 2  # only the free slots are offered
        assert watcher.poll_once() == 2
        assert watcher.poll_once() == 1
        assert [seed for seed, _ in submitted] == [0, 1, 2, 3, 4]
        assert all(name == source.name for _, name in submitted)

    def test_detach(self):
        watcher = SourceWatcher(submit=lambda j, s: None, free_slots=lambda: 8)
        source = SyntheticJobSource(model="RM1", count=1)
        watcher.attach(source)
        watcher.detach(source)
        assert watcher.poll_once() == 0

    def test_a_closed_queue_ends_the_tick(self):
        """Once the service refuses work, the tick stops offering it:
        the rest of the batch and later sources wait for the next poll."""
        submitted = []

        def submit(job, source):
            if len(submitted) == 1:
                raise QueueClosedError("closed")
            submitted.append(job.seed)

        watcher = SourceWatcher(submit=submit, free_slots=lambda: 8)
        first = SyntheticJobSource(model="RM1", count=3)
        later = SyntheticJobSource(model="RM1", count=3, seed=10)
        watcher.attach(first)
        watcher.attach(later)
        assert watcher.poll_once() == 1
        assert submitted == [0]
        assert later.emitted == 0

    def test_service_ingests_from_attached_source(self, tmp_path):
        with PreprocessService(
            spool_dir=str(tmp_path),
            runner=fast_runner,
            poll_interval=0.02,
        ) as service:
            service.attach_source(
                SyntheticJobSource(model="RM1", num_rows=64, count=3)
            )
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                done = service.jobs(state="completed")
                if len(done) == 3:
                    break
                time.sleep(0.02)
            assert len(service.jobs(state="completed")) == 3
            assert {r.source for r in service.jobs()} == {"synthetic:RM1"}


# ---------------------------------------------------------------------------
# protocol: submit / attach / detach over the local socket
# ---------------------------------------------------------------------------


@pytest.fixture()
def served(tmp_path):
    service = PreprocessService(
        spool_dir=str(tmp_path), num_workers=1, runner=fast_runner
    )
    server = ServiceServer(service, host="127.0.0.1", port=0)
    server.start()
    client = ServiceClient(host=server.host, port=server.port)
    yield server, client, tmp_path
    server.stop(drain=True, timeout=30.0)


class TestProtocol:
    def test_ping(self, served):
        _, client, _ = served
        assert client.ping() is True

    def test_a_silent_daemon_times_the_client_out(self):
        """A listener that never replies costs the client CLIENT_TIMEOUT_S,
        not a hang; the CLI reports the OSError as one line."""
        import socket
        from unittest import mock

        from repro.serve import protocol

        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            host, port = listener.getsockname()
            client = ServiceClient(host=host, port=port)
            with mock.patch.object(protocol, "CLIENT_TIMEOUT_S", 0.2):
                started = time.monotonic()
                with pytest.raises(OSError, match="timed out"):
                    client.ping()
            assert time.monotonic() - started < 5.0

    def test_an_unbounded_wait_outlives_the_client_timeout(self, tmp_path):
        """``submit --wait`` and ``watch`` with no deadline block until the
        job ends, however long past CLIENT_TIMEOUT_S that is."""
        from unittest import mock

        from repro.serve import protocol

        def slow_runner(job, record_stage):
            time.sleep(0.6)
            return fast_runner(job, record_stage)

        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=slow_runner
        )
        server = ServiceServer(service, host="127.0.0.1", port=0)
        server.start()
        client = ServiceClient(host=server.host, port=server.port)
        try:
            with mock.patch.object(protocol, "CLIENT_TIMEOUT_S", 0.2):
                record = client.submit(JOB, wait=True)
                assert record.state == "completed"
                assert record.digest == f"digest-{JOB.seed}"
                job_id = client.submit(JOB).job_id
                events = list(client.watch(job_id))
            assert events[-1].job_id == job_id
            assert events[-1].state == "completed"
        finally:
            server.stop(drain=True, timeout=30.0)

    def test_submit_wait_round_trip(self, served):
        _, client, _ = served
        record = client.submit(JOB, wait=True, wait_timeout=30.0)
        assert isinstance(record, JobRecord)
        assert record.state == "completed"
        assert record.digest == f"digest-{JOB.seed}"
        assert record.job == JOB

    def test_detached_client_can_reattach_for_status(self, served):
        _, client, _ = served
        job_id = client.submit(JOB).job_id
        # every call is a fresh connection: submit, detach, attach, poll
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            record = client.status(job_id)
            if record.is_terminal:
                break
            time.sleep(0.02)
        assert record.state == "completed"
        assert [r.job_id for r in client.jobs()] == [job_id]
        assert client.counts() == {"completed": 1}

    def test_watch_streams_to_terminal(self, served):
        _, client, _ = served
        job_id = client.submit(JOB).job_id
        events = list(client.watch(job_id, timeout=30.0))
        assert events[-1].state == "completed"
        assert all(isinstance(e, JobRecord) for e in events)

    def test_typed_errors_cross_the_wire(self, served):
        _, client, _ = served
        with pytest.raises(JobNotFoundError):
            client.status("job-424242")
        with pytest.raises(JobNotFoundError):
            client.cancel("job-424242")

    def test_an_empty_job_is_a_typed_error_not_a_dropped_connection(
        self, served
    ):
        _, client, _ = served
        with pytest.raises(ConfigurationError, match="missing required keys"):
            client.submit({})
        assert client.ping() is True

    def test_endpoint_discovery(self, served):
        server, _, tmp_path = served
        endpoint = read_endpoint(str(tmp_path))
        assert endpoint["port"] == server.port
        by_spool = ServiceClient(spool_dir=str(tmp_path))
        assert by_spool.ping() is True

    def test_missing_endpoint_is_loud(self, tmp_path):
        with pytest.raises(ServeError, match="repro serve"):
            read_endpoint(str(tmp_path / "empty"))

    def test_shutdown_drains_and_removes_endpoint(self, tmp_path):
        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=fast_runner
        )
        server = ServiceServer(service, host="127.0.0.1", port=0)
        server.start()
        client = ServiceClient(host=server.host, port=server.port)
        job_id = client.submit(JOB).job_id
        assert client.shutdown(drain=True) is True
        assert server.wait(timeout=30.0)
        # the submitted job was drained, the endpoint file removed
        assert service.status(job_id).state == "completed"
        assert not (tmp_path / "endpoint.json").exists()
        assert (tmp_path / "jobs.jsonl").exists()
