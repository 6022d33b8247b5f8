"""The streaming preprocessing service — watcher, queue, pool, lifecycle.

:class:`PreprocessService` is the always-on counterpart of the batch
``repro preprocess`` command.  One instance composes:

* a :class:`~repro.serve.queue.BoundedJobQueue` (explicit backpressure);
* a :class:`~repro.serve.pool.WorkerPool` whose default runner drives the
  existing :class:`~repro.exec.ShardExecutor` partition -> write -> read ->
  transform path with per-stage telemetry;
* a :class:`~repro.serve.sources.SourceWatcher` feeding jobs in from
  attached sources, capacity-aware;
* an in-memory lifecycle store of frozen :class:`JobRecord` snapshots,
  mirrored transition-by-transition into a
  :class:`~repro.serve.records.JobLogIndex` JSONL file in the spool
  directory.

The guarantee the whole tier hangs on: a job's recorded ``digest`` is
byte-identical to the digest the serial batch path
(``PreprocessJob.run(parallel=False)`` / ``repro preprocess --serial``)
produces for the same spec — the service only re-plumbs *when* work runs,
never *what* it computes.  Shutdown is equally explicit: ``stop(drain=True)``
finishes everything queued; ``stop(drain=False)`` marks the queued tail
cancelled.  Either way every record ends terminal — no orphans.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional

from repro.api.preprocess import PreprocessJob, minibatch_digest
from repro.errors import JobNotFoundError, ReproError, ServeError
from repro.serve.pool import WorkerPool
from repro.serve.queue import BoundedJobQueue
from repro.serve.records import JobLogIndex, JobRecord, StageEvent
from repro.serve.sources import JobSource, SourceWatcher, servable

#: stage order the default runner reports (skipped stages stay explicit)
PIPELINE_STAGES = ("generate", "partition", "extract", "transform")

#: a runner produces the job's output digest; ``record_stage`` mirrors
#: executor stage callbacks into the job's record
ServiceRunner = Callable[[PreprocessJob, "StageRecorder"], str]

StageRecorder = Callable[[str, str, Dict[str, float]], None]


class PreprocessService:
    """Long-running preprocessing tier: submit, watch, drain, audit."""

    def __init__(
        self,
        spool_dir: Optional[str] = None,
        queue_capacity: int = 16,
        num_workers: int = 2,
        policy: str = "block",
        max_retries: int = 1,
        backoff_s: float = 0.05,
        poll_interval: float = 0.2,
        runner: Optional[ServiceRunner] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        job_timeout_s: Optional[float] = None,
        index_fsync: bool = False,
        recover: bool = True,
    ) -> None:
        self.spool_dir = spool_dir
        self.job_timeout_s = job_timeout_s
        self._clock = clock
        self._runner = runner or _default_runner
        self.queue: BoundedJobQueue = BoundedJobQueue(
            capacity=queue_capacity, policy=policy
        )
        self.pool = WorkerPool(
            self.queue,
            self._execute_attempt,
            num_workers=num_workers,
            max_retries=max_retries,
            backoff_s=backoff_s,
            sleep=sleep,
            on_done=self._on_done,
            on_retry=self._on_retry,
            on_worker_death=self._on_worker_death,
            job_timeout_s=job_timeout_s,
            on_timeout=self._on_timeout,
        )
        self.watcher = SourceWatcher(
            submit=self.submit,
            free_slots=lambda: self.queue.free,
            poll_interval=poll_interval,
        )
        self.index: Optional[JobLogIndex] = None
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
            self.index = JobLogIndex(
                os.path.join(spool_dir, "jobs.jsonl"), fsync=index_fsync
            )
        self._recover_on_start = recover
        self._records: Dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._started = False
        self._stopped = False
        #: worker-death audit trail: (worker name, job_id, error)
        self.worker_deaths: List[tuple] = []
        #: watchdog audit trail: (worker name, job_id, elapsed seconds)
        self.job_timeouts: List[tuple] = []
        #: index-append failures the service survived: (job_id, state, error)
        self.index_errors: List[tuple] = []
        #: job ids recovery re-enqueued on the last start()
        self.recovered_jobs: List[str] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "PreprocessService":
        """Recover the spool, then start the pool and watcher (idempotent).

        Recovery runs *before* any worker exists: the index is replayed,
        jobs a dead daemon left queued/running are marked ``interrupted``
        and re-enqueued (capacity-bypassing, so a backlog larger than the
        queue can never deadlock startup), and the job-id counter is seeded
        past every recovered id so new submissions never collide.
        """
        if self._stopped:
            raise ServeError("service cannot restart after stop()")
        if not self._started:
            self._started = True
            if self._recover_on_start:
                self._recover()
            self.pool.start()
            self.watcher.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down explicitly: drain queued work, or cancel it by name.

        ``drain=True`` refuses new submissions and finishes every queued
        and in-flight job; ``drain=False`` finishes only in-flight jobs and
        marks the queued tail ``cancelled`` (reason ``"service shutdown"``).
        Afterwards every record is terminal.
        """
        self._stopped = True
        self.watcher.stop(timeout=timeout)
        if drain:
            self.pool.drain(timeout=timeout)
        else:
            for job_id in self.pool.stop(timeout=timeout):
                self._transition(
                    job_id,
                    lambda record: record.mark_cancelled(
                        self._clock(), reason="service shutdown"
                    ),
                )

    def _recover(self) -> None:
        """Replay the job index and re-own everything a dead daemon left.

        Terminal records come back as read-only history (status/jobs keep
        answering for them); non-terminal records — a previous daemon died
        with them queued or running — are marked ``interrupted``, persisted
        as such, and re-enqueued in job-id order.  Re-running a job that
        actually finished but whose completion line never hit the disk is
        safe: the data plane is deterministic, so the re-run produces the
        byte-identical digest the lost line would have recorded.
        """
        if self.index is None:
            return
        records = self.index.load()  # loud on interior corruption
        max_id = 0
        requeue: List[JobRecord] = []
        now = self._clock()
        with self._changed:
            for record in records:
                match = re.fullmatch(r"job-(\d+)", record.job_id)
                if match:
                    max_id = max(max_id, int(match.group(1)))
                if record.is_terminal:
                    self._records[record.job_id] = record
                    continue
                interrupted = record.mark_interrupted(now)
                self._records[record.job_id] = interrupted
                self._persist(interrupted)
                requeue.append(interrupted)
            self._ids = itertools.count(max_id + 1)
            self._changed.notify_all()
        # numeric order, not lexicographic: "job-10" must follow "job-2"
        def _submission_order(record: JobRecord):
            match = re.fullmatch(r"job-(\d+)", record.job_id)
            if match:
                return (0, int(match.group(1)), record.job_id)
            return (1, 0, record.job_id)

        requeue.sort(key=_submission_order)
        self.recovered_jobs = [record.job_id for record in requeue]
        self.queue.restore(self.recovered_jobs)

    def __enter__(self) -> "PreprocessService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None, timeout=60.0)

    # -- submission ----------------------------------------------------------

    def submit(self, job: PreprocessJob, source: str = "client",
               timeout: Optional[float] = None) -> JobRecord:
        """Queue one job; returns its freshly minted ``queued`` record.

        Honors the queue's backpressure policy: raises
        :class:`~repro.errors.QueueFullError` when the queue rejects (or a
        block times out) and :class:`~repro.errors.QueueClosedError` once
        the service is stopping — the job is then *not* recorded.  A job
        that sets ``processes`` is refused (:func:`servable`) unrecorded.
        """
        if not isinstance(job, PreprocessJob):
            job = PreprocessJob.from_dict(job)
        servable(job)
        with self._lock:
            job_id = f"job-{next(self._ids):06d}"
        record = JobRecord(
            job_id=job_id,
            job=job,
            source=source,
            state="queued",
            submitted_at=self._clock(),
        )
        # record + persist BEFORE the queue sees the id: a worker can only
        # observe jobs whose "queued" line is already in the index, so index
        # line order always matches transition order
        with self._changed:
            self._records[job_id] = record
            self._persist(record)
            self._changed.notify_all()
        try:
            self.queue.put(job_id, timeout=timeout)
        except ServeError as exc:
            # submission failed: drop the live record and leave a terminal
            # tombstone in the index (nothing in the log may end non-terminal)
            with self._changed:
                self._records.pop(job_id, None)
                self._persist(
                    record.mark_cancelled(
                        self._clock(), reason=f"rejected: {exc}"
                    )
                )
            raise
        return record

    # -- queries -------------------------------------------------------------

    def status(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        return record

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """Every known record, submission order; ``state`` filters."""
        with self._lock:
            records = sorted(
                self._records.values(), key=lambda r: r.job_id
            )
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def counts(self) -> Dict[str, int]:
        """state -> number of jobs (the one-line service status)."""
        tally: Dict[str, int] = {}
        for record in self.jobs():
            tally[record.state] = tally.get(record.state, 0) + 1
        return tally

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state: the last record
        :meth:`watch` yields."""
        for record in self.watch(job_id, timeout):
            pass
        return record

    def watch(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[JobRecord]:
        """Yield a record snapshot on every transition until terminal.

        The streaming notification feed: each yielded record reflects a new
        state or newly recorded stage event; the final one is terminal.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        last = None
        while True:
            with self._changed:
                while True:
                    record = self._records.get(job_id)
                    if record is None:
                        raise JobNotFoundError(f"no such job: {job_id!r}")
                    fingerprint = (record.state, len(record.stages),
                                   record.attempts)
                    if fingerprint != last:
                        last = fingerprint
                        break
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(
                            f"{job_id} still {record.state} after {timeout}s"
                        )
                    self._changed.wait(remaining)
            yield record
            if record.is_terminal:
                return

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued (or recovered-but-not-restarted) job.

        Running and terminal jobs are not cancellable.
        """
        record = self.status(job_id)  # raises JobNotFoundError when unknown
        if record.state not in ("queued", "interrupted"):
            return False
        removed = self.queue.cancel(lambda item: item == job_id)
        if not removed:  # a worker grabbed it between status and cancel
            return False
        self._transition(
            job_id,
            lambda rec: rec.mark_cancelled(self._clock(), reason="cancelled"),
        )
        return True

    # -- sources -------------------------------------------------------------

    def attach_source(self, source: JobSource) -> JobSource:
        self.watcher.attach(source)
        return source

    # -- pool plumbing -------------------------------------------------------

    def _execute_attempt(self, job_id: str, attempt: int) -> str:
        """One attempt at one job (runs on a pool worker thread)."""
        record = self._transition(
            job_id, lambda rec: rec.mark_running(self._clock())
        )
        started: List[str] = []
        completed: set = set()

        def record_stage(stage: str, status: str, metrics: Dict) -> None:
            metrics = dict(metrics or {})
            elapsed = metrics.pop("elapsed_s", None)
            if status == "started":
                started.append(stage)
            elif status == "completed":
                completed.add(stage)
            self._transition(
                job_id,
                lambda rec: rec.with_stage(
                    StageEvent(
                        stage=stage,
                        status=status,
                        at=self._clock(),
                        elapsed_s=elapsed,
                        metrics=metrics,
                    )
                ),
            )

        try:
            return self._runner(record.job, record_stage)
        except BaseException as error:
            # telemetry contract: the stage that blew up is recorded as
            # failed with error details, stages that never ran as skipped
            now = self._clock()
            detail = f"{type(error).__name__}: {error}"
            failing = [s for s in started if s not in completed]
            events = [
                StageEvent(stage=stage, status="failed", at=now, error=detail)
                for stage in (failing or ["attempt"])
            ]
            events += [
                StageEvent(stage=stage, status="skipped", at=now)
                for stage in PIPELINE_STAGES
                if stage not in completed and stage not in failing
            ]
            self._transition(job_id, lambda rec: _with_stages(rec, events))
            raise

    def _on_done(
        self, job_id: str, digest, error: Optional[BaseException]
    ) -> None:
        if error is None:
            self._transition(
                job_id,
                lambda rec: rec.mark_completed(self._clock(), digest),
            )
        else:
            detail = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            self._transition(
                job_id,
                lambda rec: rec.mark_failed(self._clock(), detail),
            )

    def _on_retry(
        self, job_id: str, attempt: int, error: Exception, delay: float
    ) -> None:
        self._transition(
            job_id,
            lambda rec: rec.with_stage(
                StageEvent(
                    stage="retry",
                    status="completed",
                    at=self._clock(),
                    metrics={"attempt": attempt, "backoff_s": delay},
                )
            ),
        )

    def _on_worker_death(
        self, worker: str, job_id, error: BaseException
    ) -> None:
        self.worker_deaths.append((worker, job_id, repr(error)))

    def _on_timeout(self, worker: str, job_id, elapsed: float) -> None:
        """Watchdog verdict: record the blown deadline as a stage event.

        The pool reports the terminal :class:`JobTimeoutError` through
        ``_on_done`` right after this, so the record reads: deadline stage
        failed, then job failed.
        """
        self.job_timeouts.append((worker, job_id, elapsed))
        self._transition(
            job_id,
            lambda rec: rec.with_stage(
                StageEvent(
                    stage="deadline",
                    status="failed",
                    at=self._clock(),
                    elapsed_s=elapsed,
                    error=(
                        f"exceeded the {self.job_timeout_s}s job deadline; "
                        f"worker {worker} abandoned and replaced"
                    ),
                )
            ),
        )

    # -- record bookkeeping --------------------------------------------------

    def _transition(
        self, job_id: str, update: Callable[[JobRecord], JobRecord]
    ) -> JobRecord:
        with self._changed:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFoundError(f"no such job: {job_id!r}")
            if record.is_terminal:
                return record  # late event after cancel/fail: keep terminal
            record = update(record)
            self._records[job_id] = record
            self._persist(record)
            self._changed.notify_all()
        return record

    def _persist(self, record: JobRecord) -> None:
        """Mirror one transition into the index; survive spool faults.

        The in-memory record stays authoritative: a torn or failed append
        (disk full, injected fault) is audited in ``index_errors`` and the
        service keeps running.  Worst case after a crash the lost line
        means an already-finished job is replayed — idempotent, because the
        data plane is deterministic.  Terminal appends also give the index
        a chance to compact itself (bounded growth for long-lived daemons).
        """
        if self.index is None:
            return
        try:
            self.index.append(record)
        except (ReproError, OSError) as exc:
            self.index_errors.append((record.job_id, record.state, repr(exc)))
            return
        if record.is_terminal:
            try:
                self.index.maybe_compact()
            except (ReproError, OSError) as exc:
                self.index_errors.append((record.job_id, "compact", repr(exc)))


def _with_stages(record: JobRecord, events) -> JobRecord:
    for event in events:
        record = record.with_stage(event)
    return record


def _default_runner(job: PreprocessJob, record_stage: StageRecorder) -> str:
    """The real data plane: the job's own generate + executor body with
    ``record_stage`` as its stage hook, then the digest.

    Serial per job (concurrency comes from the pool's workers), and
    digest-identical to ``PreprocessJob.run(parallel=False)`` — it *is*
    that code, minus the work counters.
    """
    results = job.run_shards(parallel=False, on_stage=record_stage)
    return minibatch_digest([r.batch for r in results])
