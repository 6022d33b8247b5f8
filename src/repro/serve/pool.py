"""Persistent worker pool draining the bounded job queue.

A fixed crew of worker threads pulls job ids off a
:class:`~repro.serve.queue.BoundedJobQueue` and pushes each through the
``runner`` callable (the service's staged ShardExecutor path).  The pool
owns three responsibilities the batch executor never needed:

* **retry with backoff** — a runner that raises an ``Exception`` is retried
  up to ``max_retries`` extra times, sleeping ``backoff_s * 2**n``
  between attempts; only then is the job reported failed;
* **worker replacement** — a worker that *dies* (a ``BaseException`` such
  as ``SystemExit`` escaping the runner, the stand-in for a crashed
  process) reports the in-flight job as failed and is replaced by a fresh
  worker, so one poisoned job can never hang the queue;
* **graceful drain** — :meth:`drain` closes the queue and waits until every
  queued and in-flight job has reached a terminal report; :meth:`stop`
  instead cancels the queued tail explicitly and waits only for in-flight
  work.  Either way no job vanishes silently;
* **hung-job defense** — with ``job_timeout_s`` set, a watchdog thread
  checks every in-flight job against its deadline.  A job that blows it is
  reported failed with :class:`~repro.errors.JobTimeoutError`, its worker
  is *abandoned* (Python threads cannot be killed: the thread is dropped
  from the crew, self-checks on its next safe point, and exits quietly)
  and a fresh worker replaces it immediately — so a wedged stage never
  starves the queue and ``alive_workers`` stays at ``num_workers``.

The pool is deliberately thread- (not process-) based: each job runs
inline on its worker thread (the service refuses a job that asks for
``processes``), and the pool layer stays cheap to start, easy to observe,
and able to share the in-memory lifecycle store.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import JobTimeoutError, QueueClosedError, ServeError, is_int
from repro.faults.injector import fault_point
from repro.serve.queue import BoundedJobQueue

#: runner(item, attempt) -> result; raising Exception triggers a retry
JobRunner = Callable[[Any, int], Any]

#: seconds between two deadline checks of the watchdog
WATCHDOG_INTERVAL_S = 0.05


class WorkerPool:
    """Threaded consumers with per-job retry/backoff and self-replacement."""

    def __init__(
        self,
        queue: BoundedJobQueue,
        runner: JobRunner,
        num_workers: int = 2,
        max_retries: int = 1,
        backoff_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        on_done: Optional[Callable[[Any, Any, Optional[BaseException]], None]] = None,
        on_retry: Optional[Callable[[Any, int, Exception, float], None]] = None,
        on_worker_death: Optional[
            Callable[[str, Any, BaseException], None]
        ] = None,
        job_timeout_s: Optional[float] = None,
        on_timeout: Optional[Callable[[str, Any, float], None]] = None,
    ) -> None:
        if not is_int(num_workers) or num_workers <= 0:
            raise ServeError(
                f"num_workers must be a positive int, got {num_workers!r}"
            )
        if not is_int(max_retries) or max_retries < 0:
            raise ServeError(
                f"max_retries must be a non-negative int, got {max_retries!r}"
            )
        if not 0 <= backoff_s < math.inf:
            raise ServeError(
                f"backoff_s must be finite and >= 0, got {backoff_s!r}"
            )
        if job_timeout_s is not None and not 0 < job_timeout_s < math.inf:
            raise ServeError(
                f"job_timeout_s must be positive and finite, got {job_timeout_s!r}"
            )
        self.queue = queue
        self.num_workers = num_workers
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._runner = runner
        self._sleep = sleep
        self._on_done = on_done or (lambda item, result, error: None)
        self._on_retry = on_retry or (lambda item, attempt, error, delay: None)
        self._on_worker_death = on_worker_death or (
            lambda worker, item, error: None
        )
        self.job_timeout_s = job_timeout_s
        self._on_timeout = on_timeout or (lambda worker, item, elapsed: None)
        self._lock = threading.Lock()
        self._threads: Dict[str, threading.Thread] = {}
        #: worker name -> (item, monotonic start of the current attempt run)
        self._inflight: Dict[str, Any] = {}
        #: workers the watchdog gave up on; they self-check and exit quietly
        self._abandoned: set = set()
        self._names = itertools.count()
        self._stopping = False
        self._started = False
        self._replaced = 0
        self._timeouts = 0
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the initial crew and, if deadlined, the watchdog."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for _ in range(self.num_workers):
                self._spawn_locked()
            if self.job_timeout_s is not None:
                self._watchdog = threading.Thread(
                    target=self._watchdog_main,
                    name="serve-watchdog",
                    daemon=True,
                )
                self._watchdog.start()

    def _spawn_locked(self) -> None:
        name = f"serve-worker-{next(self._names)}"
        thread = threading.Thread(
            target=self._worker_main, args=(name,), name=name, daemon=True
        )
        self._threads[name] = thread
        thread.start()

    @property
    def workers_replaced(self) -> int:
        """How many dead workers the pool has replaced so far."""
        with self._lock:
            return self._replaced

    @property
    def jobs_timed_out(self) -> int:
        """How many in-flight jobs the watchdog has failed so far."""
        with self._lock:
            return self._timeouts

    def alive_workers(self) -> int:
        """Live crew members — abandoned (hung) workers don't count."""
        with self._lock:
            return sum(1 for t in self._threads.values() if t.is_alive())

    def inflight(self) -> Dict[str, Any]:
        """worker name -> item currently being executed."""
        with self._lock:
            return {name: item for name, (item, _) in self._inflight.items()}

    # -- worker body ---------------------------------------------------------

    def _worker_main(self, name: str) -> None:
        current = None
        try:
            while True:
                try:
                    item = self.queue.get()
                except QueueClosedError:
                    return
                current = item
                with self._lock:
                    self._inflight[name] = (item, time.monotonic())
                # fault point: the worker dies right after pickup (the
                # crashed-process stand-in); lands in the except below
                fault_point("worker-crash", worker=name, item=item)
                # _run_one clears the in-flight entry on every return: a
                # terminal report claims it, and abandonment means the
                # watchdog already took it.  If _run_one raises instead,
                # the entry survives for the except below to claim.
                self._run_one(name, item)
                if self._is_abandoned(name):
                    return  # the watchdog replaced us; exit quietly
                current = None
        except BaseException as death:  # worker crash: report + replace
            claimed = self._claim_report(name)
            if not claimed and self._is_abandoned(name):
                return  # the watchdog already reported + replaced us
            self._on_worker_death(name, current, death)
            if claimed and current is not None:
                self._on_done(current, None, death)
            with self._lock:
                if not self._stopping:
                    self._replaced += 1
                    self._spawn_locked()

    def _is_abandoned(self, name: str) -> bool:
        with self._lock:
            return name in self._abandoned

    def _claim_report(self, name: str) -> bool:
        """Atomically claim the right to issue the terminal report.

        The claim token is this worker's in-flight entry: exactly one of
        the worker (here) and the watchdog (popping the entry when it
        abandons the worker in :meth:`_check_deadlines`) can take it, so a
        job finishing in the same instant its deadline expires still gets
        exactly one terminal ``on_done`` report.
        """
        with self._lock:
            if name in self._abandoned:
                return False
            return self._inflight.pop(name, None) is not None

    def _run_one(self, name: str, item: Any) -> None:
        """Run one job to a terminal report, retrying transient failures.

        Every terminal report is gated on :meth:`_claim_report`: once the
        watchdog has abandoned this worker and issued the job's terminal
        :class:`JobTimeoutError` report, a late success or failure from
        the stuck thread must go nowhere.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                result = self._runner(item, attempt)
            except Exception as error:
                if attempt > self.max_retries:
                    if self._claim_report(name):
                        self._on_done(item, None, error)
                    return
                if self._is_abandoned(name):
                    return
                delay = self.backoff_s * 2 ** (attempt - 1)
                self._on_retry(item, attempt, error, delay)
                if delay > 0:
                    self._sleep(delay)
                if self._is_abandoned(name):
                    return
                continue
            if self._claim_report(name):
                self._on_done(item, result, None)
            return

    # -- watchdog ------------------------------------------------------------

    def _watchdog_main(self) -> None:
        while not self._watchdog_stop.wait(WATCHDOG_INTERVAL_S):
            self._check_deadlines()

    def _check_deadlines(self) -> None:
        """Fail every in-flight job past its deadline; replace its worker."""
        assert self.job_timeout_s is not None
        now = time.monotonic()
        expired = []
        with self._lock:
            for name, (item, started) in list(self._inflight.items()):
                elapsed = now - started
                if elapsed < self.job_timeout_s:
                    continue
                # abandon: drop the stuck thread from the crew (it will
                # self-check and exit), replace it, and report outside the
                # lock — the on_done callback may take the service's lock
                self._inflight.pop(name)
                self._abandoned.add(name)
                self._threads.pop(name, None)
                self._timeouts += 1
                if not self._stopping:
                    self._replaced += 1
                    self._spawn_locked()
                expired.append((name, item, elapsed))
        for name, item, elapsed in expired:
            self._on_timeout(name, item, elapsed)
            self._on_done(
                item,
                None,
                JobTimeoutError(
                    f"job exceeded its {self.job_timeout_s:.1f}s deadline "
                    f"({elapsed:.1f}s elapsed); worker {name} abandoned "
                    f"and replaced"
                ),
            )

    # -- shutdown ------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Close the queue and finish every queued + in-flight job.

        Dead workers are still replaced while draining, so the tail of the
        queue completes even if a poison job kills its worker.  Returns
        ``True`` when every worker exited within ``timeout``.
        """
        self.queue.close()
        done = self._join(timeout)
        with self._lock:
            self._stopping = True
        self._halt_watchdog()
        return done

    def stop(self, timeout: Optional[float] = None) -> List[Any]:
        """Cancel the queued tail, finish in-flight jobs, and shut down.

        Returns the queued items that were cancelled (never executed) so
        the caller can mark them explicitly — nothing disappears.
        """
        cancelled = self.queue.cancel(lambda item: True)
        self.queue.close()
        self._join(timeout)
        with self._lock:
            self._stopping = True
        self._halt_watchdog()
        return cancelled

    def _halt_watchdog(self) -> None:
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None

    def _join(self, timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                threads = [t for t in self._threads.values() if t.is_alive()]
            if not threads:
                return True
            for thread in threads:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                thread.join(remaining)
            # loop again: a worker may have died and been replaced mid-join
