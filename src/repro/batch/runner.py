"""The fault-tolerant batch runner — per-task dispatch, not ``pool.map``.

:class:`BatchRunner` is the shared execution engine behind ``Sweep.run``
and ``run_experiments`` (both on its inline serial path) and the data
plane's shard fan-out (its process path).  Instead of handing the whole
batch to ``multiprocessing.Pool.map`` — where one OOM-killed worker or one
raising task aborts everything with no record of which task died — the
process path owns a small pool of worker *processes* it talks to over
pipes, submits tasks individually, and turns every misbehavior into a
per-task :class:`~repro.batch.outcomes.BatchOutcome`:

* a task that **raises** is retried with exponential backoff up to
  ``policy.max_retries`` times, then ends ``failed`` — except a
  :class:`~repro.errors.ConfigurationError`, which says the task itself
  is invalid and would raise again, so it ends ``failed`` at once;
* a task that **blocks** past ``policy.task_timeout_s`` has its worker
  terminated and replaced (the serve watchdog's move) and ends
  ``timeout``;
* a worker that **dies** mid-task (OOM kill, SIGKILL, injected crash)
  ends that task ``interrupted`` — never retried, because the runner
  cannot know what side effects the dead attempt had — and a replacement
  worker is spawned for the remaining work.

``policy.failure_mode`` decides what a non-ok outcome means: ``strict``
stops dispatching, drains in-flight tasks (their results are still
journaled and reported through ``on_outcome``), and raises a typed
:class:`~repro.errors.BatchTaskError` /
:class:`~repro.errors.TaskTimeoutError`; ``degrade`` keeps going and
returns the full input-ordered outcome list.

With a :class:`~repro.batch.journal.BatchJournal` attached, every
attempt start and terminal outcome is journaled, and ``run(...,
resume=True)`` replays the journal: completed tasks are prefilled from
their stored result payloads (``decode_result``), everything else —
failed, timed out, interrupted, or merely started when the writer died —
is re-enqueued, and the combined output is byte-identical to an
uninterrupted run.

Workers are forked, so an installed fault injector is inherited and the
``worker-crash`` / ``task-hang`` probes fire deterministically inside
the children — the chaos tier drives the runner through exactly the
code paths a real fleet failure would take.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.batch.journal import BatchJournal
from repro.batch.outcomes import BatchOutcome
from repro.batch.policy import BatchPolicy
from repro.errors import (
    BatchError,
    BatchTaskError,
    ConfigurationError,
    FaultError,
    TaskTimeoutError,
)
from repro.faults.injector import fault_point

# fork keeps an installed fault injector (and any closure state) visible
# in the children; on platforms without fork the default context still
# runs module-level worker functions correctly.
try:
    _CTX = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX fallback
    _CTX = multiprocessing.get_context()


def _child_main(conn, worker_fn: Callable[[Any], Any], name: str) -> None:
    """Worker-process loop: recv a task, run it, send the outcome back.

    The ``worker-crash`` probe raises ``SystemExit`` — a ``BaseException``
    that escapes the ``except Exception`` below and kills the process, so
    the parent sees exactly what an OOM kill looks like: a dead worker
    with a task in flight.  ``task-hang`` blocks past any sane deadline,
    handing the parent watchdog a stuck worker to terminate.  A raising
    task is reported as ``"error"`` (the parent may retry it) or, for a
    ``ConfigurationError``, ``"fatal"`` (it fails at once).
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break  # parent went away; die quietly
        if message is None:
            break  # orderly shutdown
        index, attempt, key, task = message
        started = time.monotonic()
        try:
            fault_point("worker-crash", item=key, worker=name)
            fault_point("task-hang", item=key, worker=name)
            result = worker_fn(task)
        except Exception as exc:
            kind = "fatal" if isinstance(exc, ConfigurationError) else "error"
            try:
                conn.send((kind, index, attempt,
                           f"{type(exc).__name__}: {exc}",
                           time.monotonic() - started))
            except (BrokenPipeError, OSError):
                break
        else:
            try:
                conn.send(("ok", index, attempt, result,
                           time.monotonic() - started))
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side handle for one batch worker process."""

    def __init__(self, worker_fn: Callable[[Any], Any], name: str) -> None:
        parent_end, child_end = _CTX.Pipe()
        self.conn = parent_end
        self.name = name
        self.current: Optional[int] = None  # index of the in-flight task
        self.deadline: Optional[float] = None  # monotonic watchdog deadline
        self.proc = _CTX.Process(
            target=_child_main,
            args=(child_end, worker_fn, name),
            name=name,
            daemon=True,
        )
        self.proc.start()
        child_end.close()


def _default_key(index: int, task: Any) -> str:
    return f"task-{index}"


class BatchRunner:
    """Shared fault-tolerant executor for the batch tier (see module doc).

    ``task_key(index, task)`` must return a *content* identity (a digest)
    when resume matters — it is pinned in the journal header and verified
    positionally on resume.  ``encode_result`` / ``decode_result`` map
    results to/from the JSON payload journaled for ``ok`` tasks (default:
    identity, for results that are already plain JSON).  ``on_outcome``
    is called in the parent as each *fresh* terminal outcome lands —
    ``run_experiments`` uses it to cache completed results even when a
    later task fails in strict mode.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        policy: Optional[BatchPolicy] = None,
        journal: Optional[BatchJournal] = None,
        task_key: Callable[[int, Any], str] = _default_key,
        task_label: Optional[Callable[[int, Any], str]] = None,
        encode_result: Callable[[int, Any], Any] = lambda index, result: result,
        decode_result: Callable[[int, Any], Any] = lambda index, payload: payload,
        on_outcome: Optional[Callable[[BatchOutcome], None]] = None,
    ) -> None:
        if not callable(worker_fn):
            raise BatchError(f"worker_fn must be callable, got {worker_fn!r}")
        self.worker_fn = worker_fn
        self.policy = policy if policy is not None else BatchPolicy()
        self.journal = journal
        self.task_key = task_key
        self.task_label = task_label or task_key
        self.encode_result = encode_result
        self.decode_result = decode_result
        self.on_outcome = on_outcome
        #: journal appends that failed (torn write, disk full) — the
        #: journal self-heals on the next append, the batch keeps going
        self.journal_errors: List[str] = []
        #: workers still alive after shutdown escalated to SIGKILL
        self.leaked_workers = 0
        #: tasks prefilled from the journal by the last resumed run
        self.resumed_tasks = 0

    # -- public entry point --------------------------------------------------

    def run(self, tasks: Sequence[Any], parallel: bool = True,
            resume: bool = False,
            precomputed: Optional[Dict[int, Any]] = None,
            ) -> List[BatchOutcome]:
        """Execute ``tasks``; outcomes come back in input order.

        In ``strict`` mode a non-ok task raises after in-flight work
        drains; in ``degrade`` mode every task ends in an outcome and the
        full list is returned.  With ``resume=True`` the journal is
        replayed first: tasks whose last terminal line is ``ok`` are
        prefilled from their stored payloads, everything else re-runs.
        ``precomputed`` maps task indices to results obtained elsewhere
        (a cache): they become ``ok`` outcomes with ``attempts=0`` —
        journaled like fresh completions, but distinguishable from them.
        ``parallel=False`` runs the tasks inline, with no worker to
        abandon or count, so a policy carrying ``task_timeout_s`` or
        ``processes`` is a :class:`~repro.errors.ConfigurationError`
        before any task runs.
        """
        if not parallel:
            unused = [
                f"{name}={value!r}"
                for name, value in (
                    ("task_timeout_s", self.policy.task_timeout_s),
                    ("processes", self.policy.processes),
                )
                if value is not None
            ]
            if unused:
                raise ConfigurationError(
                    f"the serial batch runner cannot honour "
                    f"{', '.join(unused)}: it runs tasks inline, with no "
                    f"worker process to time out or count"
                )
        tasks = list(tasks)
        keys = [self.task_key(i, task) for i, task in enumerate(tasks)]
        labels = [str(self.task_label(i, task))
                  for i, task in enumerate(tasks)]
        outcomes: Dict[int, BatchOutcome] = {}
        #: strict mode's non-ok outcomes: the first stops dispatch and raises
        failures: List[BatchOutcome] = []

        def settle(index: int, state: str, attempts: int, elapsed_s: float,
                   result: Any = None, error: Optional[str] = None) -> None:
            """Every fresh terminal outcome lands here: stored, journaled,
            reported through ``on_outcome``, and — non-ok under ``strict``
            — noted as the failure that ends the batch."""
            outcome = BatchOutcome(
                index=index, key=keys[index], label=labels[index],
                state=state, attempts=attempts, elapsed_s=elapsed_s,
                result=result, error=error,
            )
            outcomes[index] = outcome
            if self.journal is not None:
                payload = (
                    self.encode_result(index, result) if outcome.ok else None
                )
                self._journal_safely(
                    lambda: self.journal.task_done(outcome, payload)
                )
            if self.on_outcome is not None:
                self.on_outcome(outcome)
            if not outcome.ok and self.policy.failure_mode == "strict":
                failures.append(outcome)

        self.resumed_tasks = 0
        if resume:
            if self.journal is None:
                raise BatchError("resume requires a batch journal")
            state = self.journal.load()
            if list(state.keys) != keys:
                raise BatchError(
                    f"journal {self.journal.path} does not describe this "
                    f"batch: journal pins {len(state.keys)} task keys, "
                    f"this batch has {len(keys)}, and/or their content "
                    f"digests differ"
                )
            for index in sorted(state.completed()):
                line = state.outcomes[index]
                outcomes[index] = BatchOutcome(
                    index=index,
                    key=keys[index],
                    label=labels[index],
                    state="ok",
                    attempts=int(line.get("attempts") or 0),
                    elapsed_s=float(line.get("elapsed_s") or 0.0),
                    result=self.decode_result(index, line.get("result")),
                )
            self.resumed_tasks = len(outcomes)
            self._journal_safely(self.journal.mark_resume)
        elif self.journal is not None:
            self._journal_safely(
                lambda: self.journal.start_run(keys, self.policy)
            )
        for index, result in sorted((precomputed or {}).items()):
            if index in outcomes:
                continue  # the journal's replayed result wins
            if not (0 <= index < len(tasks)):
                raise BatchError(
                    f"precomputed index {index} out of range for "
                    f"{len(tasks)} tasks"
                )
            settle(index, "ok", 0, 0.0, result=result)
        pending = [i for i in range(len(tasks)) if i not in outcomes]
        if pending:
            execute = self._run_parallel if parallel else self._run_serial
            execute(tasks, keys, pending, settle, failures)
        if failures:
            self._raise_strict(failures[0])
        return [outcomes[i] for i in sorted(outcomes)]

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, tasks, keys, pending, settle, failures) -> None:
        """Inline execution with retries (``run`` has refused a policy
        carrying ``task_timeout_s`` or ``processes``)."""
        for index in pending:
            if failures:
                return
            attempts = 0
            started = time.monotonic()
            while True:
                attempts += 1
                if self.journal is not None:
                    self._journal_safely(
                        lambda: self.journal.task_started(
                            index, keys[index], attempts
                        )
                    )
                try:
                    result = self.worker_fn(tasks[index])
                except Exception as exc:
                    if attempts <= self.policy.max_retries and not isinstance(
                        exc, ConfigurationError
                    ):
                        time.sleep(self.policy.backoff_for(attempts))
                        continue
                    settle(index, "failed", attempts,
                           time.monotonic() - started,
                           error=f"{type(exc).__name__}: {exc}")
                else:
                    settle(index, "ok", attempts,
                           time.monotonic() - started, result=result)
                break

    # -- parallel path -------------------------------------------------------

    def _run_parallel(self, tasks, keys, pending, settle, failures) -> None:
        policy = self.policy
        ready = deque(pending)
        attempts: Dict[int, int] = {i: 0 for i in pending}
        first_started: Dict[int, float] = {}
        retries: List[tuple] = []  # (not-before monotonic, index)
        spawned = policy.worker_count(len(pending))
        workers: List[_Worker] = [
            _Worker(self.worker_fn, f"batch-worker-{n}")
            for n in range(spawned)
        ]

        def lose(worker: _Worker, died: bool) -> None:
            """``worker`` died mid-task (OOM kill, SIGKILL, injected
            crash) or is stuck past its deadline: reap or terminate it,
            settle its task ``interrupted`` / ``timeout`` — never retried,
            the runner cannot know what side effects the lost attempt had
            — and spawn a replacement while dispatchable work remains."""
            nonlocal spawned
            index = worker.current
            elapsed = time.monotonic() - first_started[index]
            self._stop([worker], graceful=died)
            workers.remove(worker)
            if died:
                settle(index, "interrupted", attempts[index], elapsed, error=(
                    f"worker {worker.name} died while running this task "
                    f"(exitcode {worker.proc.exitcode})"
                ))
            else:
                settle(index, "timeout", attempts[index], elapsed, error=(
                    f"task exceeded task_timeout_s={policy.task_timeout_s}; "
                    f"worker {worker.name} terminated and replaced"
                ))
            if not failures and (ready or retries):
                workers.append(
                    _Worker(self.worker_fn, f"batch-worker-{spawned}")
                )
                spawned += 1

        try:
            while True:
                now = time.monotonic()
                # promote due retries back into the ready queue
                if retries and not failures:
                    due = sorted(
                        index for when, index in retries if when <= now
                    )
                    if due:
                        retries = [
                            entry for entry in retries if entry[0] > now
                        ]
                        ready.extend(due)
                # dispatch to idle workers (strict stop: drain only)
                if not failures:
                    for worker in workers:
                        if not ready:
                            break
                        if worker.current is not None:
                            continue
                        self._dispatch(
                            worker, ready.popleft(), tasks, keys,
                            attempts, first_started, now
                        )
                in_flight = [w for w in workers if w.current is not None]
                if not in_flight:
                    if failures:
                        break
                    if not ready and not retries:
                        break  # all outcomes landed
                # how long to block: next watchdog deadline or next retry
                wait_until = None
                for worker in in_flight:
                    if worker.deadline is not None and (
                        wait_until is None or worker.deadline < wait_until
                    ):
                        wait_until = worker.deadline
                if retries and not failures:
                    next_retry = min(when for when, _ in retries)
                    if wait_until is None or next_retry < wait_until:
                        wait_until = next_retry
                timeout = (
                    0.25 if wait_until is None
                    else max(0.0, min(wait_until - now, 0.25))
                )
                if in_flight:
                    readable = connection.wait(
                        [w.conn for w in in_flight], timeout
                    )
                else:
                    time.sleep(min(timeout, 0.05) or 0.01)
                    readable = []
                # drain messages and reap dead workers
                for worker in list(workers):
                    if worker.current is None or worker.conn not in readable:
                        continue
                    index = worker.current
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        lose(worker, died=True)
                        continue
                    kind, msg_index, _attempt, payload, elapsed = message
                    worker.current = None
                    worker.deadline = None
                    if msg_index != index:  # pragma: no cover - protocol bug
                        raise BatchError(
                            f"worker {worker.name} answered for task "
                            f"{msg_index}, expected {index}"
                        )
                    if kind == "ok":
                        settle(index, "ok", attempts[index], elapsed,
                               result=payload)
                    elif (
                        kind == "error"
                        and attempts[index] <= policy.max_retries
                        and not failures
                    ):
                        retries.append((
                            time.monotonic()
                            + policy.backoff_for(attempts[index]),
                            index,
                        ))
                    else:
                        settle(index, "failed", attempts[index], elapsed,
                               error=payload)
                # watchdog: terminate and replace workers past deadline
                now = time.monotonic()
                for worker in list(workers):
                    if (
                        worker.current is not None
                        and worker.deadline is not None
                        and now >= worker.deadline
                    ):
                        lose(worker, died=False)
        finally:
            self._stop(workers, graceful=True)

    def _dispatch(self, worker, index, tasks, keys, attempts,
                  first_started, now) -> None:
        attempts[index] += 1
        first_started.setdefault(index, now)
        if self.journal is not None:
            self._journal_safely(
                lambda: self.journal.task_started(
                    index, keys[index], attempts[index]
                )
            )
        worker.conn.send((index, attempts[index], keys[index], tasks[index]))
        worker.current = index
        worker.deadline = (
            now + self.policy.task_timeout_s
            if self.policy.task_timeout_s is not None
            else None
        )

    def _stop(self, workers: List[_Worker], graceful: bool) -> None:
        """Tear ``workers`` down: when ``graceful`` ask them to exit and
        give them 2 s, then terminate -> join -> SIGKILL -> join whatever
        is still alive, count what survives even that, close the pipes."""
        if graceful:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + 2.0
            for worker in workers:
                worker.proc.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in workers:
            worker.proc.join(1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - defensive
                self.leaked_workers += 1
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- bookkeeping ---------------------------------------------------------

    def _journal_safely(self, write: Callable[[], None]) -> None:
        """Journal appends must not kill the batch: a torn write or a
        full disk is recorded and the journal self-heals on the next
        append — the affected task simply re-runs on resume."""
        try:
            write()
        except (FaultError, OSError) as exc:
            self.journal_errors.append(f"{type(exc).__name__}: {exc}")

    def _raise_strict(self, outcome: BatchOutcome) -> None:
        if outcome.state == "timeout":
            raise TaskTimeoutError(
                f"batch task {outcome.label} "
                f"(attempt {outcome.attempts}): {outcome.error}"
            )
        raise BatchTaskError(
            f"batch task {outcome.label} ended {outcome.state} after "
            f"{outcome.attempts} attempt(s): {outcome.error}"
        )
