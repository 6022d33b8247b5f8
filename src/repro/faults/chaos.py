"""The chaos harness — a seeded fault matrix against a live service.

``repro chaos`` (and :func:`run_chaos`, its library form) runs one
*episode* per requested fault class: it starts a real
:class:`~repro.serve.PreprocessService` behind a real
:class:`~repro.serve.ServiceServer`, installs a seeded
:class:`~repro.faults.FaultInjector`, submits a stream of jobs through the
socket protocol, and then asserts the service's survival invariants:

1. **every job reaches a terminal state** — nothing queued, running, or
   interrupted survives the drain;
2. **completed digests are byte-identical to the serial path** — faults
   may fail jobs, but they may never corrupt output silently;
3. **no duplicate completions** — the JSONL index holds at most one
   terminal line per job;
4. **no leaked or hung workers** — ``alive_workers == workers`` after the
   last job settles (crashed and timed-out workers were replaced).

Everything in an episode's report except wall time is deterministic for a
fixed seed: fault firing hashes (seed, point, job identity), jobs are
submitted from one thread, and each job's outcome is decided by its own
hash — so ``repro chaos --seed 7`` twice yields the same report, and a
failing seed replays exactly.
"""

from __future__ import annotations

import collections
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.api.preprocess import PreprocessJob
from repro.errors import ChaosError, ConfigurationError, ReproError, is_int
from repro.faults.injector import FaultInjector, installed
from repro.faults.plan import FAULT_POINTS, FaultPlan, FaultRule, check_probed

#: the default matrix CI smokes: crash, hang, and torn-index classes
DEFAULT_FAULTS = ("worker-crash", "hung-stage", "torn-write")

#: the batch tier's default matrix (task-hang replaces hung-stage — the
#: batch runner's watchdog deadline lives at the task, not the stage)
DEFAULT_BATCH_FAULTS = ("worker-crash", "task-hang", "torn-write")

#: the fleet tier's matrix: node failures, degraded nodes, flash crowds
DEFAULT_FLEET_FAULTS = ("node-down", "slow-node", "arrival-burst")

#: the chaos tiers: a live streaming service, a batch runner fan-out, or
#: a simulated fleet
CHAOS_TIERS = ("serve", "batch", "fleet")


def plan_for(
    tier: str, fault: str, seed: int, job_timeout_s: Optional[float],
    rate: Optional[float] = None,
) -> FaultPlan:
    """The canonical single-class plan ``tier``'s episode runs under,
    refusing a class the tier never probes; ``job_timeout_s`` is the
    episode's job deadline, None for a tier that has none (the fleet)."""
    check_probed(tier, (fault,))
    rule = FaultRule(
        point=fault,
        rate=FAULT_POINTS[fault].rate if rate is None else rate,
        # a hang must outlive the watchdog deadline by a wide margin so the
        # watchdog — not the hang expiring — is what resolves the job
        delay_s=(
            job_timeout_s * 10.0 + 5.0
            if fault in ("hung-stage", "task-hang") and job_timeout_s is not None
            else 0.02 if fault in ("slow-stage", "queue-stall") else None
        ),
    )
    return FaultPlan(seed=seed, rules=(rule,))


def _submit_all(
    client, jobs: List[PreprocessJob], retries: int = 5
) -> int:
    """Submit every job, retrying dropped replies; returns acked count."""
    from repro.errors import ProtocolError, ServeError

    acked = 0
    for job in jobs:
        for _ in range(retries):
            try:
                client.submit(job)
                acked += 1
                break
            except (ProtocolError, ServeError):
                # a dropped reply may or may not have landed server-side;
                # resubmitting is safe — duplicates are distinct job ids
                # with identical specs, and the digest invariant covers both
                continue
    return acked


def _tally(states: Iterable[str]) -> Dict[str, int]:
    """How many times each state occurs, in sorted state order."""
    return dict(sorted(collections.Counter(states).items()))


class _Episode:
    """The frame the three tiers' episodes share — not their bodies: the
    single-class plan, a fresh injector, the violation list, the
    serial-digest memo, the clock, and the report's common shape."""

    def __init__(
        self, tier: str, fault: str, seed: int,
        job_timeout_s: Optional[float], rate: Optional[float],
    ) -> None:
        self.fault = fault
        self.plan = plan_for(tier, fault, seed, job_timeout_s, rate=rate)
        self.injector = FaultInjector(self.plan)
        self.violations: List[str] = []
        self.digests_checked = 0
        self._serial: Dict[PreprocessJob, str] = {}
        self._started = time.perf_counter()

    def check_digest(
        self, job: PreprocessJob, digest: str, what: str, count: int = 1
    ) -> None:
        """Invariant 2: ``digest`` equals ``job``'s serial-path digest (the
        reference every tier's output must equal, computed once per job)."""
        if job not in self._serial:
            self._serial[job] = job.run(parallel=False).digest
        self.digests_checked += count
        if digest != self._serial[job]:
            self.violations.append(
                f"{what} {digest} != serial {self._serial[job]}"
            )

    def report(
        self, jobs: int, states: Dict[str, int], index_errors: int = 0, **extra: Any
    ) -> Dict[str, Any]:
        return {
            "fault": self.fault,
            "plan": self.plan.to_dict(),
            "jobs": jobs,
            "states": states,
            **extra,
            "fired": self.injector.fire_counts(),
            "digests_checked": self.digests_checked,
            "index_errors": index_errors,
            "violations": self.violations,
            "elapsed_s": time.perf_counter() - self._started,
        }


def run_episode(
    fault: str,
    seed: int,
    spool_dir: str,
    num_jobs: int = 6,
    rows: int = 512,
    shards: int = 2,
    workers: int = 2,
    queue_capacity: int = 16,
    job_timeout_s: float = 5.0,
    model: str = "RM1",
    rate: Optional[float] = None,
    wait_timeout: float = 120.0,
    runner: Optional[Callable] = None,
    verify_serial: bool = True,
) -> Dict[str, Any]:
    """One fault class against one live service; returns the episode report.

    ``runner``/``verify_serial`` let a caller drive the episode with a stub
    data plane (which has no serial digest to verify against); ``repro
    chaos`` always runs the real runner with verification on.
    """
    from repro.journal import JsonlJournal
    from repro.serve import JobLogIndex, PreprocessService, ServiceClient, ServiceServer
    from repro.serve.records import TERMINAL_STATES

    episode = _Episode("serve", fault, seed, job_timeout_s, rate)
    violations = episode.violations
    with installed(episode.injector):
        service = PreprocessService(
            spool_dir=spool_dir,
            queue_capacity=queue_capacity,
            num_workers=workers,
            max_retries=1,
            backoff_s=0.01,
            job_timeout_s=job_timeout_s,
            runner=runner,
        )
        server = ServiceServer(service)
        server.start()
        try:
            client = ServiceClient(host=server.host, port=server.port)
            jobs = [
                PreprocessJob(
                    model=model, num_rows=rows, num_shards=shards, seed=k
                )
                for k in range(num_jobs)
            ]
            acked = _submit_all(client, jobs)
            if acked < len(jobs) and len(service.jobs()) < len(jobs):
                # fewer service-side records than requested jobs means at
                # least one submission truly vanished (not just a dropped
                # ack) — the invariants below would silently gate over a
                # smaller workload, so record it as a violation
                violations.append(
                    f"lost submissions: {acked}/{len(jobs)} acked, "
                    f"{len(service.jobs())} jobs recorded service-side"
                )
            # wait on the service's own ledger: a dropped submit reply can
            # leave a job the client never heard about
            deadline = time.monotonic() + wait_timeout
            for record in service.jobs():
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    service.wait(record.job_id, timeout=remaining)
                except TimeoutError:
                    violations.append(
                        f"{record.job_id} never reached a terminal state "
                        f"(stuck {service.status(record.job_id).state})"
                    )
            # every death/timeout must have been answered with a replacement
            for _ in range(50):
                if service.pool.alive_workers() == workers:
                    break
                time.sleep(0.05)
            alive = service.pool.alive_workers()
            if alive != workers:
                violations.append(
                    f"worker leak: {alive} alive workers, expected {workers}"
                )
        finally:
            server.stop(drain=True, timeout=60.0)

    records = service.jobs()
    for record in records:
        if not record.is_terminal:
            violations.append(
                f"{record.job_id} ended non-terminal ({record.state})"
            )

    if verify_serial and runner is None:
        for record in records:
            if record.state == "completed":
                episode.check_digest(
                    record.job, record.digest, f"{record.job_id} digest"
                )

    # the index must have survived every injected spool fault: still
    # loadable, and never more than one terminal line per job
    index_path = os.path.join(spool_dir, "jobs.jsonl")
    terminal_lines: Dict[str, int] = collections.Counter()
    try:
        JobLogIndex(index_path).load()  # loud on anything but a torn tail
        for _, text, complete in JsonlJournal(index_path).read():
            if not complete:
                continue  # torn final append — load() tolerates it too
            payload = json.loads(text.decode("utf-8"))
            if payload.get("state") in TERMINAL_STATES:
                terminal_lines[payload["job_id"]] += 1
    except (ReproError, OSError, ValueError) as exc:
        violations.append(f"job index unreadable after faults: {exc}")
    duplicates = {k: n for k, n in terminal_lines.items() if n > 1}
    if duplicates:
        violations.append(f"duplicate terminal index lines: {duplicates}")

    return episode.report(
        jobs=len(records),
        states=_tally(record.state for record in records),
        index_errors=len(service.index_errors),
    )


def _chaos_batch_task(job: PreprocessJob) -> str:
    """Module-level batch worker: one job's serial content digest."""
    return job.run(parallel=False).digest


def run_batch_episode(
    fault: str,
    seed: int,
    spool_dir: str,
    num_jobs: int = 6,
    rows: int = 512,
    shards: int = 2,
    workers: int = 2,
    job_timeout_s: float = 5.0,
    model: str = "RM1",
    rate: Optional[float] = None,
    verify_serial: bool = True,
) -> Dict[str, Any]:
    """One fault class against the batch runner; returns the episode report.

    The episode fans ``num_jobs`` preprocessing jobs across a
    :class:`~repro.batch.runner.BatchRunner` (degrade mode, journaled
    under ``spool_dir``) with the injector installed, then gates the
    batch tier's four invariants: every task terminal, ok digests equal
    to the serial path, journal loadable with at most one terminal line
    per task per run segment, and no leaked worker processes.  A final
    resume pass *without* the injector must then complete every task with
    serial-identical digests — the crash-recovery guarantee itself.

    Keyword names mirror :func:`run_episode`: ``workers`` is the process
    count, ``job_timeout_s`` the per-task watchdog deadline.
    """
    from repro.batch import BatchJournal, BatchPolicy, BatchRunner, content_key

    episode = _Episode("batch", fault, seed, job_timeout_s, rate)
    violations = episode.violations
    jobs = [
        PreprocessJob(model=model, num_rows=rows, num_shards=shards, seed=k)
        for k in range(num_jobs)
    ]
    policy = BatchPolicy(
        max_retries=1,
        backoff_s=0.01,
        task_timeout_s=job_timeout_s,
        failure_mode="degrade",
        processes=workers,
    )
    journal = BatchJournal(
        os.path.join(spool_dir, "batch.jsonl"), run_id=f"chaos-{fault}"
    )
    runner = BatchRunner(
        _chaos_batch_task,
        policy=policy,
        journal=journal,
        task_key=content_key,
    )
    with installed(episode.injector):
        outcomes = runner.run(jobs, parallel=True)

    # invariant 1: every task ended in a terminal outcome
    if len(outcomes) != num_jobs:
        violations.append(
            f"only {len(outcomes)}/{num_jobs} tasks reached a terminal "
            f"outcome"
        )
    # invariant 2: completed digests byte-identical to the serial path
    if verify_serial:
        for outcome in outcomes:
            if outcome.ok:
                episode.check_digest(
                    jobs[outcome.index], outcome.result,
                    f"task {outcome.index} digest",
                )
    # invariant 3: the journal survived every injected fault — loadable,
    # and never more than one terminal line per task per run segment
    try:
        state = journal.load()
        if state.max_terminal_per_segment > 1:
            violations.append(
                f"duplicate terminal journal lines: a task got "
                f"{state.max_terminal_per_segment} in one run segment"
            )
    except ReproError as exc:
        violations.append(f"batch journal unreadable after faults: {exc}")
    # invariant 4: every crashed/stuck worker was reaped, none leaked
    if runner.leaked_workers:
        violations.append(
            f"worker leak: {runner.leaked_workers} worker process(es) "
            f"survived shutdown"
        )
    # recovery: resuming WITHOUT the injector must finish every task and
    # converge on the serial digests
    resumed_states: Dict[str, int] = {}
    if verify_serial:
        resumer = BatchRunner(
            _chaos_batch_task,
            policy=policy,
            journal=BatchJournal(journal.path, run_id=journal.run_id),
            task_key=content_key,
        )
        try:
            resumed = resumer.run(jobs, parallel=True, resume=True)
        except ReproError as exc:
            violations.append(f"resume after faults failed: {exc}")
        else:
            resumed_states = _tally(outcome.state for outcome in resumed)
            for outcome in resumed:
                if not outcome.ok:
                    violations.append(
                        f"task {outcome.index} still {outcome.state} after "
                        f"fault-free resume: {outcome.error}"
                    )
                    continue
                # already counted under invariant 2; this is the recovery gate
                episode.check_digest(
                    jobs[outcome.index], outcome.result,
                    f"task {outcome.index} resume digest", count=0,
                )

    return episode.report(
        jobs=len(outcomes),
        states=_tally(outcome.state for outcome in outcomes),
        index_errors=len(runner.journal_errors),
        resumed_states=resumed_states,
    )


def _fleet_episode_pools():
    """Small two-pool fleet the chaos episodes attack (fast, heterogeneous)."""
    from repro.fleet.simulator import PoolSpec

    return (
        PoolSpec(
            name="disagg-cpu", system="Disagg", nodes=48,
            workers_per_node=32, min_nodes=16, max_nodes=96,
            scaleup_latency_s=120.0,
        ),
        PoolSpec(
            name="presto-ssd", system="PreSto", nodes=8,
            workers_per_node=8, min_nodes=4, max_nodes=32,
            scaleup_latency_s=120.0,
        ),
    )


def run_fleet_episode(
    fault: str,
    seed: int,
    spool_dir: str,
    num_jobs: int = 6,
    rate: Optional[float] = None,
    trace_kind: str = "diurnal",
    policy: str = "first-fit",
    autoscaler: str = "target-utilization",
) -> Dict[str, Any]:
    """One fleet fault class against the simulated cluster scheduler.

    The serve/batch tiers submit ``num_jobs`` real jobs; a fleet needs
    hundreds of arrivals before scheduling is interesting, so the episode
    replays a seeded trace of ``20 x num_jobs`` arrivals over six
    simulated hours.  Invariants gated:

    1. **every job terminal** — completed or rejected, nothing queued or
       running after the drain;
    2. **displaced jobs rescheduled exactly once** per displacement —
       displacements are counted when a node failure kills an
       allocation, reschedules when the displaced job later wins
       capacity again, so the two counters witness independent code
       paths and must agree per job (and every displaced job must end
       the run completed — displacement never strands or rejects a job
       the fleet already admitted);
    3. **job conservation** — completed + rejected equals the jobs that
       arrived (trace arrivals plus injected burst clones);
    4. **deterministic report** — a second run under a fresh injector
       yields the byte-identical :class:`FleetResult` digest.

    The run's ``FleetResult`` JSON lands in ``spool_dir/fleet_result.json``
    for CI artifact upload.
    """
    from repro.fleet.simulator import FleetSimulator
    from repro.fleet.trace import generate_trace

    episode = _Episode("fleet", fault, seed, None, rate)  # no deadline
    violations = episode.violations
    trace = generate_trace(
        trace_kind,
        num_jobs=num_jobs * 20,
        seed=seed,
        horizon_s=6 * 3600.0,
        mean_duration_s=1200.0,
    )

    def one_run(injector: FaultInjector):
        return FleetSimulator(
            trace,
            pools=_fleet_episode_pools(),
            policy=policy,
            autoscaler=autoscaler,
            injector=injector,
        ).run()

    result = one_run(episode.injector)
    replay = one_run(FaultInjector(episode.plan))

    if not result.all_terminal():
        stuck = [j.job_id for j in result.jobs if not j.terminal]
        violations.append(f"non-terminal jobs after drain: {stuck[:5]}")
    # displacements count node-failure evictions, reschedules count the
    # displaced job winning capacity again — independent paths, so a
    # lost or doubled requeue shows up as a per-job mismatch here
    for job in result.jobs:
        if job.reschedules != job.displacements:
            violations.append(
                f"job {job.job_id!r} displaced {job.displacements}x but "
                f"rescheduled {job.reschedules}x"
            )
        if job.displacements > 0 and job.state != "completed":
            violations.append(
                f"displaced job {job.job_id!r} ended {job.state!r}, "
                "not completed"
            )
    if result.completed + result.rejected != result.num_jobs:
        violations.append(
            f"job conservation broken: {result.completed} completed + "
            f"{result.rejected} rejected != {result.num_jobs} jobs"
        )
    episode.digests_checked = 1
    if replay.digest != result.digest:
        violations.append(
            f"nondeterministic fleet run: digest {result.digest} != "
            f"replay {replay.digest}"
        )

    os.makedirs(spool_dir, exist_ok=True)
    with open(os.path.join(spool_dir, "fleet_result.json"), "w") as handle:
        json.dump(result.to_dict(), handle, indent=1)

    return episode.report(
        jobs=result.num_jobs,
        states={"completed": result.completed, "rejected": result.rejected},
        displacements=result.displacements,
        reschedules=result.reschedules,
        digest=result.digest,
    )


def run_chaos(
    faults: Optional[Sequence[str]] = None,
    seed: int = 0,
    spool_root: Optional[str] = None,
    tier: str = "serve",
    **episode_kwargs: Any,
) -> Dict[str, Any]:
    """Run one episode per fault class; returns the full matrix report.

    ``tier`` picks the surface under test: ``serve`` drives a live
    streaming service (:func:`run_episode`), ``batch`` drives the
    fault-tolerant batch runner (:func:`run_batch_episode`), ``fleet``
    drives the simulated cluster scheduler (:func:`run_fleet_episode`).
    ``faults`` defaults to the tier's canonical matrix.  Refused with a
    :class:`ConfigurationError` before any spool directory or episode
    exists: a class the tier never probes (its episode would inject
    nothing and pass), a keyword the tier's episode does not take
    (``rows`` for the fleet, ``trace_kind`` for the service), and a
    ``num_jobs`` that is not a positive int (an episode of no jobs would
    pass having checked nothing).  The report's ``ok`` is True iff no
    episode recorded a violation.
    Everything except the ``elapsed_s`` fields is deterministic for a
    fixed seed (see :func:`deterministic_view`).
    """
    import inspect
    import shutil
    import tempfile

    if tier not in CHAOS_TIERS:
        raise ConfigurationError(
            f"tier must be one of {CHAOS_TIERS}, got {tier!r}"
        )
    tiers = {
        "serve": (run_episode, DEFAULT_FAULTS),
        "batch": (run_batch_episode, DEFAULT_BATCH_FAULTS),
        "fleet": (run_fleet_episode, DEFAULT_FLEET_FAULTS),
    }
    episode, default_faults = tiers[tier]
    # what run_chaos passes itself is not the caller's to set
    known = set(inspect.signature(episode).parameters) - {
        "fault", "seed", "spool_dir"
    }
    unknown = sorted(set(episode_kwargs) - known)
    if unknown:
        raise ConfigurationError(
            f"chaos tier {tier!r} takes no keyword(s) {unknown}; "
            f"it takes {sorted(known)}"
        )
    if "num_jobs" in episode_kwargs:
        num_jobs = episode_kwargs["num_jobs"]
        if not is_int(num_jobs) or num_jobs < 1:
            raise ConfigurationError(
                f"num_jobs must be a positive int, got {num_jobs!r}"
            )
    faults = check_probed(tier, default_faults if faults is None else faults)
    owned = spool_root is None
    root = spool_root or tempfile.mkdtemp(prefix="repro-chaos-")
    started = time.perf_counter()
    episodes = []
    try:
        for fault in faults:
            spool = os.path.join(root, fault)
            episodes.append(
                episode(fault, seed=seed, spool_dir=spool, **episode_kwargs)
            )
    finally:
        if owned:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "schema_version": 1,
        "seed": seed,
        "tier": tier,
        "faults": list(faults),
        "episodes": episodes,
        "ok": all(not ep["violations"] for ep in episodes),
        "elapsed_s": time.perf_counter() - started,
    }


def deterministic_view(report: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus wall-time — byte-identical run-to-run per seed."""
    view = {k: v for k, v in report.items() if k != "elapsed_s"}
    view["episodes"] = [
        {k: v for k, v in ep.items() if k != "elapsed_s"}
        for ep in report["episodes"]
    ]
    return view


def check_report(report: Dict[str, Any]) -> None:
    """Raise :class:`ChaosError` naming every violation (CI's gate)."""
    problems = [
        f"[{ep['fault']}] {violation}"
        for ep in report["episodes"]
        for violation in ep["violations"]
    ]
    if problems:
        raise ChaosError(
            "chaos invariants violated:\n  " + "\n  ".join(problems)
        )


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable episode table."""
    from repro.api.experiment import format_table

    rows = []
    for ep in report["episodes"]:
        states = ", ".join(f"{k}={v}" for k, v in ep["states"].items())
        fired = ", ".join(
            f"{k}x{v}" for k, v in ep["fired"].items()
        ) or "none"
        rows.append(
            (
                ep["fault"],
                ep["jobs"],
                states,
                fired,
                ep["digests_checked"],
                len(ep["violations"]),
                f"{ep['elapsed_s']:.2f}",
            )
        )
    title = (
        f"Chaos matrix (seed {report['seed']}): "
        + ("all invariants held" if report["ok"] else "VIOLATIONS")
    )
    return format_table(
        ("fault", "jobs", "states", "fired", "digests", "violations", "s"),
        rows,
        title,
    )
