"""Scaling laws by count: calls per unit of input stay flat at 10x input.

The north star asks that cost per row, batch, event, task or job not grow
with the input.  On a shared two-vCPU host, wall time cannot resolve a 10%
drift; the number of Python-level calls (``call`` and ``c_call`` profile
events: functions and builtins) is exact per seed, so every law here gates
each push.  A law runs one tier at 1x and 10x input and holds calls per
unit at 10x to at most :data:`BOUND` times those at 1x.  One uncounted run
of the 1x input goes first, so imports, ``lru_cache`` fills and per-object
memos are not charged to the 1x side.  What a count cannot see (constant
factors, memory, fork costs) is the e2e benchmark's to time.
"""

import itertools
import sys
import threading
from typing import Callable, Dict, Tuple

import pytest

from repro.api import PreprocessJob, Scenario
from repro.batch import BatchJournal, BatchRunner
from repro.core.endtoend import _simulate
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_POINTS, FaultPlan, FaultRule
from repro.fleet import default_pools, generate_trace, run_fleet
from repro.serve import PreprocessService

#: calls per unit at 10x input over calls per unit at 1x
BOUND = 1.1


def count_calls(fn: Callable[[], object], threads: bool = False) -> int:
    """Python-level calls ``fn()`` makes, builtins included; with
    ``threads``, also those of every thread it starts."""
    tick = itertools.count()

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            next(tick)  # one C call: atomic under the GIL, whatever thread

    if threads:
        threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if threads:
            threading.setprofile(None)
    return next(tick)


def per_unit(make: Callable[[int], Callable[[], object]], small: int,
             threads: bool = False) -> Tuple[float, float]:
    """Calls per unit of ``make(small)()`` and of ``make(10 * small)()``,
    after one uncounted warm-up of the small input."""
    make(small)()
    return tuple(
        count_calls(make(units), threads) / units for units in (small, 10 * small)
    )


def test_scenario_build_does_not_grow_with_the_workers():
    """RM5/Disagg at 8 and 64 GPUs launches 367 and 2,931 workers: the
    launch prices one worker for every slot, so the whole run's calls
    stay flat (the unit is the run, not the worker)."""
    scenarios = {gpus: Scenario(model="RM5", system="Disagg", num_gpus=gpus,
                                num_batches=200) for gpus in (8, 64)}
    assert scenarios[8].run().num_workers == 367
    calls = {gpus: count_calls(scenario.run)
             for gpus, scenario in scenarios.items()}
    assert scenarios[64].run().num_workers == 2931
    assert calls[64] <= BOUND * calls[8], calls


def test_simulate_calls_per_batch():
    """Four producers outrun the trainer, so the queue fills and the
    blocked FIFO is exercised on every step."""
    def make(batches):
        shares = [batches // 4] * 4
        return lambda: _simulate(2.0, 1.0, shares, 16, 0.5, 0.5, batches)

    one, ten = per_unit(make, 1_000)
    assert ten <= BOUND * one, (one, ten)


def test_preprocess_job_calls_per_row():
    """RM1 at 2,048 rows per shard: 2 shards vs 20, serial."""
    def make(rows):
        job = PreprocessJob("RM1", num_rows=rows, num_shards=rows // 2048)
        return lambda: job.run(parallel=False)

    one, ten = per_unit(make, 4_096)
    assert ten <= BOUND * one, (one, ten)


def test_serial_batch_runner_calls_per_task(tmp_path):
    """Journaled, as ``repro report`` runs it."""
    paths = (tmp_path / f"batch-{n}.jsonl" for n in itertools.count())

    def make(tasks):
        return lambda: BatchRunner(abs, journal=BatchJournal(str(next(paths)))).run(
            range(tasks), parallel=False
        )

    one, ten = per_unit(make, 100)
    assert ten <= BOUND * one, (one, ten)


def stub_runner(job, record_stage):
    """The data plane stood in by one stage: what is left is the service."""
    record_stage("generate", "started", {})
    record_stage("generate", "completed", {"elapsed_s": 0.0, "rows": job.num_rows})
    return f"digest-{job.seed}"


def test_service_calls_per_job(tmp_path):
    """Submit, two worker threads, the spool index, drain.  The jobs are
    queued before the workers start, so no worker waits on an empty queue
    and the count does not depend on thread timing; the watcher polls
    once a minute, so it never wakes."""
    spools = (str(tmp_path / f"spool-{n}") for n in itertools.count())

    def make(jobs):
        def serve():
            service = PreprocessService(
                spool_dir=next(spools), queue_capacity=jobs, runner=stub_runner,
                poll_interval=60.0,
            )
            for seed in range(jobs):
                service.submit(PreprocessJob("RM1", num_rows=64, seed=seed))
            service.start()
            service.stop(drain=True)
            assert service.counts() == {"completed": jobs}
        return serve

    one, ten = per_unit(make, 20, threads=True)
    assert ten <= BOUND * one, (one, ten)


# -- the fleet: clean and faulted days ------------------------------------------

#: the CLI's node faults at their default rates
NODE_FAULTS = FaultPlan(seed=10, rules=tuple(
    FaultRule(point=point, rate=FAULT_POINTS[point].rate)
    for point in ("node-down", "slow-node")
))


def fleet_day(jobs: int):
    """A diurnal day of ``jobs`` arrivals on the default pools, its horizon
    scaled with the jobs (1,000 per day) so that no size saturates."""
    trace = generate_trace("diurnal", num_jobs=jobs, seed=11,
                           horizon_s=86_400.0 * jobs / 1_000)

    def run(injector=None):
        return run_fleet(trace, pools=default_pools(), policy="best-fit",
                         autoscaler="target-utilization", injector=injector)

    return run


class CountingInjector(FaultInjector):
    """Counts the node-epochs asked: every up node in every probe."""

    asked = 0

    def check_nodes(self, point, pool, epoch, nodes):
        self.asked += sum(node.up for node in nodes.values())
        return super().check_nodes(point, pool, epoch, nodes)


@pytest.fixture(scope="module")
def fleet_counts() -> Dict[int, Dict[str, float]]:
    """jobs -> clean and faulted calls, node-epochs asked and SLOs, for
    300 jobs over 0.3 days and 3,000 over 3."""
    fleet_day(300)()  # warm-up
    counts = {}
    for jobs in (300, 3_000):
        run = fleet_day(jobs)
        counter = CountingInjector(NODE_FAULTS)
        faulted = run(counter)
        counts[jobs] = {
            "clean": count_calls(run),
            "faulted": count_calls(lambda: run(FaultInjector(NODE_FAULTS))),
            "asked": counter.asked,
            "slo": run().slo_attainment,
            "faulted_slo": faulted.slo_attainment,
        }
    return counts


def test_clean_fleet_day_calls_per_arrival(fleet_counts):
    """Both days meet every SLO, so the law counts the step loop, never a
    growing queue."""
    assert [fleet_counts[jobs]["slo"] for jobs in (300, 3_000)] == [1.0, 1.0]
    one, ten = (fleet_counts[jobs]["clean"] / jobs for jobs in (300, 3_000))
    assert ten <= BOUND * one, (one, ten)


def test_faulted_fleet_day_calls_per_node_epoch(fleet_counts):
    """The calls node-down + slow-node add over the clean day, per
    node-epoch asked.  The coin stream is still ``max id + 1`` words per
    (pool, point, epoch), but that is one builtin call, not one per id."""
    assert [fleet_counts[jobs]["faulted_slo"] for jobs in (300, 3_000)] == [1.0, 1.0]
    one, ten = (
        (counts["faulted"] - counts["clean"]) / counts["asked"]
        for counts in (fleet_counts[300], fleet_counts[3_000])
    )
    assert fleet_counts[3_000]["asked"] > 10 * fleet_counts[300]["asked"]
    assert ten <= BOUND * one, (one, ten)
