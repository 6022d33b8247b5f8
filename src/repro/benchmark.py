"""Scaling series no end-to-end workload runs — the ``repro bench`` backend.

The repo's performance gate is the end-to-end benchmark (``benchmarks/e2e``
and ``BENCHMARK.json``): it times every user-visible run and breaks it down
by layer.  This module keeps only what that benchmark does not run yet —
whether cost per element stays flat as the input grows ~10x — and the
fleet's fault-probe cost:

* ``scenario_build@8gpu`` / ``@64gpu`` — one RM5/Disagg ``Scenario`` of
  200 batches with 367 and 2,931 modelled workers; an element is a worker;
* ``fleet_step@10k`` / ``@100k`` — a diurnal fleet day of that many
  arrivals (``@100k`` in full mode only); an element is a simulator event;
* ``fleet_probe`` — a faulted 1k-job day minus the same day clean; an
  element is one node asked one fault point in one epoch.

Results are emitted as ``BENCH_kernels.json`` (``BENCH_quick.json`` with
``--quick``)::

    {
      "schema_version": 2,
      "quick": false,
      "python": "3.12.3",
      "numpy": "1.26.4",
      "results": [
        {"op": "scenario_build@8gpu", "size": 367, "elapsed_s": 0.0013,
         "ns_per_element": 3614.0},
        ...
      ]
    }

``ns_per_element`` is ``elapsed_s / size``; timings are best-of-``reps`` to
shed scheduler noise.  Under the table, :func:`scaling_line` prints each
series' us per element and its largest-over-smallest ratio.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List

import numpy as np

_SCHEMA_VERSION = 2


@dataclass
class BenchResult:
    """One timed measurement."""

    op: str
    size: int  # logical elements processed per call
    elapsed_s: float  # best-of-reps wall time of one call
    ns_per_element: float


def _best_of(fn: Callable[[], object], reps: int) -> float:
    """Best wall-clock time of ``reps`` calls (first call warms caches)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _result(op: str, size: int, elapsed_s: float) -> BenchResult:
    return BenchResult(op, size, elapsed_s, 1e9 * elapsed_s / max(size, 1))


#: the scenario-construction scaling pair: op suffix -> training GPUs
SCENARIO_BUILD_SERIES = (("8gpu", 8), ("64gpu", 64))


def bench_scenario_build(reps: int) -> List[BenchResult]:
    """Model tier: one RM5/Disagg ``Scenario`` of 200 batches end to end
    (T/P planning, one priced worker launched into every core slot, the
    pipeline loop).  An "element" is one worker slot — 367 and 2,931 — so
    the rows read as cost per worker, which falls as the launch grows
    while a launch neither builds a pipeline nor prices a worker per slot."""
    from repro.api.scenario import Scenario

    results = []
    for label, gpus in SCENARIO_BUILD_SERIES:
        scenario = Scenario(
            model="RM5", system="Disagg", num_gpus=gpus, num_batches=200
        )
        workers = scenario.run().num_workers
        results.append(
            _result(f"scenario_build@{label}", workers,
                    _best_of(scenario.run, reps))
        )
    return results


#: the fleet step-loop scaling series: op suffix -> arrivals in the day
#: (e2e ``fleet_day`` already records the 1k day's us per event)
FLEET_STEP_SERIES = (("10k", 10_000), ("100k", 100_000))


def _fleet_day(trace, pools, injector=None):
    """A diurnal day on ``pools`` under best-fit + target-utilization."""
    from repro.fleet import FleetSimulator

    return FleetSimulator(
        trace, pools=pools, policy="best-fit",
        autoscaler="target-utilization", injector=injector,
    ).run()


def bench_fleet_step(max_jobs: int, reps: int, seed: int) -> List[BenchResult]:
    """Events/s of the fleet step loop, each run a fresh simulator that
    provisions its shapes cold, for each day of the series up to
    ``max_jobs`` arrivals.  An "element" is one simulator event: the
    time-step ticks plus one arrival and one completion per job."""
    from repro.fleet import default_pools, generate_trace

    pools = default_pools()
    results = []
    for label, jobs in FLEET_STEP_SERIES:
        if jobs > max_jobs:
            continue
        trace = generate_trace("diurnal", num_jobs=jobs, seed=seed + 1)
        outcome = _fleet_day(trace, pools)
        events = int(outcome.makespan_s // 60.0) + 1 + 2 * outcome.num_jobs
        elapsed = _best_of(lambda: _fleet_day(trace, pools), max(1, reps // 2))
        results.append(_result(f"fleet_step@{label}", events, elapsed))
    return results


def bench_fleet_probe(reps: int, seed: int) -> List[BenchResult]:
    """ns per node-epoch fault probe: a 1k-job diurnal day under node-down
    + slow-node at the CLI's default rates minus the same day clean, over
    the node-epochs asked (counted on an untimed run).  The difference
    also carries what the fires cause (displaced jobs rescheduling)."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import DEFAULT_RATES, FaultPlan, FaultRule
    from repro.fleet import default_pools, generate_trace

    pools = default_pools()
    trace = generate_trace("diurnal", num_jobs=1_000, seed=seed + 1)
    plan = FaultPlan(seed=seed, rules=tuple(
        FaultRule(point=point, rate=DEFAULT_RATES[point])
        for point in ("node-down", "slow-node")
    ))

    class CountingInjector(FaultInjector):
        probes = 0

        def check_nodes(self, point, pool, epoch, nodes):
            self.probes += sum(node.up for node in nodes.values())
            return super().check_nodes(point, pool, epoch, nodes)

    counted = CountingInjector(plan)
    _fleet_day(trace, pools, counted)
    trials = max(1, reps // 2)
    clean_s = _best_of(lambda: _fleet_day(trace, pools), trials)
    faulted_s = _best_of(
        lambda: _fleet_day(trace, pools, FaultInjector(plan)), trials
    )
    return [_result("fleet_probe", counted.probes, faulted_s - clean_s)]


def scaling_line(report: Dict[str, object], op: str, unit: str) -> str:
    """One line: us/``unit`` of each ``op@`` row, smallest input first,
    and largest over smallest (flat cost per unit means a ratio <= ~1)."""
    cost = {
        entry["op"].split("@")[1]: entry["ns_per_element"] / 1e3
        for entry in report["results"] if entry["op"].startswith(f"{op}@")
    }
    if len(cost) < 2:
        return ""
    series = ", ".join(f"@{label} {us:.1f}" for label, us in cost.items())
    first, *_, last = cost
    ratio = cost[last] / cost[first]
    return f"{op} us/{unit}: {series} (@{last}/@{first} {ratio:.2f}x)"


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

#: (largest fleet day, reps) per mode; quick stops the fleet series at 10k
_MODES = {"full": (100_000, 5), "quick": (10_000, 3)}


def run_benchmarks(quick: bool = False, seed: int = 0) -> Dict[str, object]:
    """Run every benchmark; returns the ``BENCH_kernels.json`` payload."""
    max_jobs, reps = _MODES["quick" if quick else "full"]
    results = (
        bench_scenario_build(reps)
        + bench_fleet_step(max_jobs, reps, seed + 10)
        + bench_fleet_probe(reps, seed + 10)
    )
    return {
        "schema_version": _SCHEMA_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": [asdict(r) for r in results],
    }


def render_report(report: Dict[str, object]) -> str:
    """Human-readable table of one benchmark report."""
    from repro.experiments.common import format_table

    rows = [
        (entry["op"], entry["size"], entry["ns_per_element"])
        for entry in report["results"]
    ]
    title = "Scaling benchmarks ({} mode)".format(
        "quick" if report["quick"] else "full"
    )
    table = format_table(("op", "size", "ns/element"), rows, title)
    scaling = (
        scaling_line(report, "scenario_build", "worker"),
        scaling_line(report, "fleet_step", "event"),
    )
    return "\n".join([table, *filter(None, scaling)])


def write_report(report: Dict[str, object], path: str) -> None:
    """Write one report as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
