"""Child-side measurement: one workload, one pass, one fresh interpreter.

The untraced pass produces the end-to-end metrics; the traced pass wraps
the layer calls in spans (:mod:`spans`) and produces the per-layer ledger.
Both run untimed warm-ups first and count every exception or wrong output
as a failed operation.  The end-to-end times are the fastest timed
iteration (see :func:`fastest`), printed beside the median and the sample
count; the ledger's layer times are medians.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from typing import Callable, Dict, Iterable, List, Optional

from spans import PHASE_ORDER, ROOT, Ledger, NullTracer, Tracer

#: timed iterations never drop below this, whatever ``--seconds`` says
MIN_ITERATIONS = 3
#: the traced pass alternates untraced and traced: at least this many pairs
MIN_TRACED_PAIRS = 2
#: smoke mode: sizes / 16, two timed iterations, one cold start, no deadline
SMOKE_ITERATIONS = 2

#: traced-pass self-check (ROADMAP item 5c): the layer a workload is named
#: after must hold this share of the workload's traced wall time
MAJORITY = {
    "dp_rowstore": ("dataio.rowformat.read_s", 0.5),
    "sim_build": ("core.manager.launch_s", 0.8),
    "sim_dispatch": ("core.endtoend.residual_s", 0.8),
}
COVERAGE_FLOOR = 0.9
COVERAGE_WORKLOADS = ("dp_wide", "dp_rowstore", "sim_build", "report_full")


def _cpu_and_faults() -> tuple:
    """(user+sys CPU seconds of this process and its reaped children,
    minor faults of this process)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_minflt


def median(values: Iterable[float]) -> float:
    """Median of ``values``; 0 for an empty sample (a layer never entered)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def fastest(values: Iterable[float]) -> float:
    """The smallest of ``values``; 0 for an empty sample.

    The statistic of the end-to-end times.  The iterations of one run do
    identical work, and on this shared 2-vCPU host the only thing that
    varies is what the neighbours add: identical ``sim_dispatch``
    iterations in one process read 0.93-1.54 s, in bursts of up to 16 s
    during which every iteration is slow, while the floor repeats to 2%
    from process to process.  A median needs half the run undisturbed, the
    minimum one iteration of it.
    """
    values = list(values)
    return float(min(values)) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class _Samples:
    """Per-iteration measurements and the running failure count."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self.faults: List[int] = []
        self.per_unit_us: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest: Optional[str] = None
        self.last_result = None

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)


def _one_iteration(workload, tracer, samples: _Samples, timed: bool) -> float:
    """Run, time and verify one iteration; returns its wall time."""
    gc.collect()  # every iteration starts from the same collector state
    cpu0, faults0 = _cpu_and_faults()
    start = time.perf_counter()
    try:
        with tracer.span(ROOT):
            result = workload.iteration(tracer)
    except Exception:
        wall = time.perf_counter() - start
        samples.fail("iteration raised:\n" + traceback.format_exc(limit=6))
        return wall
    wall = time.perf_counter() - start
    cpu1, faults1 = _cpu_and_faults()
    if _verify(workload, tracer, samples, result) and timed:
        samples.wall.append(wall)
        samples.cpu.append(cpu1 - cpu0)
        samples.faults.append(faults1 - faults0)
        samples.per_unit_us.append(wall / workload.units(result) * 1e6)
    return wall


def _verify(workload, tracer, samples: _Samples, result) -> bool:
    """Check one iteration's outputs; True when none is wrong."""
    phase, tracer.phase = tracer.phase, "check"
    try:
        attempted, failed, digest = workload.check(result, tracer)
    except Exception:
        samples.fail("check raised:\n" + traceback.format_exc(limit=6))
        return False
    finally:
        tracer.phase = phase
    samples.attempted += attempted
    samples.failed += failed
    if failed:
        samples.errors.append(f"{failed}/{attempted} outputs wrong ({digest})")
    if samples.digest is None:
        samples.digest = digest
    elif digest != samples.digest:
        samples.fail(f"digest changed between iterations: {digest}")
    samples.last_result = result
    return not failed


def _timed_loop(workload, seconds: float, floor: int, passes) -> None:
    """Timed iterations until ``seconds`` have passed (at least ``floor``).

    ``passes`` is one ``(tracer, samples)`` pair, or two that take turns so
    that drift over the run lands on both alike.
    """
    deadline = time.perf_counter() + seconds
    iteration = 0
    round_s = 0.0
    # a round that would end further past the deadline than it starts
    # before it is not run: the window is ``seconds`` long on average
    while iteration < floor or time.perf_counter() + round_s / 2 < deadline:
        round_start = time.perf_counter()
        for tracer, samples in passes:
            tracer.iteration = iteration
            tracer.install()
            _one_iteration(workload, tracer, samples, timed=True)
            tracer.uninstall()
        round_s = time.perf_counter() - round_start
        iteration += 1
        if all(s.failed >= 3 and not s.wall for _, s in passes):
            break  # nothing works: stop burning the time budget


def cold_start(workload):
    """Set-up as a fresh process pays it: generate inputs and build the
    front-door objects, prime, and run the first iteration.  Returns
    ``(seconds, result)``; the caller adds its import time."""
    start = time.perf_counter()
    workload.prepare()
    workload.prime()
    result = workload.iteration(NullTracer())
    return time.perf_counter() - start, result


def run_cold(make_workload: Callable, import_s: float) -> Dict:
    """One more sample of set-up, for the parent's ``setup_s`` (child.py
    ``--cold``): nothing is verified or timed beyond it."""
    workload = make_workload()
    try:
        cold_s, _result = cold_start(workload)
    finally:
        workload.close()
    return {"cold_s": import_s + cold_s}


def _base_report(workload, samples: _Samples) -> Dict:
    return {
        "workload": workload.name,
        "unit": workload.unit,
        "attempted": max(samples.attempted, 1),
        "failed": samples.failed,
        "correct": samples.failed == 0 and samples.attempted > 0,
        "digest": samples.digest,
        "errors": samples.errors[:5],
        "wall_samples": samples.wall,
    }


def run_untraced(make_workload: Callable, seconds: float, smoke: bool,
                 import_s: float) -> Dict:
    """The end-to-end pass: cold start, warm-ups, timed iterations.

    ``report["cold_s"]`` is this process's sample of set-up; the parent
    takes more of them in further fresh processes and reports ``setup_s``.
    """
    tracer = NullTracer()
    workload = make_workload()
    try:
        samples = _Samples()
        cold_s, first = cold_start(workload)
        # expected outputs are computed after the cold start, so that they
        # cannot warm anything up for it
        workload.reference()
        _verify(workload, tracer, samples, first)
        for _ in range(workload.warmups - 1):
            _one_iteration(workload, tracer, samples, timed=False)
        if smoke:
            seconds, floor = 0.0, SMOKE_ITERATIONS
        else:
            floor = MIN_ITERATIONS
        _timed_loop(workload, seconds, floor, [(tracer, samples)])
        extras = workload.extras(samples.last_result) if samples.wall else {}
    finally:
        workload.close()
    per_unit_us = fastest(samples.per_unit_us)
    if workload.rate_name and per_unit_us > 0:
        extras[workload.rate_name] = 1e6 / per_unit_us
    if workload.cost_name:
        extras[workload.cost_name] = per_unit_us
    report = _base_report(workload, samples)
    report["cold_s"] = import_s + cold_s
    report["metrics"] = {
        "wall_s": fastest(samples.wall),
        "cpu_s": fastest(samples.cpu),
        "host_us_per_unit": per_unit_us,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras["wall_median_s"] = median(samples.wall)
    extras["wall_slowest_s"] = max(samples.wall, default=0.0)
    report["extras"] = extras
    return report


def layer_seconds(ledger: Ledger, name: str) -> float:
    """Median seconds per iteration inside ``name``, from the first phase
    (timed body, probes, verification, set-up) where the layer appears."""
    for phase in PHASE_ORDER:
        totals = ledger.per_iteration(name, phase)
        if totals:
            return median(totals.values())
    return 0.0


def run_traced(make_workload: Callable, seconds: float, smoke: bool,
               spans_path: Optional[str]) -> Dict:
    """The per-layer pass: untraced iterations (the overhead baseline) take
    turns with iterations that have every layer call wrapped; the
    workload's probes run last."""
    tracer = Tracer()
    tracer.install()
    workload = make_workload()
    try:
        tracer.phase = "setup"
        workload.prepare()
        tracer.phase = "reference"
        workload.reference()
        samples = _Samples()
        tracer.phase = "cold"
        first_iter_s = _one_iteration(workload, tracer, samples, timed=False)
        tracer.phase = "prime"
        workload.prime()
        tracer.phase = "cold"
        for _ in range(workload.warmups - 1):
            _one_iteration(workload, tracer, samples, timed=False)

        tracer.uninstall()
        plain = _Samples()
        tracer.phase = "iter"
        _timed_loop(
            workload, 0.0 if smoke else seconds, MIN_TRACED_PAIRS,
            [(NullTracer(), plain), (tracer, samples)],
        )
        tracer.install()
        tracer.phase, tracer.iteration = "probe", 0
        probes = workload.probes(tracer)
        ledger = Ledger(tracer.spans)
        facts = workload.facts(samples.last_result, ledger) if samples.wall else {}
    finally:
        tracer.uninstall()
        workload.close()
    samples.attempted += plain.attempted
    samples.failed += plain.failed
    samples.errors += plain.errors

    metrics: Dict[str, float] = {}
    for name in ledger.names():
        # span "a.b.c" feeds metric "a.b.c_s" (or "a.b.c.s"); the parent
        # keeps the ones BENCHMARK.json lists
        seconds_in = layer_seconds(ledger, name)
        metrics[name + "_s"] = seconds_in
        metrics[name + ".s"] = seconds_in
    traced_wall = median(samples.wall)
    plain_wall = median(plain.wall)
    metrics.update({
        "harness.first_iter_s": first_iter_s,
        "harness.minor_faults_per_iter": median(plain.faults),
        "harness.trace_overhead_frac": (
            traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0
        ),
        "harness.ledger_coverage": median(ledger.coverage().values()),
    })
    metrics.update(probes)
    metrics.update(facts)

    report = _base_report(workload, samples)
    report["metrics"] = metrics
    report["traced_wall_s"] = traced_wall
    report["untraced_wall_s"] = plain_wall
    report["missing_layers"] = dict(tracer.missing)
    # a sixteenth-size run has other proportions: no verdict from smoke
    report["defects"] = (
        [] if smoke else self_check(workload.name, metrics, traced_wall)
    )
    if spans_path:
        tracer.write(spans_path, workload.name)
        report["spans_file"] = spans_path
        report["spans"] = len(tracer.spans)
    return report


def self_check(workload: str, metrics: Dict[str, float], wall: float) -> List[str]:
    """Benchmark defects: a workload whose named layer does not hold the
    majority of it is timing something else (the old ``fleet_step`` bug)."""
    defects = []
    if workload in MAJORITY and wall > 0:
        metric, floor = MAJORITY[workload]
        share = metrics.get(metric, 0.0) / wall
        if share < floor:
            defects.append(
                f"{metric} holds {share:.1%} of {workload} "
                f"({metrics.get(metric, 0.0):.4f} s of {wall:.4f} s), "
                f"expected >= {floor:.0%}"
            )
    if workload in COVERAGE_WORKLOADS:
        coverage = metrics.get("harness.ledger_coverage", 0.0)
        if coverage < COVERAGE_FLOOR:
            defects.append(
                f"harness.ledger_coverage is {coverage:.3f} on {workload}, "
                f"expected >= {COVERAGE_FLOOR}"
            )
    return defects
