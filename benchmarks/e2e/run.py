"""The repo benchmark: eight end-to-end workloads and their layer ledger.

    python3 benchmarks/e2e/run.py --workload dp_wide --seed 3 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME ...] [--traced]
                                  [--smoke] [--out DIR]

Each workload runs in its own fresh child interpreter with glibc malloc
pinned (see README.md).  ``--trace 0`` (default) measures the end-to-end
metrics of BENCHMARK.json with no instrumentation; ``--trace 1`` /
``--traced`` wraps the layer calls in spans and reports the per-layer
metrics.  With exactly one ``--workload`` the last line of stdout is the
result object ``{"correct", "attempted", "failed", "metrics"}``; with
several (or none: all eight, the four BENCHMARK.json lists for the driver and
the four it leaves to people) a table is printed and
``results.json`` / ``ledger.json`` land in ``--out``.  Exit status: 0 clean, 1 when any
operation failed or an output was wrong, 2 when a child could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 170
#: ``setup_s`` is the fastest of this many cold starts, each in a fresh
#: interpreter: the measuring child's own and further ``child.py --cold`` ones
COLD_STARTS = 3

#: Pinned in every child.  Without them an identical dp_rowstore iteration
#: read 0.95-2.45 s wall at 0.73-0.79 s user CPU: numpy temporaries were
#: mmap'd and unmapped each time and the VM host set the fault cost.
CHILD_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "17179869184",
    "MALLOC_TOP_PAD_": "268435456",
    "MALLOC_ARENA_MAX": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    """The child interpreter exited non-zero or printed no report."""


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(name: str, seed: int, seconds: float, smoke: bool,
              out_dir: str, mode: List[str]) -> Dict:
    """One fresh child interpreter on one workload; returns what it reports."""
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"tmp-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [HERE, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--workdir", workdir, "--src", SRC,
    ] + mode
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name}: no result within {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{name}: child exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed(f"{name}: unreadable report {lines[-1][:200]!r}") from exc


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool, out_dir: str) -> Dict:
    """One pass of one workload; returns its report.

    The traced pass is one child.  The untraced pass is the measuring child
    and, unless ``smoke``, further cold starts for ``setup_s``.
    """
    if traced:
        spans = os.path.join(out_dir, f"spans_{name}.jsonl")
        return run_child(name, seed, seconds, smoke, out_dir,
                         ["--traced", "--spans-out", spans])
    report = run_child(name, seed, seconds, smoke, out_dir, [])
    cold = [report["cold_s"]] + [
        run_child(name, seed, seconds, smoke, out_dir, ["--cold"])["cold_s"]
        for _ in range(0 if smoke else COLD_STARTS - 1)
    ]
    report["cold_samples"] = cold
    report["metrics"]["setup_s"] = min(cold)
    return report


def declared(spec: Dict, traced: bool) -> List[Dict]:
    return spec["per_layer"] if traced else spec["end_to_end"]


def contract_result(spec: Dict, report: Dict) -> Dict:
    """The driver-facing object: exactly the metrics BENCHMARK.json names.

    An end-to-end metric that is missing or not finite is an error; a layer
    the workload never enters reads 0.
    """
    measured = report["metrics"]
    metrics = {}
    for metric in declared(spec, report["traced"]):
        value = measured.get(metric["name"], 0.0 if report["traced"] else None)
        if value is None or not math.isfinite(value):
            raise ChildFailed(
                f"{report['workload']}: metric {metric['name']} is {value!r}"
            )
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def print_report(spec: Dict, report: Dict) -> None:
    mode = "traced" if report["traced"] else "untraced"
    smoke = ", SMOKE (not comparable to a full run)" if report["smoke"] else ""
    print(
        f"== {report['workload']}: seed {report['seed']}, {mode}, "
        f"n={len(report['wall_samples'])} iterations{smoke}"
    )
    print(
        f"   correct={report['correct']} attempted={report['attempted']} "
        f"failed={report['failed']} digest={report['digest']}"
    )
    for error in report["errors"]:
        print("   FAILED: " + error.replace("\n", "\n      "))
    units = {m["name"]: m["unit"] for m in declared(spec, report["traced"])}
    for name, unit in units.items():
        value = report["metrics"].get(name, 0.0)
        if report["traced"] and not value:
            continue  # a layer this workload never enters
        if name == "host_us_per_unit":
            unit = f"us/{report['unit']}"
        print(f"   {name:<46} {value:>16.6g} {unit}")
    if report.get("cold_samples"):
        shown = ", ".join(f"{value:.4g}" for value in report["cold_samples"])
        print(f"   {'cold starts, fastest is setup_s':<46} {shown} s")
    for name, value in report.get("extras", {}).items():
        print(f"   {name:<46} {value:>16.6g} (not in BENCHMARK.json)")
    for name, why in report.get("missing_layers", {}).items():
        print(f"   {name:<46} {'null':>16} ({why})")
    for defect in report.get("defects", []):
        print(f"   BENCHMARK DEFECT: {defect}")
    if report.get("spans_file"):
        print(f"   {report['spans']} spans -> {report['spans_file']}")


def run_suite(names: List[str], seed: int, seconds: float, traced: bool,
              smoke: bool, out_dir: str, quiet: bool = False) -> Dict:
    """Every named workload, sequentially, one child each.

    Returns ``{"reports": {name: report}, "crashed": {name: why}}``; a
    workload that cannot run does not stop the ones after it.
    """
    spec = load_spec()
    reports: Dict[str, Dict] = {}
    crashed: Dict[str, str] = {}
    for name in names:
        try:
            report = run_workload(name, seed, seconds, traced, smoke, out_dir)
            contract_result(spec, report)
        except ChildFailed as exc:
            crashed[name] = str(exc)
            print(f"== {name}: COULD NOT RUN\n{exc}", file=sys.stderr)
            continue
        reports[name] = report
        if not quiet:
            print_report(spec, report)
            sys.stdout.flush()
    return {"reports": reports, "crashed": crashed}


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    known = list(NAMES)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", nargs="+", choices=known,
                        metavar="NAME", help=f"one of {', '.join(known)}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 16, two iterations; never comparable")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    traced = bool(args.trace or args.traced)
    names = [n for group in (args.workload or [known]) for n in group]

    suite = run_suite(names, args.seed, args.seconds, traced, args.smoke, args.out)
    reports = suite["reports"]
    if suite["crashed"]:
        return 2
    summary = {
        "smoke": args.smoke, "seed": args.seed, "traced": traced,
        "seconds": args.seconds, "workloads": reports,
    }
    with open(os.path.join(args.out, "ledger.json" if traced else "results.json"),
              "w") as handle:
        json.dump(summary, handle, indent=1)
    if len(names) == 1:
        # the driver's contract: the result object is the last line
        print(json.dumps(contract_result(spec, reports[names[0]])))
    return 0 if all(r["correct"] for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
