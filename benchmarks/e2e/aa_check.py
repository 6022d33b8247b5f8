"""A/A check: the benchmark against itself, on one tree.

    python3 benchmarks/e2e/aa_check.py                      # two runs, same seed
    python3 benchmarks/e2e/aa_check.py --runs 10 --vary-seed  # the acceptance drill

Runs the untraced suite ``--runs`` times, splits the runs into a first and
a second half, and prints for every (metric, workload) both medians, how
much worse the second reads than the first, and — from four runs up — the
interquartile spread as a share of the median.  Exits 1 when a difference
exceeds the metric's bound in BENCHMARK.json or a spread exceeds it
(``setup_s`` is exempt from the spread rule, as in the driver).  One traced
pass then reports ``harness.trace_overhead_frac`` per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

import run as bench


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def spread(values: List[float]) -> float:
    """Interquartile range over the median, as the driver computes it."""
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def main() -> int:
    spec = bench.load_spec()
    listed = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i (default: the same seed)")
    parser.add_argument("--workload", nargs="+", choices=list(bench.NAMES),
                        default=listed, help="default: the ones BENCHMARK.json lists")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--skip-traced", action="store_true")
    parser.add_argument("--out", default=os.path.join(bench.HERE, "out"))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: Dict[tuple, List[float]] = {}
    problems: List[str] = []
    for index in range(args.runs):
        seed = args.seed + index if args.vary_seed else args.seed
        print(f"-- untraced run {index + 1}/{args.runs}, seed {seed}", flush=True)
        suite = bench.run_suite(
            args.workload, seed, args.seconds, traced=False, smoke=False,
            out_dir=args.out, quiet=True,
        )
        problems += [f"{name} could not run" for name in suite["crashed"]]
        for name, report in suite["reports"].items():
            if not report["correct"]:
                problems.append(f"{name}: {report['failed']} failed operations")
            for metric, value in report["metrics"].items():
                values.setdefault((metric, name), []).append(value)

    with open(os.path.join(args.out, "aa_check.json"), "w") as handle:
        json.dump({f"{m}/{w}": v for (m, w), v in values.items()}, handle, indent=1)

    half = args.runs // 2
    print(f"\n{'metric':<18}{'workload':<14}{'first':>12}{'second':>12}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        for name in args.workload:
            series = values.get((metric["name"], name), [])
            if len(series) < args.runs:
                continue
            first = statistics.median(series[:half])
            second = statistics.median(series[half:])
            worse = worse_by(first, second, metric["better"])
            shown = "-"
            if len(series) >= 4:
                iqr = spread(series)
                shown = f"{iqr:.2%}"
                if metric["name"] != "setup_s" and iqr > metric["bound"]:
                    problems.append(
                        f"{metric['name']} on {name}: spread {iqr:.2%} "
                        f"exceeds the bound {metric['bound']:.0%}"
                    )
            if worse > metric["bound"]:
                problems.append(
                    f"{metric['name']} on {name}: second half worse by "
                    f"{worse:.2%}, bound {metric['bound']:.0%}"
                )
            print(f"{metric['name']:<18}{name:<14}{first:>12.5g}{second:>12.5g}"
                  f"{worse:>+10.2%}{shown:>9}{metric['bound']:>7.0%}")

    if not args.skip_traced:
        print("\n-- traced pass", flush=True)
        suite = bench.run_suite(
            args.workload, args.seed, args.seconds, traced=True, smoke=False,
            out_dir=args.out, quiet=True,
        )
        problems += [f"{name} could not run traced" for name in suite["crashed"]]
        for name, report in suite["reports"].items():
            overhead = report["metrics"]["harness.trace_overhead_frac"]
            print(f"harness.trace_overhead_frac  {name:<14}{overhead:>+9.2%}")
            for defect in report["defects"]:
                print(f"BENCHMARK DEFECT ({name}): {defect}")

    for problem in problems:
        print("A/A FAILURE: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
