"""One workload, one pass, in this fresh interpreter (spawned by run.py).

Prints the pass's report as one JSON line on stdout, last.  Refuses to
measure a ``repro`` that is not the checkout's own ``src/`` tree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

#: imported up front so that their cost is timed as ``import_s`` whatever
#: the workload's own first call would have pulled in
FRONT_DOORS = (
    "repro.api",
    "repro.exec",
    "repro.serve",
    "repro.fleet",
    "repro.experiments.report",
    "repro.dataio.rowformat",
    "repro.features.synthetic",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--cold", action="store_true",
                        help="set-up and one iteration only; prints cold_s")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro
    for module in FRONT_DOORS:
        importlib.import_module(module)
    import harness
    import workloads

    make = workloads.load(args.workload)
    import_s = time.perf_counter() - start

    src = os.path.realpath(args.src)
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    def make_workload():
        return make(seed=args.seed, smoke=args.smoke, workdir=args.workdir)

    if args.cold:
        print(json.dumps(harness.run_cold(make_workload, import_s)))
        return 0
    if args.traced:
        report = harness.run_traced(
            make_workload, args.seconds, args.smoke, args.spans_out
        )
    else:
        report = harness.run_untraced(
            make_workload, args.seconds, args.smoke, import_s
        )
    report.update(seed=args.seed, smoke=args.smoke, traced=args.traced)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
