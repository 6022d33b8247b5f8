"""The eight end-to-end workloads, one module each.

Every module defines ``WORKLOAD``, a :class:`Workload` subclass.  The
harness drives them all the same way::

    prepare()            generate inputs from the seed, build front-door objects
    prime()              cheap calls that finish the interpreter's own warm-up
    iteration(tracer)    the timed body: front-door calls only
    reference()          expected outputs (after the first iteration, so
                         that they warm nothing up for the cold start)
    units(result)        units of work in that iteration (rows, batches, ...)
    check(result, tracer) -> (attempted, failed, digest)
    extras(result)       user-visible numbers beyond BENCHMARK.json (untraced)
    facts(result, ledger) / probes(tracer)   per-layer numbers (traced pass)
    close()              release what prepare() opened
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

#: run order of the suite (and of BENCHMARK.json)
NAMES = (
    "dp_wide",
    "dp_sharded",
    "dp_rowstore",
    "serve_closed",
    "sim_build",
    "sim_dispatch",
    "fleet_day",
    "report_full",
)

#: smoke mode divides every size by this
SMOKE_DIVISOR = 16


class Workload:
    """Base class: a workload with nothing to probe and nothing to close."""

    name = "abstract"
    #: what ``host_us_per_unit`` counts for this workload
    unit = "unit"
    #: untimed iterations before measuring (heap growth, lazy set-up)
    warmups = 1
    #: the same throughput under the name this tier's users know it by:
    #: ``rate_name`` = units per second, ``cost_name`` = host us per unit
    rate_name = None
    cost_name = None

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def scaled(self, size: int) -> int:
        """``size``, or a sixteenth of it in smoke mode."""
        return max(1, size // SMOKE_DIVISOR) if self.smoke else size

    def prepare(self) -> None:
        pass

    def reference(self) -> None:
        pass

    def prime(self) -> None:
        """Cheap calls through the iteration's code, before the warm-ups.

        CPython 3.11 specialises a code object's bytecode only once it has
        been entered 8 times; a function that is entered once per iteration
        and then loops for the whole of it stays slow for 7 iterations.
        """

    def iteration(self, tracer):
        raise NotImplementedError

    def units(self, result) -> float:
        raise NotImplementedError

    def check(self, result, tracer) -> Tuple[int, int, str]:
        raise NotImplementedError

    def extras(self, result) -> Dict[str, float]:
        return {}

    def facts(self, result, ledger) -> Dict[str, float]:
        return {}

    def probes(self, tracer) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def load(name: str):
    """The :class:`Workload` subclass registered under ``name``."""
    if name not in NAMES:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    return importlib.import_module(f"workloads.{name}").WORKLOAD
