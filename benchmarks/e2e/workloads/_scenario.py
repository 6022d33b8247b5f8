"""Shared body of ``sim_build`` and ``sim_dispatch``: one ``Scenario.run``."""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict

from harness import median
from workloads import Workload

#: events of the engine probe: two processes trading timeouts
PING_PONG_EVENTS = 200_000


def engine_ns_per_event(events: int) -> float:
    """Host ns per event of ``sim.engine`` alone (timeout ping-pong)."""
    from repro.sim.engine import Engine, Timeout

    def ticker(count: int):
        for _ in range(count):
            yield Timeout(1.0)

    engine = Engine()
    engine.spawn("ping", ticker(events // 2))
    engine.spawn("pong", ticker(events // 2))
    start = time.perf_counter()
    engine.run()
    # each process is stepped once per timeout plus its first step
    return (time.perf_counter() - start) / (events + 2) * 1e9


class ScenarioWorkload(Workload):
    """``Scenario(model, system, num_gpus, num_batches).run()``."""

    unit = "simulated batch"
    cost_name = "host_us_per_batch"
    model = "RM5"
    system = "PreSto"
    gpus = 8
    batches = 200

    def prepare(self) -> None:
        self.num_batches = self.scaled(self.batches)
        # a sixteenth of the GPUs is a sixteenth of the workers to build
        self.num_gpus = 1 if self.smoke else self.gpus

    def iteration(self, tracer):
        from repro.api import Scenario

        return Scenario(
            model=self.model, system=self.system, num_gpus=self.num_gpus,
            num_batches=self.num_batches,
        ).run()

    def units(self, result) -> float:
        return float(result.num_batches)

    def check(self, result, tracer):
        """Simulated statistics must not move between iterations (the
        harness compares digests) and the run must have trained."""
        payload = json.dumps(result.to_dict(), sort_keys=True)
        wrong = result.num_batches != self.num_batches or result.wall_time <= 0
        return 1, int(wrong), hashlib.sha256(payload.encode()).hexdigest()[:16]

    def facts(self, result, ledger) -> Dict[str, float]:
        return {
            "core.manager.workers": result.num_workers,
            "sim.stats.workers": result.num_workers,
            "sim.stats.gpu_utilization": result.gpu_utilization,
            # run - launch - measure: engine dispatch plus tier logic
            "core.endtoend.residual_s": median(
                ledger.self_per_iteration("core.endtoend.run").values()
            ),
        }

    def probes(self, tracer) -> Dict[str, float]:
        events = self.scaled(PING_PONG_EVENTS)
        return {"sim.engine.ns_per_event": engine_ns_per_event(events)}
