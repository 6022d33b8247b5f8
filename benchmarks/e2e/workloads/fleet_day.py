"""``fleet_day`` — the fleet step loop at two sizes in one process.

A diurnal day of 1000 and of 3000 jobs through best-fit placement and the
target-utilization autoscaler, so the growth of cost per event with queue
length is a measured number.  Each run builds its own simulator, so the
per-simulator provision cache is paid every run and sized separately.
"""

from __future__ import annotations

from typing import Dict

from harness import median
from workloads import Workload
from workloads._scenario import PING_PONG_EVENTS, engine_ns_per_event

#: span label -> arrivals in the trace
SIZES = (("1k", 1000), ("3k", 3000))
STEP_S = 60.0


def fleet_events(result) -> int:
    """Scheduler ticks plus one arrival and one completion per job."""
    return int(result.makespan_s // STEP_S) + 1 + 2 * result.num_jobs


class FleetDay(Workload):
    name = "fleet_day"
    unit = "fleet event"
    cost_name = "host_us_per_event"

    def prepare(self) -> None:
        from repro import fleet

        self.traces = {
            label: fleet.trace.generate_trace(
                "diurnal", num_jobs=self.scaled(jobs), seed=self.seed + 1
            )
            for label, jobs in SIZES
        }
        self.pools = fleet.default_pools()

    def iteration(self, tracer):
        from repro.fleet import FleetSimulator

        results = {}
        for label, trace in self.traces.items():
            with tracer.span(f"fleet.day_{label}"):
                results[label] = FleetSimulator(
                    trace, pools=self.pools, policy="best-fit",
                    autoscaler="target-utilization",
                ).run()
        return results

    def units(self, result) -> float:
        return float(sum(fleet_events(run) for run in result.values()))

    def check(self, result, tracer):
        with tracer.span("fleet.result.digest"):
            digests = [run.digest for run in result.values()]
        wrong = sum(
            int(not run.all_terminal() or run.num_jobs != len(self.traces[label]))
            for label, run in result.items()
        )
        return len(result), wrong, "+".join(digests)

    # -- traced pass ---------------------------------------------------------

    def facts(self, result, ledger) -> Dict[str, float]:
        facts: Dict[str, float] = {
            "fleet.trace.arrivals": sum(len(t) for t in self.traces.values()),
            "fleet.result.makespan_s_3k": result["3k"].makespan_s,
            "fleet.result.completed_3k": result["3k"].completed,
        }
        step_us = {}
        for label, run in result.items():

            def inside(name: str, under: str = f"fleet.day_{label}") -> float:
                return median(
                    ledger.per_iteration(name, "iter", under=under).values()
                )

            run_s = inside("fleet.simulator.run")
            # provisioning = system creation + T/P planning per distinct
            # (model, gpus), the part a shared cache would remove
            provision_s = inside("core.systems.create") + inside("fleet.provision")
            events = fleet_events(run)
            facts[f"fleet.simulator.run_s_{label}"] = run_s
            facts[f"fleet.simulator.events_{label}"] = events
            facts[f"fleet.simulator.us_per_event_{label}"] = run_s / events * 1e6
            step_us[label] = (run_s - provision_s) / events
        facts["fleet.simulator.scale_ratio"] = (
            step_us["3k"] / step_us["1k"] if step_us["1k"] > 0 else 0.0
        )
        return facts

    def probes(self, tracer) -> Dict[str, float]:
        events = self.scaled(PING_PONG_EVENTS)
        return {"sim.engine.ns_per_event": engine_ns_per_event(events)}


WORKLOAD = FleetDay
