"""``report_full`` — the ``repro report`` path.

Every registered experiment through ``api.experiment`` and the batch
runner (serial, uncached), then the text report: the workload that guards
registry and supervisor refactors touching every tier at once.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from typing import Dict

from harness import layer_seconds
from workloads import Workload

#: the five heaviest experiments get their own ledger rows
HEAVY = ("fleet-resilience", "fleet-tco", "abl-fleet", "fig11", "abl-row")
NOOP_TASKS = 256


def _noop(task):
    return task


class ReportFull(Workload):
    name = "report_full"
    unit = "experiment"

    def prepare(self) -> None:
        # nothing here may touch the user's cache, even on a later change
        self.cache = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        os.environ["REPRO_CACHE_DIR"] = self.cache
        # an experiment costs what it costs, so smoke drops the ablations
        # (2.4 of the 2.7 s) instead of shrinking anything
        self.run_kwargs = {"include_ablations": False} if self.smoke else {}

    def iteration(self, tracer):
        from repro.experiments import report

        results = report.run_all(force=True, **self.run_kwargs)
        return results, report.render_report(results)

    def units(self, result) -> float:
        return float(len(result[0]))

    def check(self, result, tracer):
        from repro.experiments.report import ExperimentFailure

        results, text = result
        failures = sum(isinstance(r, ExperimentFailure) for r in results.values())
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return len(results), failures, digest

    # -- traced pass ---------------------------------------------------------

    def facts(self, result, ledger) -> Dict[str, float]:
        run_all_s = layer_seconds(ledger, "experiments.report.run_all")
        heavy_s = sum(layer_seconds(ledger, f"experiments.{id}") for id in HEAVY)
        return {"experiments.other_s": run_all_s - heavy_s}

    def probes(self, tracer) -> Dict[str, float]:
        from repro.api import BatchJournal, BatchOutcome, BatchPolicy, BatchRunner
        from repro.api import RunStore
        from repro.experiments import report

        # the cached report path: the same layers used the other way
        store = RunStore(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        report.run_all(store=store, **self.run_kwargs)
        start = time.perf_counter()
        report.run_all(store=store, **self.run_kwargs)
        cached_s = time.perf_counter() - start

        tasks = list(range(self.scaled(NOOP_TASKS)))
        start = time.perf_counter()
        BatchRunner(_noop).run(tasks, parallel=False)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        BatchRunner(_noop, policy=BatchPolicy(processes=2)).run(tasks, parallel=True)
        parallel_s = time.perf_counter() - start

        policy = BatchPolicy()
        journal = BatchJournal(os.path.join(self.workdir, "probe-journal.jsonl"))
        journal.start_run([f"task-{i}" for i in tasks], policy)
        outcomes = [
            BatchOutcome(index=i, key=f"task-{i}", label=f"task-{i}", state="ok",
                         attempts=1, elapsed_s=0.0, result=i)
            for i in tasks
        ]
        start = time.perf_counter()
        for outcome in outcomes:
            journal.task_done(outcome, payload=outcome.result)
        append_s = time.perf_counter() - start
        return {
            "api.experiment.cached_run_all_s": cached_s,
            "batch.runner.serial_overhead_us_per_task": serial_s / len(tasks) * 1e6,
            "batch.runner.parallel_overhead_us_per_task": (
                parallel_s / len(tasks) * 1e6
            ),
            "batch.journal.append_us": append_s / len(tasks) * 1e6,
        }


WORKLOAD = ReportFull
