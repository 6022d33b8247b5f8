"""``serve_closed`` — the service tier over the data plane, closed loop.

Two client threads each ``submit`` -> ``wait`` small RM1 jobs against a
2-worker :class:`PreprocessService`, so queue, pool, record transitions and
the JSONL index have their largest share of a job.  One iteration is a
block of ``JOBS_PER_CLIENT`` jobs per client; latency samples pool across
blocks (about 100 per run, enough for p50 and p90).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Dict, List

from harness import median, percentile
from spans import ROOT
from workloads import Workload

CLIENTS = 2
JOBS_PER_CLIENT = 5
#: every tenth job's digest is recomputed through the serial batch path
CHECK_EVERY = 10
TIMEOUT_S = 60.0


def closed_loop(service, make_job, jobs_per_client: int) -> List:
    """``CLIENTS`` threads, each submit -> wait ``jobs_per_client`` times."""
    records: List[List] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []

    def client(index: int) -> None:
        try:
            for number in range(jobs_per_client):
                queued = service.submit(make_job(index, number))
                records[index].append(service.wait(queued.job_id, timeout=TIMEOUT_S))
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [record for per_client in records for record in per_client]


class ServeClosed(Workload):
    name = "serve_closed"
    unit = "row"
    rate_name = "rows_per_s"
    rows = 8192

    def prepare(self) -> None:
        from repro.serve import PreprocessService

        self.num_rows = self.scaled(self.rows)
        self.jobs_per_client = 2 if self.smoke else JOBS_PER_CLIENT
        self.spool = tempfile.mkdtemp(prefix="spool-", dir=self.workdir)
        self.service = PreprocessService(
            spool_dir=self.spool, queue_capacity=16, num_workers=2
        ).start()
        self.block = 0
        self.records: List = []
        self.checked = 0
        self.job_run_s: List[float] = []

    def _job(self, client: int, number: int):
        from repro.api import PreprocessJob

        serial = (self.block * self.jobs_per_client + number) % 1000
        return PreprocessJob(
            "RM1", num_rows=self.num_rows, num_shards=1,
            seed=self.seed * 10000 + client * 1000 + serial,
        )

    def iteration(self, tracer):
        records = closed_loop(self.service, self._job, self.jobs_per_client)
        self.block += 1
        return records

    def units(self, result) -> float:
        return float(len(result) * self.num_rows)

    def check(self, result, tracer):
        failed = 0
        for record in result:
            wrong = record.state != "completed"
            if not wrong and self.checked % CHECK_EVERY == 0:
                start = time.perf_counter()
                expected = record.job.run(parallel=False).digest
                self.job_run_s.append(time.perf_counter() - start)
                wrong = record.digest != expected
            self.checked += 1
            failed += int(wrong)
        self.records.extend(result)
        # job seeds differ per block, so there is no cross-iteration digest
        return len(result), failed, "per-job"

    def _latency_ms(self) -> List[float]:
        return [
            (record.completed_at - record.submitted_at) * 1e3
            for record in self.records if record.state == "completed"
        ]

    def extras(self, result) -> Dict[str, float]:
        latency = self._latency_ms()
        return {
            "job_latency_p50_ms": median(latency),
            "job_latency_p90_ms": percentile(latency, 90),
            "job_latency_samples": len(latency),
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop(drain=True, timeout=TIMEOUT_S)
            self.service = None

    # -- traced pass ---------------------------------------------------------

    def facts(self, result, ledger) -> Dict[str, float]:
        done = [r for r in self.records if r.state == "completed"]
        latency = self._latency_ms()
        waits = [(r.started_at - r.submitted_at) * 1e3 for r in done]
        stages: Dict[str, List[float]] = {}
        unattributed = []
        for record, total, wait in zip(done, latency, waits):
            staged = 0.0
            for event in record.stages:
                if event.status == "completed" and event.elapsed_s is not None:
                    stages.setdefault(event.stage, []).append(event.elapsed_s * 1e3)
                    staged += event.elapsed_s * 1e3
            unattributed.append(total - wait - staged)
        facts = {
            "features.synthetic.rows": self.num_rows,
            "serve.service.job_latency_p50_ms": median(latency),
            "serve.service.job_latency_p90_ms": percentile(latency, 90),
            "serve.service.jobs_per_s": len(result) / median(
                ledger.per_iteration(ROOT, "iter").values()
            ),
            "serve.service.queue_wait_ms_p50": median(waits),
            "serve.service.unattributed_ms": median(unattributed),
            "serve.pool.retries": sum(r.attempts - 1 for r in done),
            "api.preprocess.job_run_s": median(self.job_run_s),
        }
        for stage in ("generate", "partition", "extract", "transform"):
            facts[f"serve.stage.{stage}_ms"] = median(stages.get(stage, []))
        return facts

    def probes(self, tracer) -> Dict[str, float]:
        from repro.serve import BoundedJobQueue, PreprocessService, WorkerPool

        # queue + pool alone: an identity pump
        items = self.scaled(512)
        done = threading.Semaphore(0)
        queue = BoundedJobQueue(capacity=16)
        pool = WorkerPool(
            queue, lambda item, attempt: item, num_workers=2,
            on_done=lambda item, result, error: done.release(),
        )
        pool.start()
        start = time.perf_counter()
        for item in range(items):
            queue.put(item)
        for _ in range(items):
            done.acquire()
        roundtrip_s = time.perf_counter() - start
        pool.drain(timeout=TIMEOUT_S)

        # the whole service around a runner that does nothing
        spool = tempfile.mkdtemp(prefix="noop-", dir=self.workdir)
        start = time.perf_counter()
        service = PreprocessService(
            spool_dir=spool, queue_capacity=16, num_workers=2,
            runner=lambda job, record_stage: "0" * 64,
        ).start()
        started_s = time.perf_counter() - start
        per_client = self.scaled(128)
        start = time.perf_counter()
        closed_loop(service, self._job, per_client)
        loop_s = time.perf_counter() - start
        index_bytes = os.path.getsize(os.path.join(spool, "jobs.jsonl"))
        start = time.perf_counter()
        service.stop(drain=True, timeout=TIMEOUT_S)
        stopped_s = time.perf_counter() - start
        jobs = per_client * CLIENTS
        return {
            "serve.queue.roundtrip_us": roundtrip_s / items * 1e6,
            "serve.service.overhead_us_per_job": loop_s / jobs * 1e6,
            "serve.records.index_bytes_per_job": index_bytes / jobs,
            "serve.service.start_stop_s": started_s + stopped_s,
        }


WORKLOAD = ServeClosed
