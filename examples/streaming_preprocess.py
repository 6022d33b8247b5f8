"""The streaming preprocessing service, end to end and in-process.

The batch path (`repro preprocess`, `PreprocessJob.run`) preprocesses one
table and exits; this example runs preprocessing as the *service* the
deployment story needs: an always-on daemon that producers stream work into
and training jobs poll results out of.

1. **start the service** — bounded queue, persistent worker pool, a spool
   directory holding the JSONL job index;
2. **submit directly** — a client submits a job and tails its lifecycle
   (queued -> running -> per-stage telemetry -> completed);
3. **attach a source** — a synthetic traffic source feeds a stream of jobs
   through the watcher, capacity-aware;
4. **verify the guarantee** — every digest is byte-identical to the serial
   batch path for the same spec;
5. **shut down** — drain everything, then audit the on-disk job index.

Run:  python examples/streaming_preprocess.py
"""

import tempfile

from repro.api import PreprocessJob
from repro.serve import (
    JobLogIndex,
    PreprocessService,
    SyntheticJobSource,
)

MODEL = "RM1"
ROWS = 2048
SHARDS = 2


def main() -> None:
    spool = tempfile.mkdtemp(prefix="repro-serve-example-")

    # 1. start the service -------------------------------------------------
    service = PreprocessService(
        spool_dir=spool,
        queue_capacity=8,
        num_workers=2,
        poll_interval=0.05,
    )
    service.start()
    print(f"service up: spool {spool}, "
          f"{service.pool.num_workers} workers, "
          f"queue {service.queue.capacity}/{service.queue.policy}")

    # 2. submit one job and watch its lifecycle ----------------------------
    job = PreprocessJob(model=MODEL, num_rows=ROWS, num_shards=SHARDS)
    record = service.submit(job)
    print(f"\nsubmitted {record.job_id} ({job.label}); streaming transitions:")
    for snapshot in service.watch(record.job_id, timeout=120.0):
        stage = snapshot.stages[-1].stage if snapshot.stages else "-"
        print(f"  {snapshot.job_id}  {snapshot.state:9s}  "
              f"stages recorded: {len(snapshot.stages):2d}  (last: {stage})")
    final = service.status(record.job_id)
    print(f"completed with digest {final.digest[:20]}... "
          f"after {final.attempts} attempt(s)")
    for event in final.stages:
        elapsed = f"{event.elapsed_s * 1e3:7.1f} ms" if event.elapsed_s else " " * 10
        print(f"    {event.stage:10s} {event.status:9s} {elapsed}")

    # 3. attach a synthetic traffic source ---------------------------------
    source = SyntheticJobSource(
        model=MODEL, num_rows=ROWS, num_shards=SHARDS, count=4, seed=100
    )
    service.attach_source(source)
    print(f"\nattached {source.name}: {source.count} jobs of {ROWS} rows")
    while len(service.jobs(state="completed")) < 1 + source.count:
        service.wait(service.jobs()[-1].job_id, timeout=120.0)
    print(f"stream drained: {service.counts()}")

    # 4. the guarantee: service digests == serial batch digests ------------
    print("\nverifying digests against the serial batch path:")
    for done in service.jobs(state="completed"):
        serial = done.job.run(parallel=False).digest
        matches = "ok" if serial == done.digest else "MISMATCH"
        print(f"  {done.job_id}  seed={done.job.seed:3d}  "
              f"{done.digest[:16]}...  {matches}")
        assert serial == done.digest

    # 5. drain and audit the on-disk index ---------------------------------
    service.stop(drain=True, timeout=120.0)
    index = JobLogIndex(f"{spool}/jobs.jsonl")
    print(f"\nservice stopped; {spool}/jobs.jsonl holds the full history:")
    for entry in index.load():
        print(f"  {entry.job_id}  {entry.state:9s}  source={entry.source}")


if __name__ == "__main__":
    main()
