"""repro.serve — the streaming preprocessing service (``repro serve``).

The always-on counterpart of the batch data plane: a source watcher turns
dropped job specs and synthetic traffic into
:class:`~repro.api.PreprocessJob`s, a bounded queue applies explicit
backpressure, a persistent worker pool drives the
:class:`~repro.exec.ShardExecutor` path with per-job retry/backoff and
worker replacement, and every job's lifecycle is a frozen
:class:`JobRecord` mirrored into a JSONL index next to the spool
directory.  A line-oriented JSON socket protocol
(:class:`ServiceServer` / :class:`ServiceClient`) lets external processes
attach, submit, stream completion notifications, and detach while the
daemon keeps running.

In-process quick start::

    from repro.api import PreprocessJob
    from repro.serve import PreprocessService

    with PreprocessService(spool_dir="spool", num_workers=2) as service:
        record = service.submit(PreprocessJob(model="RM1", num_shards=4))
        final = service.wait(record.job_id)
        assert final.state == "completed"
        print(final.digest)  # == PreprocessJob(...).run().digest
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.queue": ("QUEUE_POLICIES", "BoundedJobQueue"),
    "repro.serve.pool": ("WorkerPool",),
    "repro.serve.records": (
        "JOB_STATES", "STAGE_STATUSES", "TERMINAL_STATES", "JobLogIndex",
        "JobRecord", "StageEvent",
    ),
    "repro.serve.sources": (
        "DirectoryJobSource", "JobSource", "SourceWatcher",
        "SyntheticJobSource",
    ),
    "repro.serve.service": ("PIPELINE_STAGES", "PreprocessService"),
    "repro.serve.protocol": (
        "PROTOCOL_VERSION", "ServiceClient", "ServiceServer", "read_endpoint",
    ),
})

__all__ = [
    "BoundedJobQueue",
    "QUEUE_POLICIES",
    "WorkerPool",
    "JOB_STATES",
    "STAGE_STATUSES",
    "TERMINAL_STATES",
    "JobLogIndex",
    "JobRecord",
    "StageEvent",
    "DirectoryJobSource",
    "JobSource",
    "SourceWatcher",
    "SyntheticJobSource",
    "PIPELINE_STAGES",
    "PreprocessService",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceServer",
    "read_endpoint",
]
