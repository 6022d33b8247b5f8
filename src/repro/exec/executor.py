"""Shard-parallel preprocessing execution engine.

Section IV-B of the paper shards a logical table into per-mini-batch
partitions stored as independent columnar files, precisely so different
workers can preprocess different partitions concurrently.  The simulation
layer models that concurrency; this module *performs* it:

1. :class:`~repro.dataio.partition.RowPartitioner` slices the raw table
   into partitions, each serialized as its own columnar file (Store);
2. every shard is read back column-selectively (Extract) and pushed
   through one shared :class:`~repro.ops.pipeline.PreprocessingPipeline`
   (Transform) into a train-ready mini-batch — inline, one shard at a
   time: a partition is written, read, transformed and let go before the
   next is sliced (:meth:`ShardExecutor.iter_shards`);
3. or shards fan out across the worker processes of a
   :class:`~repro.batch.runner.BatchRunner` — the runner ``Sweep.run`` and
   ``run_experiments`` drive on its serial path; this fan-out is its one
   ``src/`` user outside the chaos tier — so a shard worker that
   raises or is killed ends the run with a typed
   :class:`~repro.errors.BatchTaskError` instead of a hang; results always
   come back in partition order with ``batch_id == partition.index``, so a
   parallel run is bit-identical to the serial one.

The forked workers inherit the pipeline (it is bound into their task
function), not a copy per shard, so the per-pipeline caches — bucket
boundary structures, hash constants — are amortized across every shard a
worker handles.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.batch.policy import BatchPolicy
from repro.batch.runner import BatchRunner
from repro.dataio.columnar import ColumnarFileReader, TableData
from repro.dataio.partition import Partition, RowPartitioner
from repro.errors import ExecutionError
from repro.faults.injector import fault_stage
from repro.features.minibatch import MiniBatch
from repro.ops.counts import OpCounts
from repro.ops.pipeline import PreprocessingPipeline

#: stage telemetry hook: (stage, "started"|"completed", summary metrics)
StageCallback = Callable[[str, str, Dict[str, float]], None]


class pipeline_stage:
    """One pipeline stage as a context manager, enterable once per shard.

    The first entry runs the stage's fault probe, then emits ``started``.
    Every entry times its body and hands it the stage's one metrics dict
    (a body adds what it did with :func:`tally`).  The exit of entry number
    ``entries`` — 1 by default, a plain ``with`` block — emits ``completed``
    with ``elapsed_s``, the time spent inside the bodies, and the metrics.
    A raising body emits no ``completed``, then or later.  :meth:`close`
    completes a started stage whose remaining entries will not come (another
    stage failed), with the counts it reached.
    """

    def __init__(
        self,
        name: str,
        notify: Optional[StageCallback],
        seed: int,
        entries: int = 1,
    ) -> None:
        self.name = name
        self.notify = notify
        self.seed = seed
        self.metrics: Dict[str, float] = {}
        self.elapsed_s = 0.0
        self._remaining = entries
        self._open = False  # started, and neither completed nor failed
        self._entered_at: Optional[float] = None  # None until first entry

    def __enter__(self) -> Dict[str, float]:
        if self._entered_at is None:
            fault_stage(self.name, seed=self.seed)
            self._open = True
            if self.notify is not None:
                self.notify(self.name, "started", {})
        self._entered_at = time.perf_counter()
        return self.metrics

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.elapsed_s += time.perf_counter() - self._entered_at
        if exc_type is not None:
            self._open = False
            return
        self._remaining -= 1
        if self._remaining <= 0:
            self.close()

    def close(self) -> None:
        if self._open:
            self._open = False
            if self.notify is not None:
                self.notify(
                    self.name, "completed",
                    {"elapsed_s": self.elapsed_s, **self.metrics},
                )


def tally(metrics: Dict[str, float], **amounts: float) -> None:
    """Add ``amounts`` to a stage's running metrics (absent keys start at 0)."""
    for key, amount in amounts.items():
        metrics[key] = metrics.get(key, 0) + amount


def transform_shard(
    pipeline: PreprocessingPipeline, shard: Tuple[int, bytes]
) -> "ShardResult":
    """Extract one partition's columns and transform them: the body of one
    ``(index, file_bytes)`` shard, wherever it runs."""
    index, file_bytes = shard
    reader = ColumnarFileReader(file_bytes)
    raw = reader.read_columns(pipeline.required_columns())
    batch, counts = pipeline.run(raw, batch_id=index)
    return ShardResult(
        index=index,
        batch=batch,
        counts=counts,
        file_bytes=len(file_bytes),
        bytes_read=reader.bytes_read,
    )


@dataclass
class ShardResult:
    """One preprocessed shard: the mini-batch plus its work accounting."""

    index: int
    batch: MiniBatch
    counts: OpCounts
    file_bytes: int  # encoded size of the shard's columnar file
    bytes_read: int  # bytes the Extract phase actually touched


@dataclass
class ShardRunStats:
    """Aggregate accounting of one executor run."""

    num_shards: int
    num_rows: int
    file_bytes: int
    bytes_read: int
    transform_elements: int

    @classmethod
    def from_results(cls, results: List[ShardResult]) -> "ShardRunStats":
        return cls(
            num_shards=len(results),
            num_rows=sum(r.counts.rows for r in results),
            file_bytes=sum(r.file_bytes for r in results),
            bytes_read=sum(r.bytes_read for r in results),
            transform_elements=sum(
                r.counts.transform_elements for r in results
            ),
        )


class ShardExecutor:
    """Map table partitions through write -> read -> pipeline, in parallel.

    ``processes`` bounds the worker processes (default: the machine's CPU
    count); ``parallel=False`` — or a single shard, or a one-process
    budget — runs the shards inline, one in flight (:meth:`iter_shards`).
    Either way the returned shards are ordered by partition index and
    bit-identical between modes.
    """

    def __init__(
        self,
        pipeline: PreprocessingPipeline,
        rows_per_shard: int = 8192,
        processes: Optional[int] = None,
    ) -> None:
        if rows_per_shard <= 0:
            raise ExecutionError("rows_per_shard must be positive")
        if processes is not None and processes <= 0:
            raise ExecutionError("processes must be positive when given")
        self.pipeline = pipeline
        self.rows_per_shard = rows_per_shard
        self.processes = processes
        self.partitioner = RowPartitioner(
            pipeline.schema, rows_per_partition=rows_per_shard
        )
        #: the fan-out: strict and retry-free, so the first shard that
        #: raises, or whose worker dies, ends the run with a typed error
        self.runner = BatchRunner(
            functools.partial(transform_shard, pipeline),
            policy=BatchPolicy(max_retries=0, processes=processes),
        )

    @classmethod
    def for_shards(
        cls,
        pipeline: PreprocessingPipeline,
        num_shards: int,
        num_rows: int,
        processes: Optional[int] = None,
    ) -> "ShardExecutor":
        """Size shards so ``num_rows`` split into (at most) ``num_shards``.

        A shard holds at least one row, so asking for more shards than rows
        yields one single-row shard per row — never an empty shard.
        """
        if num_shards <= 0:
            raise ExecutionError("num_shards must be positive")
        if num_rows <= 0:
            raise ExecutionError("num_rows must be positive")
        rows_per_shard = max(1, math.ceil(num_rows / num_shards))
        return cls(pipeline, rows_per_shard=rows_per_shard, processes=processes)

    # -- execution ---------------------------------------------------------

    def run(
        self,
        data: TableData,
        parallel: bool = True,
        on_stage: Optional[StageCallback] = None,
    ) -> List[ShardResult]:
        """Preprocess every partition of ``data``; results in shard order.

        ``on_stage(stage, status, metrics)`` fires with status ``started``
        then ``completed`` (with summary metrics), once each, for each
        stage this process runs.  The inline path is :meth:`iter_shards`,
        collected: ``partition`` (slice + columnar write), ``extract``
        (selective column read) and ``transform`` (the op pipeline) take
        turns shard by shard, so their events overlap as described there.
        The fan-out path materializes every partition first (its tasks
        must exist up front) and reports ``partition`` only: Extract and
        Transform interleave per shard inside the worker processes.  A
        failing stage raises; the caller records the failure and marks the
        stages that never ran as skipped.

        Errors: inline, a shard that cannot be transformed raises the
        pipeline's own error (e.g. ``PipelineError``).  On the fan-out
        path the same failure — or a worker process that dies mid-shard —
        raises :class:`~repro.errors.BatchTaskError` naming the shard's
        task, its outcome (``failed`` / ``interrupted``) and the original
        ``ErrorType: message`` text.
        """
        # fan out only when more than one worker would get a shard
        shards = self.partitioner.num_partitions(data)
        if not (parallel and self.runner.policy.worker_count(shards) > 1):
            return list(self.iter_shards(data, on_stage))
        seed = self.pipeline.generator_seed
        with pipeline_stage("partition", on_stage, seed) as metrics:
            partitions = self.partitioner.partition_all(data)
            metrics["shards"] = len(partitions)
            metrics["rows"] = sum(p.num_rows for p in partitions)
            metrics["file_bytes"] = sum(p.size for p in partitions)
        outcomes = self.runner.run([(p.index, p.file_bytes) for p in partitions])
        # outcomes come back in input order, so parallel == serial order
        return [outcome.result for outcome in outcomes]

    def iter_shards(
        self, data: TableData, on_stage: Optional[StageCallback] = None
    ) -> Iterator[ShardResult]:
        """The inline path: stream shards in order, one in flight.

        Each partition is written, read back, transformed and yielded
        before the next is sliced, and each step lets go of what it
        consumed — the file once its columns are read, the raw table once
        transformed — so the run holds one shard's file + raw table beside
        its results, however many shards ``data`` has.

        The three stages therefore overlap, and each is one
        :class:`pipeline_stage` entered once per shard: probe and
        ``started`` on its first shard, ``completed`` (summed metrics,
        ``elapsed_s`` = time inside its bodies) after its last.  One shard
        reads ``P s, P c, E s, E c, T s, T c``; n shards ``P s, E s, T s,
        ..., P c, E c, T c``.  When a body raises, its stage stays without
        ``completed`` and the others are closed with the counts they
        reached.
        """
        seed = self.pipeline.generator_seed
        # an empty table still enters the partition stage, and raises there
        shards = max(1, self.partitioner.num_partitions(data))
        stages = [
            pipeline_stage(name, on_stage, seed, entries=shards)
            for name in ("partition", "extract", "transform")
        ]
        partitions = self.partitioner.partitions(data)
        try:
            for _ in range(shards):
                yield self._staged_shard(partitions, *stages)
        finally:
            for stage in stages:
                stage.close()

    def _staged_shard(
        self,
        partitions: Iterator[Partition],
        partition: pipeline_stage,
        extract: pipeline_stage,
        transform: pipeline_stage,
    ) -> ShardResult:
        """The next partition through write -> read -> transform, each step
        inside its stage; nothing of the shard outlives this frame but the
        result."""
        with partition as metrics:
            part = next(partitions)
            tally(metrics, shards=1, rows=part.num_rows, file_bytes=part.size)
        with extract as metrics:
            reader = ColumnarFileReader(part.file_bytes)
            raw = reader.read_columns(self.pipeline.required_columns())
            index, size, read = part.index, part.size, reader.bytes_read
            del part, reader  # the file is gone before its table is transformed
            tally(metrics, bytes_read=read, file_bytes=size)
        with transform as metrics:
            batch, counts = self.pipeline.run(raw, batch_id=index)
            del raw
            tally(
                metrics, batches=1, transform_elements=counts.transform_elements
            )
        return ShardResult(
            index=index, batch=batch, counts=counts,
            file_bytes=size, bytes_read=read,
        )
