"""Shard-parallel preprocessing execution engine.

Section IV-B of the paper shards a logical table into per-mini-batch
partitions stored as independent columnar files, precisely so different
workers can preprocess different partitions concurrently.  The simulation
layer models that concurrency; this module *performs* it:

1. :class:`~repro.dataio.partition.RowPartitioner` slices the raw table
   into partitions, each serialized as its own columnar file (Store);
2. every shard is read back column-selectively (Extract) and pushed
   through one shared :class:`~repro.ops.pipeline.PreprocessingPipeline`
   (Transform) into a train-ready mini-batch;
3. shards fan out across the worker processes of a
   :class:`~repro.batch.runner.BatchRunner` — the one process supervisor
   ``Sweep.run`` and ``run_experiments`` also use, so a shard worker that
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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.batch.policy import BatchPolicy
from repro.batch.runner import BatchRunner
from repro.dataio.columnar import ColumnarFileReader, TableData
from repro.dataio.partition import Partition, RowPartitioner
from repro.errors import ExecutionError
from repro.faults.injector import fault_stage
from repro.features.minibatch import MiniBatch
from repro.ops.pipeline import OpCounts, PreprocessingPipeline

#: stage telemetry hook: (stage, "started"|"completed", summary metrics)
StageCallback = Callable[[str, str, Dict[str, float]], None]


@contextmanager
def pipeline_stage(
    name: str, notify: Optional[StageCallback], seed: int
) -> Iterator[Dict[str, float]]:
    """One pipeline stage: fault probe, ``started``, the timed body, then
    ``completed`` with ``elapsed_s`` and the metrics the body put into the
    yielded dict.  A raising body emits no ``completed``."""
    fault_stage(name, seed=seed)
    if notify is not None:
        notify(name, "started", {})
    metrics: Dict[str, float] = {}
    start = time.perf_counter()
    yield metrics
    if notify is not None:
        notify(
            name, "completed",
            {"elapsed_s": time.perf_counter() - start, **metrics},
        )


def _drain(items: list) -> Iterator:
    """Yield ``items`` in order, removing each from the list as it is handed
    over, so the consumer's reference is the last one."""
    items.reverse()
    while items:
        yield items.pop()


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
    budget — runs the shards inline through
    :meth:`PreprocessingPipeline.run_many`.  Either way the returned shards
    are ordered by partition index and bit-identical between modes.
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
        then ``completed`` (with summary metrics) for each stage this
        process runs: ``partition`` (slice + columnar write) always, then
        on the inline path ``extract`` (selective column read of every
        shard) and ``transform`` (one fused op-pipeline pass).  On the
        fan-out path Extract and Transform interleave per shard inside the
        worker processes and report no stage of their own.  A failing
        stage raises; the caller records the failure and marks the stages
        that never ran as skipped.

        Errors: inline, a shard that cannot be transformed raises the
        pipeline's own error (e.g. ``PipelineError``).  On the fan-out
        path the same failure — or a worker process that dies mid-shard —
        raises :class:`~repro.errors.BatchTaskError` naming the shard's
        task, its outcome (``failed`` / ``interrupted``) and the original
        ``ErrorType: message`` text.
        """
        seed = self.pipeline.generator_seed
        with pipeline_stage("partition", on_stage, seed) as metrics:
            partitions = self.partitioner.partition_all(data)
            metrics["shards"] = len(partitions)
            metrics["rows"] = sum(p.num_rows for p in partitions)
            metrics["file_bytes"] = sum(p.size for p in partitions)
        # fan out only when more than one worker would get a shard
        if parallel and self.runner.policy.worker_count(len(partitions)) > 1:
            outcomes = self.runner.run(
                [(p.index, p.file_bytes) for p in partitions]
            )
            # outcomes come back in input order, so parallel == serial order
            return [outcome.result for outcome in outcomes]
        # inline: Extract every shard, then one fused Transform pass; each
        # stage lets go of what it consumed (file bytes, then raw tables)
        with pipeline_stage("extract", on_stage, seed) as metrics:
            raws, accounts = self._extract_all(partitions)
            metrics["bytes_read"] = sum(read for _, _, read in accounts)
            metrics["file_bytes"] = sum(size for _, size, _ in accounts)
        with pipeline_stage("transform", on_stage, seed) as metrics:
            transformed = self.pipeline.run_many(
                _drain(raws), start_batch_id=accounts[0][0] if accounts else 0
            )
            results = [
                ShardResult(
                    index=index,
                    batch=batch,
                    counts=counts,
                    file_bytes=size,
                    bytes_read=read,
                )
                for (index, size, read), (batch, counts) in zip(
                    accounts, transformed
                )
            ]
            metrics["batches"] = len(results)
            metrics["transform_elements"] = sum(
                r.counts.transform_elements for r in results
            )
        return results

    def _extract_all(
        self, partitions: List[Partition]
    ) -> Tuple[List[TableData], List[Tuple[int, int, int]]]:
        """Read every partition's required columns, emptying ``partitions``.

        Returns the raw tables and one ``(index, file size, bytes read)``
        per shard; no partition or reader outlives its own read.
        """
        wanted = self.pipeline.required_columns()
        raws: List[TableData] = []
        accounts: List[Tuple[int, int, int]] = []
        for partition in _drain(partitions):
            reader = ColumnarFileReader(partition.file_bytes)
            raws.append(reader.read_columns(wanted))
            accounts.append((partition.index, partition.size, reader.bytes_read))
        return raws, accounts

    def run_staged(
        self, data: TableData, on_stage: Optional[StageCallback] = None
    ) -> List[ShardResult]:
        """The inline staged run under its earlier name:
        ``run(data, parallel=False, on_stage=on_stage)``."""
        return self.run(data, parallel=False, on_stage=on_stage)

    def iter_shards(self, data: TableData) -> Iterator[ShardResult]:
        """Stream shards serially without materializing every partition."""
        for partition in self.partitioner.partitions(data):
            yield transform_shard(
                self.pipeline, (partition.index, partition.file_bytes)
            )


def run_preprocessing(
    pipeline: PreprocessingPipeline,
    data: TableData,
    num_shards: int = 1,
    processes: Optional[int] = None,
    parallel: bool = True,
) -> Tuple[List[ShardResult], ShardRunStats]:
    """One-call front door: shard ``data`` ``num_shards`` ways and run."""
    num_rows = len(data[pipeline.schema.label.name])
    executor = ShardExecutor.for_shards(
        pipeline, num_shards=num_shards, num_rows=num_rows, processes=processes
    )
    results = executor.run(data, parallel=parallel)
    return results, ShardRunStats.from_results(results)
