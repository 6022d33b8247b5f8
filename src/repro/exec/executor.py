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
3. shards fan out across a ``multiprocessing`` pool; results always come
   back in partition order with ``batch_id == partition.index``, so a
   parallel run is bit-identical to the serial one (the same guarantee
   :class:`repro.api.Sweep` makes for scenario grids).

The pool workers receive the pipeline once (pool initializer), not per
shard, so the per-pipeline caches — bucket boundary structures, hash
constants — are amortized across every shard a worker handles.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.dataio.columnar import ColumnarFileReader, TableData
from repro.dataio.partition import Partition, RowPartitioner
from repro.errors import ExecutionError
from repro.faults.injector import fault_stage
from repro.features.minibatch import MiniBatch
from repro.ops.pipeline import OpCounts, PreprocessingPipeline

#: stage telemetry hook: (stage, "started"|"completed", summary metrics)
StageCallback = Callable[[str, str, Dict[str, float]], None]

#: pipeline shared by every task a pool worker runs (set by the initializer)
_WORKER_PIPELINE: Optional[PreprocessingPipeline] = None


def _init_worker(pipeline: PreprocessingPipeline) -> None:
    """Pool initializer: unpickle the pipeline once per worker process."""
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _run_worker_shard(task: Tuple[int, bytes]) -> "ShardResult":
    """Module-level map target so pool workers can unpickle it."""
    index, file_bytes = task
    return _transform_shard(_WORKER_PIPELINE, index, file_bytes)


def _transform_shard(
    pipeline: PreprocessingPipeline, index: int, file_bytes: bytes
) -> "ShardResult":
    """Extract one partition's columns and transform them (one shard)."""
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

    ``processes`` bounds the pool (default: the machine's CPU count);
    ``parallel=False`` — or a single shard, or a one-process pool — runs
    the shards inline through :meth:`PreprocessingPipeline.run_many`.
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

    def _pool_size(self, num_shards: int) -> int:
        limit = self.processes or os.cpu_count() or 1
        return max(1, min(limit, num_shards))

    def run(
        self, data: TableData, parallel: bool = True
    ) -> List[ShardResult]:
        """Preprocess every partition of ``data``; results in shard order."""
        partitions = self.partitioner.partition_all(data)
        workers = self._pool_size(len(partitions)) if parallel else 1
        if workers <= 1 or len(partitions) <= 1:
            return self._run_serial(partitions)
        tasks = [(p.index, p.file_bytes) for p in partitions]
        with multiprocessing.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(self.pipeline,),
        ) as pool:
            # map() preserves input order, so parallel == serial ordering
            return pool.map(_run_worker_shard, tasks)

    def _run_serial(self, partitions: List[Partition]) -> List[ShardResult]:
        """Inline path: Extract every shard, then one fused Transform pass."""
        return self._extract_transform(partitions, lambda stage, status, m: None)

    def _extract_transform(
        self,
        partitions: List[Partition],
        notify: "StageCallback",
    ) -> List[ShardResult]:
        wanted = self.pipeline.required_columns()
        fault_stage("extract", seed=self.pipeline.generator_seed)
        notify("extract", "started", {})
        start = time.perf_counter()
        readers = [ColumnarFileReader(p.file_bytes) for p in partitions]
        raws = [reader.read_columns(wanted) for reader in readers]
        notify(
            "extract",
            "completed",
            {
                "elapsed_s": time.perf_counter() - start,
                "bytes_read": sum(r.bytes_read for r in readers),
                "file_bytes": sum(p.size for p in partitions),
            },
        )
        fault_stage("transform", seed=self.pipeline.generator_seed)
        notify("transform", "started", {})
        start = time.perf_counter()
        transformed = self.pipeline.run_many(
            raws, start_batch_id=partitions[0].index if partitions else 0
        )
        results = [
            ShardResult(
                index=partition.index,
                batch=batch,
                counts=counts,
                file_bytes=partition.size,
                bytes_read=reader.bytes_read,
            )
            for partition, reader, (batch, counts) in zip(
                partitions, readers, transformed
            )
        ]
        notify(
            "transform",
            "completed",
            {
                "elapsed_s": time.perf_counter() - start,
                "batches": len(results),
                "transform_elements": sum(
                    r.counts.transform_elements for r in results
                ),
            },
        )
        return results

    def run_staged(
        self, data: TableData, on_stage: Optional["StageCallback"] = None
    ) -> List[ShardResult]:
        """Serial run emitting structured stage telemetry.

        ``on_stage(stage, status, metrics)`` fires with status ``started``
        then ``completed`` for each of the pipeline's stages — ``partition``
        (slice + columnar write), ``extract`` (selective column read), and
        ``transform`` (the fused op pipeline) — with summary metrics on
        completion.  A failing stage raises; the caller records the failure
        and marks the stages that never ran as skipped.  Output is
        bit-identical to :meth:`run` (the streaming service's digest check
        depends on exactly that).
        """
        notify = on_stage or (lambda stage, status, metrics: None)
        fault_stage("partition", seed=self.pipeline.generator_seed)
        notify("partition", "started", {})
        start = time.perf_counter()
        partitions = self.partitioner.partition_all(data)
        notify(
            "partition",
            "completed",
            {
                "elapsed_s": time.perf_counter() - start,
                "shards": len(partitions),
                "rows": sum(p.num_rows for p in partitions),
                "file_bytes": sum(p.size for p in partitions),
            },
        )
        return self._extract_transform(partitions, notify)

    def iter_shards(self, data: TableData) -> Iterator[ShardResult]:
        """Stream shards serially without materializing every partition."""
        for partition in self.partitioner.partitions(data):
            yield _transform_shard(
                self.pipeline, partition.index, partition.file_bytes
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
