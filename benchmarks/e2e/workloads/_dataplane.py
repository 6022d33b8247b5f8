"""Shared body of ``dp_wide`` and ``dp_sharded``: one table through
partition -> columnar write -> selective read -> transform."""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

from harness import layer_seconds, median
from workloads import Workload


def table_nbytes(data) -> int:
    """In-memory size of a raw table (dense arrays + jagged pairs)."""
    total = 0
    for column in data.values():
        parts = column if isinstance(column, tuple) else (column,)
        total += sum(np.asarray(part).nbytes for part in parts)
    return total


def slice_rows(data, bounds: List[Tuple[int, int]]) -> List[dict]:
    """Row ranges of an in-memory table — the reference's own slicer, so
    the check does not lean on the partitioner it is checking."""
    shards: List[dict] = [{} for _ in bounds]
    for name, column in data.items():
        if isinstance(column, tuple):
            lengths, values = column
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            for shard, (start, stop) in zip(shards, bounds):
                shard[name] = (
                    lengths[start:stop], values[offsets[start]:offsets[stop]]
                )
        else:
            for shard, (start, stop) in zip(shards, bounds):
                shard[name] = column[start:stop]
    return shards


class ShardedDataPlane(Workload):
    """``PreprocessJob(...).build_executor().run(data, parallel=...)``."""

    unit = "row"
    rate_name = "rows_per_s"
    warmups = 2
    model = "RM1"
    rows = 8192
    shards = 1
    processes = 1
    parallel = False

    def prepare(self) -> None:
        from repro.api import PreprocessJob
        from repro.features.synthetic import SyntheticTableGenerator

        self.num_rows = self.scaled(self.rows)
        self.job = PreprocessJob(
            self.model, num_rows=self.num_rows, num_shards=self.shards,
            processes=self.processes, seed=self.seed,
        )
        generator = SyntheticTableGenerator(self.job.spec(), seed=self.seed)
        self.data = generator.generate(self.num_rows)
        self.executor = self.job.build_executor()

    def reference(self) -> None:
        """Direct in-memory transform of the same row ranges: no files, no
        partitioner, no executor."""
        from repro.api import preprocess

        step = self.executor.rows_per_shard
        bounds = [
            (start, min(start + step, self.num_rows))
            for start in range(0, self.num_rows, step)
        ]
        pipeline = self.executor.pipeline
        batches = [
            pipeline.run(shard, batch_id=index)[0]
            for index, shard in enumerate(slice_rows(self.data, bounds))
        ]
        self.expected = preprocess.minibatch_digest(batches)

    def iteration(self, tracer):
        return self.executor.run(self.data, parallel=self.parallel)

    def units(self, result) -> float:
        return float(self.num_rows)

    def check(self, result, tracer):
        from repro.api import preprocess

        digest = preprocess.minibatch_digest([shard.batch for shard in result])
        return 1, int(digest != self.expected), digest

    # -- traced pass ---------------------------------------------------------

    def probes(self, tracer) -> Dict[str, float]:
        """The same job with ``parallel=False``: the single-thread baseline
        whose spans (all in this process) split the run into layers."""
        self.serial_s = []
        if not self.parallel:
            return {}
        for index in range(2):
            tracer.iteration = index
            start = time.perf_counter()
            self.executor.run(self.data, parallel=False)
            self.serial_s.append(time.perf_counter() - start)
        return {}

    def facts(self, result, ledger) -> Dict[str, float]:
        from repro.exec import ShardRunStats

        stats = ShardRunStats.from_results(result)
        run_s = layer_seconds(ledger, "exec.executor.run")
        serial_phase = "probe" if self.parallel else "iter"
        serial_s = median(self.serial_s) if self.parallel else run_s
        transform_s = layer_seconds(ledger, "ops.pipeline.transform")
        workers = 1
        if self.parallel:
            workers = min(self.processes or os.cpu_count() or 1, stats.num_shards)
        return {
            "features.synthetic.rows": stats.num_rows,
            "dataio.columnar.file_bytes": stats.file_bytes,
            "dataio.columnar.bytes_read": stats.bytes_read,
            "dataio.columnar.bytes_per_raw_byte": (
                stats.file_bytes / table_nbytes(self.data)
            ),
            "ops.pipeline.transform_elements": stats.transform_elements,
            "ops.pipeline.ns_per_element": (
                transform_s / stats.transform_elements * 1e9
            ),
            "exec.executor.serial_run_s": serial_s,
            "exec.executor.self_s": median(
                ledger.self_per_iteration("exec.executor.run", serial_phase).values()
            ),
            "exec.executor.parallel_speedup": serial_s / run_s if run_s else 0.0,
            "exec.executor.pool_workers": workers,
        }
