"""Shard-parallel preprocessing execution (the functional data plane).

While :mod:`repro.core` *simulates* preprocessing systems, this package
*executes* the real Extract -> Transform path over sharded data:
:class:`ShardExecutor` maps :class:`~repro.dataio.partition.RowPartitioner`
partitions through write -> read -> :class:`~repro.ops.pipeline.
PreprocessingPipeline` across the worker processes of the shared
:class:`~repro.batch.runner.BatchRunner` with deterministic,
serial-identical minibatch ordering.
"""

from repro.exec.executor import (
    ShardExecutor,
    ShardResult,
    ShardRunStats,
)

__all__ = [
    "ShardExecutor",
    "ShardResult",
    "ShardRunStats",
]
