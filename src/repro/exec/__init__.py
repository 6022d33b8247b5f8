"""Shard-parallel preprocessing execution (the functional data plane).

While :mod:`repro.core` *simulates* preprocessing systems, this package
*executes* the real Extract -> Transform path over sharded data:
:class:`ShardExecutor` maps :class:`~repro.dataio.partition.RowPartitioner`
partitions through write -> read -> :class:`~repro.ops.pipeline.
PreprocessingPipeline` across the worker processes of the shared
:class:`~repro.batch.runner.BatchRunner` with deterministic,
serial-identical minibatch ordering.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exec.executor": ("ShardExecutor", "ShardResult", "ShardRunStats"),
})

__all__ = [
    "ShardExecutor",
    "ShardResult",
    "ShardRunStats",
]
