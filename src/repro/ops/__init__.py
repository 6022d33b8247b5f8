"""Functional preprocessing operators (TorchArrow stand-ins).

These kernels implement the exact transformations the paper offloads:

* :func:`bucketize` — Algorithm 1, feature generation via binary search;
* :func:`sigrid_hash` — Algorithm 2, feature normalization via seeded hash;
* :func:`log_normalize` — dense feature normalization;
* :func:`fill_dense` / :func:`fill_sparse` — missing-value handling;
* :class:`PreprocessingPipeline` — the full per-model op graph.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ops.bucketize": ("Bucketizer", "bucketize", "search_bucket_id"),
    "repro.ops.sigridhash": (
        "SigridHasher", "hash64", "sigrid_hash", "sigrid_hash_scalar",
    ),
    "repro.ops.lognorm": ("log_normalize",),
    "repro.ops.fill": ("fill_dense", "fill_sparse"),
    "repro.ops.pipeline": ("PreprocessingPipeline",),
    "repro.ops.counts": ("OpCounts",),
})

__all__ = [
    "Bucketizer",
    "bucketize",
    "search_bucket_id",
    "SigridHasher",
    "sigrid_hash",
    "sigrid_hash_scalar",
    "hash64",
    "log_normalize",
    "fill_dense",
    "fill_sparse",
    "PreprocessingPipeline",
    "OpCounts",
]
