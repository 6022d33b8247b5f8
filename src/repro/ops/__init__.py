"""Functional preprocessing operators (TorchArrow stand-ins).

These kernels implement the exact transformations the paper offloads:

* :func:`bucketize` — Algorithm 1, feature generation via binary search;
* :func:`sigrid_hash` — Algorithm 2, feature normalization via seeded hash;
* :func:`log_normalize` — dense feature normalization;
* :func:`fill_dense` / :func:`fill_sparse` — missing-value handling;
* :class:`PreprocessingPipeline` — the full per-model op graph.
"""

from repro.ops.bucketize import Bucketizer, bucketize, search_bucket_id
from repro.ops.sigridhash import (
    SigridHasher,
    hash64,
    sigrid_hash,
    sigrid_hash_scalar,
)
from repro.ops.lognorm import log_normalize
from repro.ops.fill import fill_dense, fill_sparse
from repro.ops.pipeline import PreprocessingPipeline, OpCounts

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
