"""Bucketize — feature generation (Algorithm 1 of the paper).

Transforms a dense feature into a sparse categorical feature by digitizing
each value against a predefined, sorted array of bucket boundaries using
binary search.  TorchArrow semantics (matching ``torcharrow.functional.
bucketize`` / ``numpy.digitize`` with ``right=False``):

* value < boundaries[0]            -> bucket 0
* boundaries[i-1] <= value < boundaries[i] -> bucket i
* value >= boundaries[-1]          -> bucket len(boundaries)

so ``m`` boundaries produce ``m + 1`` bucket ids, and the generated feature
indexes an embedding table of at least ``m + 1`` rows.

Two implementations are provided: a vectorized numpy path (used everywhere)
and a scalar reference path (:func:`search_bucket_id`) that transcribes the
paper's pseudocode literally; property tests assert they agree.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import OpError
from repro.ops.dest import destination, real_values
from repro.ops.tile import tiles


def _check_boundaries(boundaries: np.ndarray) -> np.ndarray:
    boundaries = real_values("bucket boundaries", boundaries).astype(
        np.float64, copy=False
    )
    if boundaries.ndim != 1 or len(boundaries) == 0:
        raise OpError("bucket boundaries must be a non-empty 1-D array")
    if np.isnan(boundaries).any():
        # every comparison with NaN is false: the search would answer anyway
        raise OpError(
            f"bucket boundaries must not contain NaN, got NaN at index "
            f"{int(np.argmax(np.isnan(boundaries)))}"
        )
    rising = np.diff(boundaries) > 0
    if not rising.all():
        at = int(np.argmin(rising)) + 1
        raise OpError(
            f"bucket boundaries must be strictly increasing, got "
            f"boundaries[{at}] = {boundaries[at]} after {boundaries[at - 1]}"
        )
    return boundaries


def search_bucket_id(value: float, boundaries: np.ndarray) -> int:
    """Scalar binary search, line-for-line with Algorithm 1's SearchBucketID."""
    boundaries = _check_boundaries(boundaries)
    lo, hi = 0, len(boundaries)
    while lo < hi:
        mid = (lo + hi) // 2
        if value < boundaries[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class Bucketizer:
    """Bucketize with the boundary structure validated and cached once.

    A :class:`~repro.ops.pipeline.PreprocessingPipeline` digitizes the same
    dense features against the same boundaries for every batch; validating
    the ``m``-edge array (monotonicity, shape) on every call is pure
    per-batch overhead.  Constructing a ``Bucketizer`` performs the checks
    and dtype conversion once; calling it is just the binary search.
    """

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: np.ndarray) -> None:
        self.boundaries = _check_boundaries(boundaries)

    def __call__(
        self, values: np.ndarray, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bucket ids of ``values`` into ``out`` (int64, same shape;
        allocated when not given), which is returned.

        Each tile (:mod:`repro.ops.tile`) of needles is sorted before it is
        searched: over sorted needles the binary search's branches are
        predictable and the edges it touches stay hot, which pays for the
        sort twice over.  Equal needles get equal ids, so the sort need not
        be stable; the ids go back through the permutation.
        """
        values = real_values("bucketize", values)
        if values.ndim != 1:
            raise OpError(
                f"bucketize input must be 1-D, got shape {values.shape}"
            )
        out = destination("bucketize", out, values.shape, np.int64)
        for tile in tiles(len(values)):
            needles = values[tile].astype(np.float64, copy=False)
            order = np.argsort(needles)
            needles = needles[order]
            ids = np.searchsorted(self.boundaries, needles, side="right")
            if np.isnan(needles[-1]):  # NaNs sort last: one look finds any
                ids[np.isnan(needles)] = 0
            out[tile][order] = ids
        return out

    @property
    def num_buckets(self) -> int:
        """Cardinality of the generated feature: ``len(boundaries) + 1``."""
        return len(self.boundaries) + 1


def bucketize(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Digitize a dense feature column into bucket ids (int64).

    NaNs (missing dense values that escaped the fill op) map to bucket 0,
    matching TorchArrow's null-to-zero index convention.  One-shot form of
    :class:`Bucketizer`; pipelines cache the prepared form instead.
    """
    return Bucketizer(boundaries)(values)
