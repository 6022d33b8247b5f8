"""Clamp and list-truncation operators.

Two more transformations from TorchArrow's production DLRM recipes:

* :func:`clamp` — bound dense values into ``[low, high]`` before Log, which
  tames corrupt outliers in logged counters;
* :func:`truncate_list` — cap each sparse feature list at ``max_length``
  ids (keeping the most recent, i.e. the tail), bounding the embedding
  lookup work per sample.  Production pipelines truncate long interaction
  histories exactly this way.

Both are elementwise/rowwise and carry the same inter-/intra-feature
parallelism as the three headline ops.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import OpError
from repro.ops.dest import destination, jagged_column


def clamp(
    values: np.ndarray,
    low: float,
    high: float,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Clamp a dense column into ``[low, high]`` (NaNs pass through).

    float32 out: into ``out`` (same shape; may be ``values`` itself) when
    given, else a fresh array.
    """
    if low != low or high != high:  # np.clip would answer all-NaN
        raise OpError(f"clamp bounds must not be NaN, got [{low}, {high}]")
    if low > high:
        raise OpError(f"clamp range is empty: [{low}, {high}]")
    values = np.asarray(values)
    if values.ndim != 1:
        raise OpError(f"clamp input must be 1-D, got shape {values.shape}")
    if out is None:
        return np.clip(values, low, high).astype(np.float32)
    return np.clip(
        values, low, high,
        out=destination("clamp", out, values.shape, np.float32),
    )


def truncate_list(
    lengths: np.ndarray, values: np.ndarray, max_length: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep at most the last ``max_length`` ids of every row's list.

    Keeping the tail preserves the most recent interactions, matching the
    recency bias of production history truncation.  A column with no
    over-long row is returned as it came, not copied.
    """
    if max_length <= 0:
        raise OpError("max_length must be positive")
    lengths, values = jagged_column("truncate_list", lengths, values)
    if not len(lengths) or lengths.max(initial=0) <= max_length:
        return lengths, values

    new_lengths = np.minimum(lengths, max_length)
    # output position p of row r reads values[tail_start[r] + p - out_start[r]]:
    # one per-row shift repeated over the row's kept ids, one gather
    tail_starts = np.cumsum(lengths, dtype=np.int64) - new_lengths
    out_starts = np.cumsum(new_lengths, dtype=np.int64) - new_lengths
    source = np.repeat(tail_starts - out_starts, new_lengths)
    source += np.arange(len(source))
    return new_lengths, values[source]
