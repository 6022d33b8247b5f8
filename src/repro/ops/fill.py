"""Missing-value handling for raw feature columns.

Raw logged data has holes: dense features with no observation for a user and
sparse features with empty interaction lists.  TorchArrow pipelines run a
``fill_null`` before normalization; these are its equivalents.  Their cost is
part of the "Else" slice in the paper's Figure 5 breakdown.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import OpError
from repro.ops.dest import destination, jagged_column, real_values


def fill_dense(
    values: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Replace NaNs in a dense column with 0 (float32 out).

    The result lands in ``out`` (float32, same shape) when given, else in a
    fresh array; either way it is returned.
    """
    values = real_values("fill_dense", values)
    if values.ndim != 1:
        raise OpError(f"fill_dense input must be 1-D, got shape {values.shape}")
    out = destination("fill_dense", out, values.shape, np.float32)
    np.copyto(out, values, casting="unsafe")  # the cast astype would do
    nan_mask = np.isnan(out)
    if nan_mask.any():
        out[nan_mask] = 0.0
    return out


def fill_sparse(
    lengths: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Give every empty sparse row a single id 0 entry.

    Embedding lookups need at least one index per (sample, feature) for the
    pooled reduction to be defined; TorchRec pads empty bags the same way.
    A column with no empty row is returned as it came, not copied.
    """
    lengths, values = jagged_column("fill_sparse", lengths, values)
    empty = lengths == 0
    if not empty.any():
        return lengths, values
    new_lengths = lengths.copy()
    new_lengths[empty] = 1
    # the output is ``values`` in order with one default id spliced in at
    # the start offset of every empty row: a masked store, no row loop
    row_starts = np.cumsum(new_lengths) - new_lengths
    is_default = np.zeros(len(values) + int(empty.sum()), dtype=bool)
    is_default[row_starts[empty]] = True
    out = np.empty(len(is_default), dtype=np.int64)
    out[is_default] = 0
    out[~is_default] = values
    return new_lengths, out
