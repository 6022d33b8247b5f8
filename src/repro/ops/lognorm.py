"""Log — dense feature normalization.

TorchArrow's DLRM recipe normalizes each dense feature with
``log(x + 1)`` after clamping negatives to zero, compressing the heavy-tailed
count distributions Criteo-style data exhibits.  NaNs that survive the fill
op are treated as zero, matching the null-handling of the reference pipeline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import OpError
from repro.ops.dest import destination


def log_normalize(
    values: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Apply ``log(max(x, 0) + 1)`` elementwise; output float32.

    ``values`` is one 1-D column, returned as a fresh array — or, with
    ``out=`` (float32, same shape), a block of any shape whose result lands
    in ``out``, which may be a strided view such as a transposed slab of a
    row-major dense matrix.  The arithmetic is float64 either way; the one
    temporary is the float64 copy of ``values`` it runs in.
    """
    values = np.asarray(values)
    if out is None and values.ndim != 1:
        raise OpError(f"log_normalize input must be 1-D, got shape {values.shape}")
    out = destination("log_normalize", out, values.shape, np.float32)
    work = values.astype(np.float64)
    np.nan_to_num(work, copy=False, nan=0.0)
    np.maximum(work, 0.0, out=work)
    np.log1p(work, out=work)
    out[...] = work  # the float32 cast, on the way to wherever out lives
    return out
