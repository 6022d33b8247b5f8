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
from repro.ops.dest import destination, real_values


#: ``log1p`` of the largest float64 — what ``+inf`` normalizes to (the
#: value ``nan_to_num`` substituted for it before the logarithm)
_LOG1P_MAX = float(np.log1p(np.finfo(np.float64).max))


def log_normalize(
    values: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Apply ``log(max(x, 0) + 1)`` elementwise; output float32.

    ``values`` is one 1-D column, returned as a fresh array — or, with
    ``out=`` (float32, same shape), a block of any shape whose result lands
    in ``out``, which may be a strided view such as a transposed slab of a
    row-major dense matrix.  The logarithm is float64 whatever the input;
    everything before it runs in the input's own (narrower) dtype:

    ===========  ==============  =========  ==================
    x            ``fmax(x, 0)``  ``log1p``  ``minimum(., cap)``
    ===========  ==============  =========  ==================
    NaN, -inf    0               0          0
    negative     0               0          0
    -0.0         +-0.0 -> +0.0   0          0
    +inf         +inf            +inf       ``log1p(DBL_MAX)``
    ===========  ==============  =========  ==================

    (``fmax`` may return either zero for ``-0.0``, and which one depends on
    the SIMD lane the element fell in; ``abs`` settles it.)  The block is
    not tiled further: the pipeline's 16-column block is already
    cache-sized, and narrower tiles only measured slower.
    """
    values = real_values("log_normalize", values)
    if out is None and values.ndim != 1:
        raise OpError(f"log_normalize input must be 1-D, got shape {values.shape}")
    out = destination("log_normalize", out, values.shape, np.float32)
    floor = np.asarray(np.fmax(values, 0))  # (a 0-d result is a scalar)
    work = np.empty(values.shape, dtype=np.float64)
    np.log1p(np.abs(floor, out=floor), out=work, dtype=np.float64)
    np.minimum(work, _LOG1P_MAX, out=work)
    out[...] = work  # the float32 cast, on the way to wherever out lives
    return out
