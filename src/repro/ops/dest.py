"""What a kernel is handed, and where its result lands.

Every op kernel allocates and returns its result by default; a caller that
already owns the result's final home — the pipeline filling the mini-batch
it is building — passes it as the keyword-only ``out=`` instead, and the
kernel writes there without a full-size temporary or a copy afterwards.
The kernels that compare, fill or take logarithms accept real numbers
only, and say so themselves instead of leaking whatever numpy raises (or,
for complex input, merely warns about) halfway through the column.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import OpError


def real_values(op: str, values) -> np.ndarray:
    """``values`` as an array of real numbers (bool, integer or float
    dtype); text, complex and object columns are the caller's mistake."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise OpError(
            f"{op} input must be real numbers, got dtype {values.dtype}"
        )
    return values


def jagged_column(
    op: str, lengths, values
) -> Tuple[np.ndarray, np.ndarray]:
    """One sparse feature as ``(int32 lengths, int64 ids)``: both 1-D, no
    negative length (``[-1, 4]`` sums to three ids as well as ``[1, 2]``
    does), the lengths summing to the id count.  Neither is cast from a
    non-integer dtype (a float length or id would truncate); an empty
    one may have any dtype."""
    lengths = np.asarray(lengths)
    values = np.asarray(values)
    for what, array in (("lengths", lengths), ("ids", values)):
        if array.size and array.dtype.kind not in "iu":
            raise OpError(
                f"{op} {what} must be integers, got dtype {array.dtype}"
            )
    lengths = lengths.astype(np.int32, copy=False)
    values = values.astype(np.int64, copy=False)
    if lengths.ndim != 1 or values.ndim != 1:
        raise OpError(f"{op} inputs must be 1-D")
    if len(lengths) and lengths.min() < 0:
        row = int(lengths.argmin())
        raise OpError(
            f"{op} lengths must not be negative, got {lengths[row]} at row {row}"
        )
    if int(lengths.sum()) != len(values):
        raise OpError("lengths do not sum to len(values)")
    return lengths, values


def destination(
    op: str, out: Optional[np.ndarray], shape: Tuple[int, ...], dtype: type
) -> np.ndarray:
    """``out`` when it can hold ``op``'s result exactly, a fresh array when
    it is ``None``; anything else is the caller's mistake, not a cast."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if not isinstance(out, np.ndarray):
        found = type(out).__name__
    elif out.dtype == dtype and out.shape == shape and out.flags.writeable:
        return out
    else:
        found = f"{out.dtype} array of shape {out.shape}" + (
            "" if out.flags.writeable else " (read-only)"
        )
    raise OpError(
        f"{op} out= must be a writable {np.dtype(dtype).name} array of "
        f"shape {shape}, got {found}"
    )
