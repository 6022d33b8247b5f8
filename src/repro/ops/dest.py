"""Where a kernel's result lands.

Every op kernel allocates and returns its result by default; a caller that
already owns the result's final home — the pipeline filling the mini-batch
it is building — passes it as the keyword-only ``out=`` instead, and the
kernel writes there without a full-size temporary or a copy afterwards.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import OpError


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
