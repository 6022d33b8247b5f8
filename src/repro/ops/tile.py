"""The cache-sized unit of work of the column kernels.

SigridHash makes thirteen passes over a column and Bucketize sorts its
needles before searching; run over a whole 164k-id (or 1 M-element) column,
every pass streams the column through the cache hierarchy again.  The
kernels therefore take a column one tile at a time and finish every pass
on a tile before touching the next, so only the first read and the last
write of each element leave L2.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Elements per tile.  A tile of 64-bit values plus one scratch of the same
#: size is 512 KB, inside L2.  Measured on 1 M elements (numpy 2.4, AVX-512):
#: SigridHash 7.0 / 5.8 / 5.6 / 5.6 / 8.1 ms at 8k / 16k / 32k / 64k /
#: untiled; Bucketize on count data 34 / 35 / 35 / 32 / 70 ms.  A column
#: shorter than one tile (a 4,096-row shard) is one tile.
TILE_ELEMENTS = 32_768


def tiles(count: int) -> Iterator[slice]:
    """Consecutive slices of at most :data:`TILE_ELEMENTS` covering
    ``range(count)``; none for an empty column."""
    for start in range(0, count, TILE_ELEMENTS):
        yield slice(start, start + TILE_ELEMENTS)


def tile_scratch(column: np.ndarray) -> np.ndarray:
    """An uninitialised array of ``column``'s dtype, the size of its first
    (and longest) tile: one scratch serves every tile of the column."""
    return np.empty_like(column[:TILE_ELEMENTS])
