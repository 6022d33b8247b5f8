"""SigridHash — sparse feature normalization (Algorithm 2 of the paper).

Maps raw (arbitrarily large) categorical ids into the index range of the
model's embedding table: ``c[i] = ComputeHash(a[i], seed) mod max_value``.

The hash is a seeded 64-bit finalizer in the splitmix64 / MurmurHash3
fmix64 family — the same construction TorchArrow's SigridHash uses
(a Twang-style 64-bit mix).  It is:

* deterministic given (value, seed),
* uniform over the 64-bit space (verified by property tests),
* cheap enough to be evaluated per element, which is exactly why the paper's
  FPGA maps it onto DSP-based parallel hash units.

A vectorized numpy path operates on whole columns; the scalar path is the
literal Algorithm 2 transcription used by tests as a cross-check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import OpError, is_int
from repro.ops.dest import destination
from repro.ops.tile import tile_scratch, tiles

_MASK64 = (1 << 64) - 1

# splitmix64 constants
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MIX1_U64, _MIX2_U64 = np.uint64(_MIX1), np.uint64(_MIX2)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)

#: ids are returned as int64: a modulus above this could produce ids that
#: read back negative
_MAX_MODULUS = (1 << 63) - 1


def hash64(value: int, seed: int = 0) -> int:
    """Seeded 64-bit mix of one integer (scalar reference implementation)."""
    h = (value + _GAMMA * (seed + 1)) & _MASK64
    h ^= h >> 30
    h = (h * _MIX1) & _MASK64
    h ^= h >> 27
    h = (h * _MIX2) & _MASK64
    h ^= h >> 31
    return h


def sigrid_hash_scalar(value: int, seed: int, max_value: int) -> int:
    """Algorithm 2, one element: ``ComputeHash(a[i], s) mod d``."""
    if max_value <= 0:
        raise OpError("max_value must be positive")
    return hash64(value, seed) % max_value


class SigridHasher:
    """SigridHash with the per-(seed, table) constants computed once.

    The seeded gamma and the modulus are scalar uint64 conversions that
    ``sigrid_hash`` otherwise rebuilds on every batch of every feature;
    a pipeline holds one ``SigridHasher`` per sparse feature instead.
    """

    __slots__ = ("seed", "max_value", "_gamma", "_modulus")

    def __init__(self, seed: int, max_value: int) -> None:
        if not is_int(seed):
            raise OpError(f"seed must be an int, got {seed!r}")
        if not is_int(max_value) or not 1 <= max_value <= _MAX_MODULUS:
            raise OpError(
                f"max_value must be a positive int no larger than 2**63 - 1, "
                f"got {max_value!r}"
            )
        self.seed = seed
        self.max_value = max_value
        self._gamma = np.uint64((_GAMMA * (seed + 1)) & _MASK64)
        self._modulus = np.uint64(max_value)

    def __call__(
        self, values: np.ndarray, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Hash ``values`` into ``out`` (int64, same shape; allocated when
        not given) and return it.

        The mix runs in the destination itself, one tile at a time
        (:mod:`repro.ops.tile`): every pass over a tile finds it in L2, and
        the only temporary is one tile-sized scratch.
        """
        values = np.asarray(values)
        if values.ndim != 1:
            raise OpError(
                f"sigrid_hash input must be 1-D, got shape {values.shape}"
            )
        if not np.issubdtype(values.dtype, np.integer):
            raise OpError("sigrid_hash input must be integer ids")
        out = destination("sigrid_hash", out, values.shape, np.int64)
        hashed = out.view(np.uint64)
        # native 64-bit ids are already the two's-complement words the mix
        # starts from, and the seed add reads them in place; any other
        # integer dtype is cast on the way into the add, as astype would
        if values.dtype in (np.int64, np.uint64):
            values = values.view(np.uint64)
        gamma, modulus = self._gamma, self._modulus
        scratch = tile_scratch(hashed)
        for tile in tiles(len(values)):
            h = hashed[tile]
            s = scratch[: len(h)]
            np.add(values[tile], gamma, out=h, dtype=np.uint64, casting="unsafe")
            np.right_shift(h, _SHIFT1, out=s)
            h ^= s
            h *= _MIX1_U64
            np.right_shift(h, _SHIFT2, out=s)
            h ^= s
            h *= _MIX2_U64
            np.right_shift(h, _SHIFT3, out=s)
            h ^= s
            # h mod m as h - (h // m) * m: floor_divide by a scalar is a
            # SIMD multiply-shift, remainder a hardware divide per id;
            # (h // m) * m <= h, so neither step can wrap
            np.floor_divide(h, modulus, out=s)
            s *= modulus
            h -= s
        return out


def sigrid_hash(values: np.ndarray, seed: int, max_value: int) -> np.ndarray:
    """Normalize a flat column of sparse ids into ``[0, max_value)``.

    Output dtype is int64 (indices are later narrowed to int32 for the
    train-ready tensors; ``max_value`` must fit in int32 for that to be
    lossless, which Table I's 500,000-row tables satisfy).  One-shot form
    of :class:`SigridHasher`; pipelines cache the prepared form instead.
    """
    return SigridHasher(seed, max_value)(values)
