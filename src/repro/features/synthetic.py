"""Synthetic raw-data generators.

Section V-A: the paper scales the public Criteo dataset up to four synthetic
production-scale configurations (RM2–RM5) following the characteristics Meta
reported (more dense/sparse features, average sparse feature length 20).

The generators here emit raw tables matching a :class:`~repro.features.specs.
ModelSpec`'s schema with Criteo-like statistics:

* dense values — heavy-tailed non-negative counts (log-normal), with a
  configurable missing-value rate (encoded as NaN, later handled by the
  fill + Log ops);
* sparse ids — Zipf-distributed categorical ids over a large vocabulary
  (hashing to the embedding-table range is precisely SigridHash's job);
* sparse lengths — Criteo is fixed length 1; the synthetic models draw
  per-row lengths from a Poisson around the configured average (min 0),
  making the columns genuinely jagged;
* labels — Bernoulli clicks at a configurable CTR.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dataio.columnar import TableData
from repro.dataio.schema import TableSchema
from repro.errors import ConfigurationError, is_int
from repro.features.specs import ModelSpec

#: Vocabulary from which raw sparse ids are drawn, before SigridHash limits
#: them to the embedding-table size.  Production raw ids are 64-bit hashes;
#: a large range keeps the hash's modulo behaviour realistic.
RAW_ID_SPACE = 2**40

#: Click-through rate of the synthetic labels (Criteo-like).
CTR = 0.03

#: Exponent of the Zipf distribution raw sparse ids are drawn from.
ZIPF_EXPONENT = 1.2


def _seed_key(*parts) -> int:
    """Fold arbitrary (int/str) parts into one deterministic integer seed."""
    import zlib

    acc = 0
    for part in parts:
        data = str(part).encode()
        acc = (acc * 0x100000001B3 + zlib.crc32(data)) % (2**63)
    return acc


#: Rejection attempts per block of :func:`_zipf`.  An attempt reads two
#: doubles, so a block's uniforms are 512 KB, inside L2, and so is each of
#: its per-attempt temporaries.
_ZIPF_BLOCK = 32_768

#: Half-width of the guard band, relative to the value it guards: at least
#: 64 ULP.  ``np.power`` and libm ``pow`` differ by at most 1 ULP on the
#: measured inputs, so outside the band they round to the same decision.
_ZIPF_BAND = 64 * 2.0**-52

#: ``(double) INT64_MAX``, which rounds to 2**63: the sampler's cap on X.
_INT64_MAX = 9223372036854775807.0


def _zipf(rng: np.random.Generator, a: float, size: int) -> np.ndarray:
    """What ``Generator.zipf`` draws from ``rng`` with exponent ``a``: the
    same ``size`` int64 values, and ``rng`` left in the same state, computed
    a block of attempts at a time.

    numpy's ``random_zipf`` is a rejection loop.  Each attempt takes two
    doubles ``U01, V`` (the ones ``rng.random`` returns), sets
    ``U = U01*Umin + (1 - U01)``, ``X = floor(pow(U, -1/(a-1)))``, rejects
    ``X`` outside ``[1, 2**63]``, and accepts iff
    ``V*X*(T - 1)/(b - 1) <= T/b`` with ``T = pow(1 + 1/X, a - 1)`` and
    ``b = 2**(a-1)``.  ``+ - * /`` and ``floor`` are exactly rounded, so the
    same operations in the same order give the same bits; ``np.power`` is
    not libm ``pow``, so an attempt whose ``pow`` lands within the guard
    band of a decision is decided again with ``math.pow``, the libm call.
    The block that completes the draw is drawn again from its saved state,
    up to its last used attempt.
    """
    if a >= 1025:  # numpy returns 1 without drawing: b would overflow
        return np.ones(size, dtype=np.int64)
    am1 = a - 1.0
    b = math.pow(2.0, am1)
    umin = math.pow(_INT64_MAX, -am1)
    out = np.empty(size, dtype=np.int64)
    bit_generator = rng.bit_generator
    filled = 0
    while filled < size:
        need = size - filled
        # At least 72% of attempts are accepted (measured, a = 1.05 to 4),
        # so the last block usually finishes the draw without running a
        # full block past its end.
        attempts = min(_ZIPF_BLOCK, need + need // 2 + 16)
        state = bit_generator.state
        uv = rng.random(2 * attempts)
        x, accepted = _zipf_block(uv[0::2], uv[1::2], am1, b, umin)
        taken = np.flatnonzero(accepted)[:need]
        out[filled : filled + taken.size] = x[taken]
        filled += taken.size
        used = int(taken[-1]) + 1 if taken.size else attempts
        if used < attempts:
            bit_generator.state = state
            rng.random(2 * used)
    return out


def _zipf_block(u01, v, am1, b, umin):
    """One block of attempts: ``(X, accepted)``, exactly as libm decides."""
    u = u01 * umin + (1.0 - u01)  # C's order: reassociated, the bits change
    x, accepted, near = _zipf_decide(u, v, am1, b, np.power)
    redo = np.flatnonzero(near)
    x[redo], accepted[redo], _ = _zipf_decide(u[redo], v[redo], am1, b, _libm_power)
    return x, accepted


def _zipf_decide(u, v, am1, b, power):
    """``(X, accepted, near)`` for attempts with uniform ``u``, computing
    ``pow`` with ``power``; ``near`` marks the attempts whose decision
    could flip if either ``pow`` result moved within the guard band."""
    p = power(u, -1.0 / am1)
    x = np.floor(p)
    # Near a floor boundary: an integer lies within the band around p.  A
    # NaN p is near (NaN != NaN); an infinite one is rejected either way.
    near = np.floor(p * (1.0 - _ZIPF_BAND)) != np.floor(p * (1.0 + _ZIPF_BAND))
    valid = (x >= 1.0) & (x <= _INT64_MAX)
    vx = v * x
    bm1 = b - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = power(1.0 + 1.0 / x, am1)
        lhs = vx * (t - 1.0) / bm1
        rhs = t / b
        accepted = valid & (lhs <= rhs)
        # Near the accept inequality: moving t across its band moves lhs by
        # up to vx*t*band/bm1 and rhs by up to rhs*band, so the sides can
        # swap only if they are closer than that.
        slack = (vx * t / bm1 + rhs) * _ZIPF_BAND
        near |= valid & ~(np.abs(lhs - rhs) > slack)
    return x, accepted, near


def _libm_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise libm ``pow`` (``math.pow``), the call numpy's C sampler
    makes; ``np.power`` may differ from it in the last bit."""
    return np.array([math.pow(x, exponent) for x in base.tolist()], dtype=np.float64)


class SyntheticTableGenerator:
    """Deterministic (seeded) generator of raw feature tables for one model."""

    def __init__(self, spec: ModelSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.schema: TableSchema = spec.schema()

    def _dense_column(self, rng: np.random.Generator, num_rows: int) -> np.ndarray:
        values = rng.lognormal(mean=1.5, sigma=1.2, size=num_rows)
        values = np.floor(values).astype(np.float32)
        if self.spec.dense_missing_rate > 0:
            missing = rng.random(num_rows) < self.spec.dense_missing_rate
            values[missing] = np.nan
        return values

    def _sparse_column(self, rng: np.random.Generator, num_rows: int):
        avg_len = self.spec.avg_sparse_length
        if avg_len == 1:
            lengths = np.ones(num_rows, dtype=np.int32)  # Criteo: fixed length 1
        else:
            lengths = rng.poisson(avg_len, size=num_rows).astype(np.int32)
        total = int(lengths.sum())
        # Zipf over a bounded vocabulary, then spread across the raw id space
        # with a multiplicative hash so ids look like production 64-bit hashes.
        ranks = _zipf(rng, ZIPF_EXPONENT, total).astype(np.uint64)
        ids = (ranks * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(RAW_ID_SPACE)
        return lengths, ids.astype(np.int64)

    def generate(self, num_rows: int) -> TableData:
        """Generate a raw table with ``num_rows`` rows."""
        if not is_int(num_rows) or num_rows <= 0:
            raise ConfigurationError(
                f"num_rows must be a positive int, got {num_rows!r}"
            )
        # the trailing 0 is part of the seed key the golden table digests pin
        rng = np.random.default_rng(_seed_key(self.seed, self.spec.name, 0))
        data: TableData = {
            self.schema.label.name: (rng.random(num_rows) < CTR).astype(np.int8)
        }
        for column in self.schema.dense:
            data[column.name] = self._dense_column(rng, num_rows)
        for column in self.schema.sparse:
            data[column.name] = self._sparse_column(rng, num_rows)
        return data

    def bucket_boundaries(self, feature: Optional[str] = None) -> np.ndarray:
        """Boundaries used by Bucketize for one generated feature.

        The boundaries are quantile-like over the dense value distribution:
        ``m`` (Table I's bucket size) strictly increasing edges.  The same
        boundaries are used by both the CPU baseline and the PreSto
        accelerator, as in TorchArrow where they are precomputed constants.
        """
        m = self.spec.bucket_size
        rng = np.random.default_rng(
            _seed_key(self.seed, self.spec.name, "buckets", feature)
        )
        # log-normal quantiles with a little jitter to keep edges distinct
        qs = np.linspace(0.0, 6.0, m) + rng.random(m) * 1e-3
        return np.sort(np.exp(qs).astype(np.float64))


def generate_raw_table(spec: ModelSpec, num_rows: int, seed: int = 0) -> TableData:
    """One-shot helper: generate a raw table for ``spec``."""
    return SyntheticTableGenerator(spec, seed=seed).generate(num_rows)
