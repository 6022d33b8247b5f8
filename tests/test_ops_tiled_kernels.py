"""The tiled Transform kernels answer exactly what their references answer.

``SigridHasher``, ``Bucketizer`` and ``log_normalize`` each replaced their
one expensive step (``repro.ops.tile``, ``docs/dataplane.md`` "Kernels work a
tile at a time"); this file pins the places where the new arithmetic could
differ from the old:

* the hash's ``h - (h // m) * m`` against ``sigrid_hash_scalar``'s ``%`` —
  ``(h // m) * m <= h``, so neither the product nor the subtraction can wrap
  in uint64 — for every id dtype, around every tile edge;
* the sorted-needle search against ``search_bucket_id`` on ties, infinities,
  NaN and both zeros (equal needles get equal ids, so the unstable sort
  cannot show);
* ``fmax`` / ``log1p`` / ``minimum`` against the five-pass formula it
  replaced, bit for bit;
* none of it depends on the tile size;
* and the constructors and call-time checks refuse what would otherwise
  answer quietly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_digests import GOLDEN

from repro.api import PreprocessJob
from repro.errors import OpError
from repro.features.specs import get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops import (
    Bucketizer,
    SigridHasher,
    fill_dense,
    fill_sparse,
    log_normalize,
    search_bucket_id,
    sigrid_hash_scalar,
    tile,
)
from repro.ops.pipeline import PreprocessingPipeline


def tile_of(elements: int):
    """The kernels' tile size, for the length of a ``with`` block."""
    return mock.patch.object(tile, "TILE_ELEMENTS", elements)


def tile_edge_lengths(elements: int):
    return (0, 1, elements - 1, elements, elements + 1, 3 * elements + 5)


# -- (a) SigridHash ----------------------------------------------------------------

MODULI = (1, 2, 500_000, 2**31 - 1, 2**32 + 1, 2**63 - 1)
SMALL_TILE = 64


def id_columns(count: int, seed: int):
    """``count`` ids behind every kind of integer column the kernel takes:
    the two that are read in place as 64-bit words, and the cast path."""
    rng = np.random.default_rng(seed)
    wide = rng.integers(-(2**63), 2**63 - 1, 2 * count, dtype=np.int64, endpoint=True)
    return {
        "int64": wide[:count].copy(),
        "uint64, high bit set": wide[:count].view(np.uint64) | np.uint64(1 << 63),
        "int32": rng.integers(-(2**31), 2**31 - 1, count, dtype=np.int32),
        "uint8": rng.integers(0, 255, count, dtype=np.uint8),
        "strided": wide[::2],
        "big-endian": wide[:count].astype(">i8"),
    }


def scalar_hashes(ids: np.ndarray, seed: int, modulus: int):
    return [sigrid_hash_scalar(value, seed, modulus) for value in ids.tolist()]


@pytest.mark.parametrize("modulus", MODULI)
@pytest.mark.parametrize("count", tile_edge_lengths(SMALL_TILE))
def test_hasher_matches_the_scalar_for_every_id_dtype(count, modulus):
    hasher = SigridHasher(0xC0FFEE, modulus)
    with tile_of(SMALL_TILE):
        for name, ids in id_columns(count, seed=count).items():
            hashed = hasher(ids)
            assert hashed.dtype == np.int64, name
            assert hashed.tolist() == scalar_hashes(ids, 0xC0FFEE, modulus), name


def test_hasher_matches_the_scalar_around_the_real_tile_edges():
    """The shipped tile size, one scalar pass: every shorter column is a
    prefix of the longest."""
    lengths = tile_edge_lengths(tile.TILE_ELEMENTS)
    ids = id_columns(max(lengths), seed=1)["int64"]
    expected = scalar_hashes(ids, 7, 500_000)
    hasher = SigridHasher(7, 500_000)
    for count in lengths:
        assert hasher(ids[:count]).tolist() == expected[:count]


@given(
    ids=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
    seed=st.integers(-(2**70), 2**70),
    modulus=st.integers(1, 2**63 - 1),
)
@settings(max_examples=150, deadline=None)
def test_hasher_matches_the_scalar_for_any_seed_and_modulus(ids, seed, modulus):
    column = np.array(ids, dtype=np.int64)
    with tile_of(16):
        hashed = SigridHasher(seed, modulus)(column)
    assert hashed.tolist() == scalar_hashes(column, seed, modulus)
    assert all(0 <= value < modulus for value in hashed.tolist())


# -- (b) Bucketize -----------------------------------------------------------------

#: 0.1 is not a float32: a float32 needle of "0.1" lies above this edge, and
#: only a float64 comparison sees that
EDGES = np.array([-7.5, -1.0, 0.0, 0.1, 1.0, 2.0, 1024.0, 1e30])

NEEDLES = {
    "ties at every edge": EDGES.copy(),
    "infinities, NaN and both zeros": np.array(
        [np.inf, -np.inf, np.nan, -0.0, 0.0, np.nan, 5.0, -np.inf]
    ),
    "empty": np.array([]),
    "duplicates only": np.full(37, 2.0),
    "NaN only": np.full(9, np.nan),
    "between and beyond": np.array([-1e38, -7.6, -0.5, 0.05, 0.1, 1.5, 1e3, 1e38]),
}


def scalar_buckets(column: np.ndarray, boundaries: np.ndarray):
    # NaN -> 0 is the op's convention, not the search's: every comparison
    # with NaN is false, so SearchBucketID alone would answer len(boundaries)
    return [
        0 if value != value else search_bucket_id(value, boundaries)
        for value in column
    ]


@pytest.mark.parametrize("elements", (1, 3, tile.TILE_ELEMENTS))
@pytest.mark.parametrize("dtype", (np.float32, np.float64, np.int64))
@pytest.mark.parametrize("case", NEEDLES)
def test_bucketizer_matches_the_scalar_search(case, dtype, elements):
    column = NEEDLES[case]
    if dtype is np.int64:
        column = np.clip(np.nan_to_num(column, nan=3.0), -(2.0**62), 2.0**62)
    column = np.tile(column, 5).astype(dtype)
    with tile_of(elements):
        ids = Bucketizer(EDGES)(column)
    assert ids.dtype == np.int64 and ids.shape == column.shape
    assert ids.tolist() == scalar_buckets(column, EDGES)


@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, width=32),
            st.sampled_from(EDGES.tolist() + [-0.0]),
        ),
        max_size=50,
    ),
    dtype=st.sampled_from((np.float32, np.float64)),
)
@settings(max_examples=100, deadline=None)
def test_bucketizer_matches_the_scalar_search_on_hostile_columns(values, dtype):
    column = np.array(values, dtype=dtype)
    with tile_of(8):
        ids = Bucketizer(EDGES)(column)
    assert ids.tolist() == scalar_buckets(column, EDGES)


# -- (c) Log -----------------------------------------------------------------------


def five_pass_log(values: np.ndarray) -> np.ndarray:
    """The formula ``log_normalize`` replaced.  ``np.maximum(-0.0, 0.0)`` may
    be either zero (it was ``+0.0`` in every lane of the builds this repo has
    run on); ``+ 0.0`` makes the reference say so everywhere."""
    work = np.nan_to_num(np.asarray(values).astype(np.float64), nan=0.0)
    return np.log1p(np.maximum(work, 0.0) + 0.0).astype(np.float32)


FLOAT32_MAX = float(np.finfo(np.float32).max)
SPECIALS = {
    np.float32: [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.17549435e-38,
        FLOAT32_MAX, -FLOAT32_MAX, -1.5, 1.0, np.e - 1.0, 1e-8, 12345.678,
    ],
    np.float64: [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
        float(np.finfo(np.float64).max), -1e308, FLOAT32_MAX, -1.5, 1.0, 1e-17,
        1e300, 0.1,
    ],
    np.int64: [
        -(2**63), -1, 0, 1, 2, 2**24 + 1, 2**53 + 1, 2**63 - 1, 7, 8192, -3,
        10**18, 500_000, 3, 4, 5,
    ],
}


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (
        actual.dtype == expected.dtype == np.float32
        and actual.shape == expected.shape
        and np.array_equal(actual.view(np.uint32), expected.view(np.uint32))
    )


@pytest.mark.parametrize("dtype", SPECIALS)
def test_log_normalize_is_bit_equal_to_the_formula_it_replaced(dtype):
    # 1,001 elements: every special lands in SIMD lanes and in the scalar tail
    column = np.resize(np.array(SPECIALS[dtype], dtype=dtype), 1001)
    assert same_bits(log_normalize(column), five_pass_log(column))

    # what the pipeline does: a 16-column block, stored transposed into a
    # slab of the row-major dense matrix
    block = np.resize(column, (16, 67))
    dense = np.full((67, 40), -1.0, dtype=np.float32)
    assert log_normalize(block, out=dense[:, 5:21].T).base is dense
    assert same_bits(np.ascontiguousarray(dense[:, 5:21].T), five_pass_log(block))
    assert (dense[:, :5] == -1.0).all() and (dense[:, 21:] == -1.0).all()


def test_log_normalize_of_negative_zero_is_positive_zero_in_every_lane():
    for dtype in (np.float32, np.float64):
        out = log_normalize(np.full(1001, -0.0, dtype=dtype))
        assert not out.view(np.uint32).any()


# -- (d) the tile size changes nothing ---------------------------------------------


@pytest.mark.parametrize("elements", (1, 7, 4096))
def test_kernels_do_not_depend_on_the_tile_size(elements):
    rng = np.random.default_rng(5)
    ids = rng.integers(-(2**63), 2**63 - 1, 9001, dtype=np.int64)
    floats = rng.lognormal(3.0, 2.0, 9001).astype(np.float32)
    floats[::13] = np.nan
    floats[::17] = np.floor(floats[::17])
    hasher = SigridHasher(3, 500_000)
    bucketizer = Bucketizer(np.unique(rng.lognormal(3.0, 2.0, 512)))
    expected = hasher(ids), bucketizer(floats), log_normalize(floats)
    with tile_of(elements):
        actual = hasher(ids), bucketizer(floats), log_normalize(floats)
    for one, other in zip(actual, expected):
        assert one.dtype == other.dtype and one.tobytes() == other.tobytes()


def batch_bytes(batch) -> bytes:
    return b"".join(
        array.tobytes()
        for array in (batch.dense, batch.labels, batch.sparse.lengths,
                      batch.sparse.values)
    )


@pytest.mark.parametrize("rows, elements", [(2048, 4096), (2048, 7), (48, 1)])
def test_pipeline_run_does_not_depend_on_the_tile_size(rows, elements):
    spec = get_model("RM5")
    pipe = PreprocessingPipeline(spec)
    raw = SyntheticTableGenerator(spec, seed=2).generate(rows)
    expected, expected_counts = pipe.run(raw)
    with tile_of(elements):
        batch, counts = pipe.run(raw)
    assert counts == expected_counts
    assert batch_bytes(batch) == batch_bytes(expected)


@pytest.mark.parametrize("elements", (7, 4096))
def test_golden_digests_do_not_depend_on_the_tile_size(elements):
    for shape in (("RM1", 1000, 3), ("RM5", 300, 3)):
        model, rows, shards = shape
        with tile_of(elements):
            job = PreprocessJob(model, num_rows=rows, num_shards=shards)
            assert job.run(parallel=False).digest == GOLDEN[shape]


# -- typed errors: constructors ----------------------------------------------------

RM1 = get_model("RM1")

BAD_CONSTRUCTIONS = {
    "NaN edge": (lambda: Bucketizer(np.array([1.0, np.nan, 3.0])), OpError,
                 "must not contain NaN, got NaN at index 1"),
    "lone NaN edge": (lambda: Bucketizer(np.array([np.nan])), OpError,
                      "must not contain NaN"),
    "repeated edge": (lambda: Bucketizer(np.array([1.0, 3.0, 3.0])), OpError,
                      r"strictly increasing, got boundaries\[2\] = 3.0 after 3.0"),
    "modulus 2**64": (lambda: SigridHasher(0, 2**64), OpError,
                      "max_value must be a positive int no larger than 2\\*\\*63 - 1, "
                      "got 18446744073709551616"),
    "modulus 2**63": (lambda: SigridHasher(0, 2**63), OpError, "max_value"),
    "modulus True": (lambda: SigridHasher(0, True), OpError, "max_value .* got True"),
    "modulus 5e5": (lambda: SigridHasher(0, 5e5), OpError, "max_value .* got 500000.0"),
    "modulus 0": (lambda: SigridHasher(0, 0), OpError, "max_value .* got 0"),
    "seed 1.5": (lambda: SigridHasher(1.5, 10), OpError, "seed must be an int, got 1.5"),
    "seed True": (lambda: SigridHasher(True, 10), OpError, "seed must be an int"),
    # numeric text used to parse as edges, other text raised a bare ValueError
    "text edges": (lambda: Bucketizer(np.array(["1", "2"])), OpError,
                   "bucket boundaries input must be real numbers, got dtype <U1"),
    "complex edges": (lambda: Bucketizer(np.array([1 + 2j, 3j])), OpError,
                      "bucket boundaries input must be real numbers, got dtype complex128"),
}


@pytest.mark.parametrize("case", BAD_CONSTRUCTIONS)
def test_constructors_refuse_what_they_cannot_honour(case):
    construct, error, message = BAD_CONSTRUCTIONS[case]
    with pytest.raises(error, match=message) as raised:
        construct()
    assert type(raised.value) is error


def test_constructors_accept_the_edges_of_their_ranges():
    assert SigridHasher(-3, 2**63 - 1)(np.array([1, -1]))[0] >= 0
    assert SigridHasher(2**70, 1)(np.array([1, 2, 3])).tolist() == [0, 0, 0]
    assert Bucketizer(np.array([-np.inf, 0.0, np.inf])).num_buckets == 4


# -- typed errors: call time -------------------------------------------------------

BAD_CALLS = {
    "fill_sparse, negative length": (
        lambda: fill_sparse(np.array([-1, 4]), np.array([1, 2, 3])),
        "fill_sparse lengths must not be negative, got -1 at row 0",
    ),
    # a float length or id used to truncate: [1.5] read as one id
    "fill_sparse, float lengths": (
        lambda: fill_sparse(np.array([1.5]), np.array([1])),
        "fill_sparse lengths must be integers, got dtype float64",
    ),
    "fill_sparse, float ids": (
        lambda: fill_sparse(np.array([1]), np.array([7.9])),
        "fill_sparse ids must be integers, got dtype float64",
    ),
    "fill_sparse, bool lengths": (
        lambda: fill_sparse(np.array([True]), np.array([1])),
        "fill_sparse lengths must be integers, got dtype bool",
    ),
    "fill_sparse, text ids": (
        lambda: fill_sparse(np.array([1]), np.array(["7"])),
        "fill_sparse ids must be integers, got dtype <U1",
    ),
    "bucketize, text": (
        lambda: Bucketizer(EDGES)(np.array(["a"])),
        "bucketize input must be real numbers, got dtype <U1",
    ),
    "bucketize, complex": (
        lambda: Bucketizer(EDGES)(np.array([1 + 2j])),
        "bucketize input must be real numbers, got dtype complex128",
    ),
    # a bare ValueError, and a ComplexWarning that dropped the imaginary part
    "fill_dense, text": (
        lambda: fill_dense(np.array(["a"])),
        "fill_dense input must be real numbers, got dtype <U1",
    ),
    "fill_dense, complex": (
        lambda: fill_dense(np.array([1 + 2j])),
        "fill_dense input must be real numbers, got dtype complex128",
    ),
    "log_normalize, text": (
        lambda: log_normalize(np.array(["a"])),
        "log_normalize input must be real numbers, got dtype <U1",
    ),
    "log_normalize, complex": (
        lambda: log_normalize(np.array([1 + 2j])),
        "log_normalize input must be real numbers, got dtype complex128",
    ),
}


@pytest.mark.parametrize("case", BAD_CALLS)
def test_calls_refuse_what_numpy_would_leak_or_let_through(case, recwarn):
    call, message = BAD_CALLS[case]
    with pytest.raises(OpError, match=message):
        call()
    assert not recwarn.list  # complex input used to be a ComplexWarning


def test_an_empty_sparse_column_may_have_any_dtype():
    # np.array([]) is float64: an empty column has no id to truncate
    lengths, values = fill_sparse(np.array([]), np.array([]))
    assert (lengths.dtype, values.dtype) == (np.int32, np.int64)
    assert len(lengths) == len(values) == 0
    lengths, values = fill_sparse(np.array([0, 0]), np.array([]))
    assert lengths.tolist() == [1, 1] and values.tolist() == [0, 0]
