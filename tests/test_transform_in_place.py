"""The Transform writes where the result lives, and changes nothing else.

``PreprocessingPipeline.run`` sizes the mini-batch, allocates it once and
has every kernel fill its slot through ``out=``.  Three things are pinned:

* **differential** — on hostile tables the batch and the ``OpCounts`` are
  bit-identical to a reference assembled here from the one-shot public ops
  and a column-stacked batch (the body ``run`` had before it wrote in
  place);
* **error parity** — a malformed table raises the same typed error with
  the same message as that reference;
* **memory** — measured with ``tracemalloc`` (it sees numpy's buffers, so
  the figures are exact and repeatable): one ``run`` peaks at barely more
  than the batch it returns, and an inline ``ShardExecutor.run`` holds one
  shard's file + raw table beside its results however many shards it has.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.preprocess import minibatch_digest
from repro.errors import FormatError, OpError, PipelineError
from repro.exec import ShardExecutor
from repro.features.minibatch import KeyedJaggedTensor, MiniBatch
from repro.features.specs import MLPSpec, ModelSpec, get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops import (
    Bucketizer,
    SigridHasher,
    bucketize,
    fill_dense,
    fill_sparse,
    log_normalize,
    sigrid_hash,
)
from repro.ops.pipeline import DENSE_BLOCK_COLUMNS, OpCounts, PreprocessingPipeline
from repro.ops.tile import TILE_ELEMENTS

#: two dense work blocks (16 + 3 columns) with Bucketize sources in both
SPEC = ModelSpec(
    name="tiny",
    num_dense=DENSE_BLOCK_COLUMNS + 3,
    num_sparse=3,
    avg_sparse_length=2,
    num_generated_sparse=DENSE_BLOCK_COLUMNS + 2,
    bucket_size=8,
    bottom_mlp=MLPSpec((4,)),
    top_mlp=MLPSpec((4, 1)),
    num_tables=3 + DENSE_BLOCK_COLUMNS + 2,
    avg_embeddings_per_table=997,
)
PIPELINE = PreprocessingPipeline(SPEC)


def reference_run(pipe: PreprocessingPipeline, raw, batch_id=0):
    """The Transform from the one-shot public ops, column by column."""
    schema, spec = pipe.schema, pipe.spec
    labels = np.asarray(raw[schema.label.name])
    rows = len(labels)
    filled = {}
    for name in schema.dense_names:
        filled[name] = fill_dense(raw[name])
    sparse = {}
    hash_elements = 0
    for name in schema.sparse_names:
        lengths, values = fill_sparse(*raw[name])
        hash_elements += len(values)
        sparse[name] = (
            np.asarray(lengths, dtype=np.int32),
            sigrid_hash(values, pipe.hash_seed, pipe.table_sizes[name]),
        )
    for source, target in zip(
        spec.bucketize_source_names, spec.generated_sparse_names
    ):
        sparse[target] = (
            np.ones(rows, dtype=np.int32),
            bucketize(filled[source], pipe.boundaries[source]),
        )
    for name in schema.dense_names:
        if len(filled[name]) != rows:
            raise OpError(
                f"dense column {name!r} has {len(filled[name])} rows, "
                f"batch is {rows}"
            )
    batch = MiniBatch(
        dense=np.column_stack(
            [log_normalize(filled[name]) for name in schema.dense_names]
        ),
        sparse=KeyedJaggedTensor.from_dict({
            name: sparse[name]
            for name in schema.sparse_names + spec.generated_sparse_names
        }),
        labels=np.asarray(labels, dtype=np.float32),
    )
    batch.batch_id = batch_id
    dense_values = rows * len(schema.dense_names)
    counts = OpCounts(
        rows=rows,
        log_elements=dense_values,
        bucketize_elements=rows * len(spec.generated_sparse_names),
        bucket_boundaries=spec.bucket_size,
        hash_elements=hash_elements,
        fill_elements=dense_values + hash_elements,
        format_elements=int(
            batch.dense.size + batch.sparse.values.size + batch.sparse.lengths.size
        ),
        raw_dense_values=dense_values,
        raw_sparse_values=hash_elements,
    )
    return batch, counts


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()  # NaN payloads and -0.0 too


# -- differential ----------------------------------------------------------------

HOSTILE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([0.0, -0.0, -1.5, 1e30, -1e30, 7.0]),
)


@st.composite
def views(draw, array):
    """``array``'s values behind a contiguous, strided or read-only view."""
    kind = draw(st.sampled_from(("plain", "strided", "readonly")))
    if kind == "strided":
        wide = np.zeros(2 * len(array), dtype=array.dtype)
        wide[::2] = array
        return wide[::2]
    if kind == "readonly":
        array = array.copy()
        array.flags.writeable = False
    return array


@st.composite
def tables(draw):
    rows = draw(st.integers(1, 12))
    raw = {"label": np.array(draw(st.lists(st.integers(0, 1), min_size=rows,
                                           max_size=rows)), dtype=np.int8)}
    for name in SPEC.schema().dense_names:
        dtype = draw(st.sampled_from((np.float32, np.float64)))
        column = np.array(
            draw(st.lists(HOSTILE_FLOATS, min_size=rows, max_size=rows)), dtype=dtype
        )
        raw[name] = draw(views(column))
    for name in SPEC.schema().sparse_names:
        lengths = np.array(
            draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows)),
            dtype=np.int32,
        )
        id_dtype = draw(st.sampled_from((np.int64, np.int32)))
        bound = 2**31 - 1 if id_dtype is np.int32 else 2**62
        ids = np.array(
            draw(st.lists(st.integers(-bound, bound), min_size=int(lengths.sum()),
                          max_size=int(lengths.sum()))),
            dtype=id_dtype,
        )
        raw[name] = (draw(views(lengths)), draw(views(ids)))
    return raw


@given(raw=tables(), batch_id=st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_run_matches_the_one_shot_ops_bit_for_bit(raw, batch_id):
    with np.errstate(all="ignore"):
        expected, expected_counts = reference_run(PIPELINE, raw, batch_id)
        batch, counts = PIPELINE.run(raw, batch_id=batch_id)
    assert_same_bits(batch.dense, expected.dense)
    assert_same_bits(batch.labels, expected.labels)
    assert_same_bits(batch.sparse.lengths, expected.sparse.lengths)
    assert_same_bits(batch.sparse.values, expected.sparse.values)
    assert batch.sparse.keys == expected.sparse.keys
    assert batch.batch_id == expected.batch_id == batch_id
    assert counts == expected_counts
    # the batch owns its memory: nothing in it is a view of the raw table
    for array in (batch.dense, batch.sparse.lengths, batch.sparse.values):
        assert array.flags.c_contiguous and array.flags.writeable
        for column in raw.values():
            for part in column if isinstance(column, tuple) else (column,):
                assert not np.shares_memory(array, part)


def test_every_registered_model_matches_the_reference():
    for name in ("RM1", "RM2"):
        spec = get_model(name)
        pipe = PreprocessingPipeline(spec)
        raw = SyntheticTableGenerator(spec, seed=4).generate(96)
        expected, expected_counts = reference_run(pipe, raw, 3)
        batch, counts = pipe.run(raw, batch_id=3)
        assert_same_bits(batch.dense, expected.dense)
        assert_same_bits(batch.sparse.values, expected.sparse.values)
        assert_same_bits(batch.sparse.lengths, expected.sparse.lengths)
        assert counts == expected_counts


# -- error parity -----------------------------------------------------------------


def good_table(rows=4):
    rng = np.random.default_rng(0)
    raw = {"label": np.zeros(rows, dtype=np.int8)}
    for name in SPEC.schema().dense_names:
        raw[name] = rng.random(rows).astype(np.float32)
    for name in SPEC.schema().sparse_names:
        raw[name] = (np.full(rows, 2, dtype=np.int32),
                     np.arange(2 * rows, dtype=np.int64))
    return raw


def without(name):
    def damage(raw):
        del raw[name]
    return damage


def replaced(name, column):
    def damage(raw):
        raw[name] = column
    return damage


#: (damage, error type, message — ``None``: whatever the reference raises)
MALFORMED = {
    "missing label": (
        without("label"), PipelineError,
        "raw table is missing the label column 'label'",
    ),
    "missing dense": (
        without("int_17"), PipelineError,
        "raw table is missing dense column 'int_17'",
    ),
    "missing sparse": (
        without("cat_1"), PipelineError,
        "raw table is missing sparse column 'cat_1'",
    ),
    "2-D dense": (
        replaced("int_2", np.zeros((4, 2), dtype=np.float32)), OpError, None,
    ),
    "short dense": (
        replaced("int_16", np.zeros(3, dtype=np.float32)), OpError, None,
    ),
    "lengths do not sum": (
        replaced("cat_0", (np.full(4, 2, dtype=np.int32),
                           np.arange(7, dtype=np.int64))),
        OpError, None,
    ),
    "sparse batch size": (
        replaced("cat_2", (np.full(3, 2, dtype=np.int32),
                           np.arange(6, dtype=np.int64))),
        FormatError, None,
    ),
    "negative length": (
        replaced("cat_2", (np.array([3, -1, 2, 2], dtype=np.int32),
                           np.arange(6, dtype=np.int64))),
        OpError, None,  # fill_sparse refuses it; once the batch's FormatError
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_tables_raise_what_they_always_did(case):
    damage, error, message = MALFORMED[case]
    raw = good_table()
    damage(raw)
    pipe = PIPELINE
    if message is None:
        with pytest.raises(error) as reference:
            reference_run(pipe, raw)
        message = str(reference.value)
    with pytest.raises(error) as raised:
        pipe.run(raw)
    assert type(raised.value) is error
    assert str(raised.value) == message


KERNELS = {
    "sigrid_hash": (
        lambda out: SigridHasher(1, 97)(np.arange(6), out=out), np.int64,
    ),
    "bucketize": (
        lambda out: Bucketizer(np.array([1.0, 2.0]))(np.zeros(6), out=out),
        np.int64,
    ),
    "fill_dense": (lambda out: fill_dense(np.zeros(6), out=out), np.float32),
    "log_normalize": (
        lambda out: log_normalize(np.zeros(6), out=out), np.float32,
    ),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_refuse_a_destination_that_cannot_hold_the_result(kernel):
    call, dtype = KERNELS[kernel]
    good = np.empty(6, dtype=dtype)
    assert call(good) is good
    read_only = np.empty(6, dtype=dtype)
    read_only.flags.writeable = False
    for bad in (
        np.empty(6, dtype=np.float64 if dtype is not np.float64 else np.int64),
        np.empty(5, dtype=dtype),
        np.empty((6, 1), dtype=dtype),
        read_only,
        [0] * 6,
    ):
        with pytest.raises(OpError, match=f"{kernel} out= must be a writable"):
            call(bad)


def test_kernel_destinations_may_be_strided_views():
    """What the pipeline passes: slices of the flat values, rows of a work
    block, a transposed slab of the dense matrix."""
    ids = np.array([5, -3, 2**40, 0], dtype=np.int64)
    flat = np.zeros(10, dtype=np.int64)
    SigridHasher(3, 1000)(ids, out=flat[3:7])
    np.testing.assert_array_equal(flat[3:7], sigrid_hash(ids, 3, 1000))
    assert not flat[:3].any() and not flat[7:].any()

    block = np.array([[1.0, np.nan, -4.0], [np.inf, 2.0, -np.inf]], np.float32)
    dense = np.zeros((3, 5), dtype=np.float32)
    with np.errstate(all="ignore"):
        log_normalize(block, out=dense[:, 1:3].T)
        for column in range(2):
            assert_same_bits(dense[:, 1 + column], log_normalize(block[column]))
    with pytest.raises(OpError, match="1-D"):
        log_normalize(block)  # a block needs somewhere to go


# -- memory -----------------------------------------------------------------------


def batch_nbytes(batch) -> int:
    return (batch.dense.nbytes + batch.labels.nbytes
            + batch.sparse.lengths.nbytes + batch.sparse.values.nbytes)


def table_nbytes(raw) -> int:
    return sum(
        part.nbytes
        for column in raw.values()
        for part in (column if isinstance(column, tuple) else (column,))
    )


def traced_peak(call):
    """(result, bytes allocated at the peak of ``call`` beyond its start)."""
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


@pytest.fixture(scope="module")
def rm5():
    spec = get_model("RM5")
    return PreprocessingPipeline(spec), SyntheticTableGenerator(spec, seed=2)


def test_run_peaks_at_the_batch_it_returns(rm5):
    """The parent's per-column temporaries, ``column_stack`` and
    ``concatenate`` made this 2.21x; in place it is the batch plus a work
    block and one column's hash scratch."""
    pipe, generator = rm5
    raw = generator.generate(2048)
    pipe.run(raw)  # warm: imports, lazy numpy state
    (batch, _), peak = traced_peak(lambda: pipe.run(raw))
    assert peak <= 1.15 * batch_nbytes(batch)


def test_column_kernels_allocate_tiles_not_columns():
    """A 1 M-element column costs what a tile costs: the hash's one scratch
    (the parent allocated a full-size one, 8 MB here), and the bucket
    search's cast, permutation, sorted needles and ids, all per tile."""
    tile_nbytes = 8 * TILE_ELEMENTS
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 2**40, 1_000_000)
    out = np.empty(len(ids), dtype=np.int64)
    hasher = SigridHasher(1, 500_000)
    hasher(ids[:8], out=out[:8])  # warm
    _, peak = traced_peak(lambda: hasher(ids, out=out))
    assert peak < 4 * tile_nbytes

    bucketizer = Bucketizer(np.arange(1.0, 4097.0))
    for dtype in (np.float64, np.float32):
        values = rng.uniform(0.0, 5000.0, len(out)).astype(dtype)
        bucketizer(values[:8], out=out[:8])
        _, peak = traced_peak(lambda: bucketizer(values, out=out))
        assert peak < 8 * tile_nbytes


def test_inline_executor_holds_one_shard_beside_its_results(rm5):
    """Peak minus the results' own bytes is within one shard's file + raw
    table (the parent: 20.1 MB against this 15.1 MB allowance), and does
    not grow with the number of shards."""
    pipe, generator = rm5
    shard_rows = 1024
    data = generator.generate(8 * shard_rows)
    transient = {}
    for shards in (2, 8):
        table = {
            name: (
                (column[0][: shards * shard_rows],
                 column[1][: int(column[0][: shards * shard_rows].sum())])
                if isinstance(column, tuple) else column[: shards * shard_rows]
            )
            for name, column in data.items()
        }
        executor = ShardExecutor(pipe, rows_per_shard=shard_rows)
        results, peak = traced_peak(lambda: executor.run(table, parallel=False))
        assert len(results) == shards
        transient[shards] = peak - sum(batch_nbytes(r.batch) for r in results)
        one_shard = results[0].file_bytes + table_nbytes(table) // shards
        assert transient[shards] <= one_shard
    assert transient[8] == pytest.approx(transient[2], rel=0.02)


def test_digest_hashes_each_tensor_in_place(rm5):
    """``minibatch_digest`` reads each tensor's buffer: its peak stays
    below the largest tensor, which a ``tobytes()`` copy would reach, and
    a tensor laid out in Fortran order hashes its C-order bytes."""
    pipe, generator = rm5
    batch, _ = pipe.run(generator.generate(2048))
    tensors = (batch.dense, batch.labels, batch.sparse.lengths, batch.sparse.values)
    expected = hashlib.sha256(
        b"".join(tensor.tobytes() for tensor in tensors)
        + ",".join(batch.sparse.keys).encode()
    ).hexdigest()
    assert minibatch_digest([batch]) == expected
    digest, peak = traced_peak(lambda: minibatch_digest([batch]))
    assert digest == expected
    assert peak < max(tensor.nbytes for tensor in tensors)

    fortran = MiniBatch(
        dense=np.asfortranarray(batch.dense), sparse=batch.sparse,
        labels=batch.labels, batch_id=batch.batch_id,
    )
    assert not fortran.dense.flags.c_contiguous
    assert minibatch_digest([fortran]) == expected
