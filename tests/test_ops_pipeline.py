"""Tests for the full preprocessing pipeline and its work counters."""

import numpy as np
import pytest

from repro.errors import OpError, PipelineError
from repro.features.specs import get_model
from repro.features.synthetic import SyntheticTableGenerator, generate_raw_table
from repro.ops.fill import fill_dense
from repro.ops.lognorm import log_normalize
from repro.ops.pipeline import OpCounts, PreprocessingPipeline


@pytest.fixture(scope="module")
def rm1():
    spec = get_model("RM1")
    return spec, PreprocessingPipeline(spec), generate_raw_table(spec, 128)


class TestPipelineRun:
    def test_output_shapes(self, rm1):
        spec, pipe, raw = rm1
        batch, counts = pipe.run(raw)
        assert batch.batch_size == 128
        assert batch.dense.shape == (128, spec.num_dense)
        assert batch.sparse.num_keys == spec.num_tables  # 26 raw + 13 generated
        assert len(batch.labels) == 128

    def test_minibatch_of_1024_rows(self):
        """The whole Transform phase on a 1,024-row RM1 mini-batch."""
        spec = get_model("RM1")
        pipe = PreprocessingPipeline(spec)
        batch, _ = pipe.run(generate_raw_table(spec, 1024))
        assert batch.batch_size == 1024
        assert batch.dense.shape == (1024, spec.num_dense)
        assert batch.sparse.num_keys == spec.num_tables
        batch.validate_index_range(pipe.table_sizes)

    def test_indices_within_tables(self, rm1):
        _, pipe, raw = rm1
        batch, _ = pipe.run(raw)
        batch.validate_index_range(pipe.table_sizes)

    def test_generated_feature_tables_sized_by_buckets(self, rm1):
        spec, pipe, _ = rm1
        for name in spec.generated_sparse_names:
            assert pipe.table_sizes[name] == spec.bucket_size + 1
        for name in spec.schema().sparse_names:
            assert pipe.table_sizes[name] == spec.avg_embeddings_per_table

    def test_deterministic(self, rm1):
        _, pipe, raw = rm1
        a, _ = pipe.run(raw)
        b, _ = pipe.run(raw)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.sparse.values, b.sparse.values)

    def test_dense_normalized_nonnegative(self, rm1):
        _, pipe, raw = rm1
        batch, _ = pipe.run(raw)
        assert np.all(batch.dense >= 0)
        assert np.all(np.isfinite(batch.dense))

    def test_missing_column_raises(self, rm1):
        _, pipe, raw = rm1
        broken = dict(raw)
        del broken["int_0"]
        with pytest.raises(PipelineError, match="int_0"):
            pipe.run(broken)

    def test_required_columns(self, rm1):
        spec, pipe, _ = rm1
        cols = pipe.required_columns()
        assert cols[0] == "label"
        assert len(cols) == 1 + spec.num_dense + spec.num_sparse


@pytest.mark.parametrize("model", ["RM1", "RM2", "RM3", "RM4", "RM5"])
def test_every_model_bucketizes_against_the_generators_boundaries(model):
    """The boundaries are a constant of the model: the generator's, one
    strictly increasing ``bucket_size`` edge array per Bucketize source,
    and every generated id lands in its ``bucket_size + 1``-row table."""
    spec = get_model(model)
    pipe = PreprocessingPipeline(spec)
    gen = SyntheticTableGenerator(spec, seed=pipe.generator_seed)
    assert sorted(pipe.boundaries) == sorted(spec.bucketize_source_names)
    for name, edges in pipe.boundaries.items():
        assert edges.shape == (spec.bucket_size,)
        assert np.all(np.diff(edges) > 0)
        np.testing.assert_array_equal(edges, gen.bucket_boundaries(name))
        np.testing.assert_array_equal(pipe._bucketizers[name].boundaries, edges)
    batch, counts = pipe.run(generate_raw_table(spec, 64))
    batch.validate_index_range(pipe.table_sizes)
    assert counts.bucket_boundaries == spec.bucket_size


class TestOpCounts:
    def test_measured_matches_expected_rm1(self, rm1):
        spec, pipe, raw = rm1
        _, measured = pipe.run(raw)
        expected = OpCounts.expected_for(spec, 128)
        assert measured.log_elements == expected.log_elements
        assert measured.bucketize_elements == expected.bucketize_elements
        assert measured.bucket_boundaries == expected.bucket_boundaries
        # RM1 sparse length is fixed at 1, so hash counts match exactly
        assert measured.hash_elements == expected.hash_elements

    def test_expected_counts_production_model(self):
        spec = get_model("RM5")
        counts = OpCounts.expected_for(spec)
        assert counts.rows == 8192
        assert counts.log_elements == 8192 * 504
        assert counts.bucketize_elements == 8192 * 42
        assert counts.hash_elements == 8192 * 42 * 20
        assert counts.bucket_boundaries == 4096

    def test_search_steps(self):
        assert OpCounts.expected_for(get_model("RM5")).search_steps_per_element == 13
        assert OpCounts.expected_for(get_model("RM1")).search_steps_per_element == 11

    def test_transform_elements_sum(self):
        counts = OpCounts.expected_for(get_model("RM2"))
        assert counts.transform_elements == (
            counts.log_elements + counts.bucketize_elements + counts.hash_elements
        )

    def test_measured_hash_close_to_expected_jagged(self):
        """For jagged models the measured hash count fluctuates around the
        Poisson mean (plus fills for empty rows)."""
        spec = get_model("RM2")
        pipe = PreprocessingPipeline(spec)
        raw = generate_raw_table(spec, 64)
        _, measured = pipe.run(raw)
        expected = OpCounts.expected_for(spec, 64)
        assert measured.hash_elements == pytest.approx(
            expected.hash_elements, rel=0.10
        )


class TestPreparedKernels:
    """The cached per-pipeline op kernels must match the one-shot functions."""

    def test_bucketizer_matches_function(self):
        from repro.ops.bucketize import Bucketizer, bucketize

        rng = np.random.default_rng(0)
        boundaries = np.sort(rng.random(64))
        values = rng.random(500)
        values[::7] = np.nan
        prepared = Bucketizer(boundaries)
        np.testing.assert_array_equal(
            prepared(values), bucketize(values, boundaries)
        )
        assert prepared.num_buckets == 65

    def test_bucketizer_validates_once(self):
        from repro.ops.bucketize import Bucketizer

        with pytest.raises(OpError, match="strictly increasing"):
            Bucketizer(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(OpError, match="1-D"):
            Bucketizer(np.array([1.0, 2.0]))(np.zeros((2, 2)))

    def test_sigrid_hasher_matches_function(self):
        from repro.ops.sigridhash import SigridHasher, sigrid_hash

        rng = np.random.default_rng(1)
        ids = rng.integers(-(2**40), 2**40, 1000)
        prepared = SigridHasher(0xC0FFEE, 500_000)
        np.testing.assert_array_equal(
            prepared(ids), sigrid_hash(ids, 0xC0FFEE, 500_000)
        )

    def test_sigrid_hasher_validates(self):
        from repro.ops.sigridhash import SigridHasher

        with pytest.raises(OpError, match="positive"):
            SigridHasher(0, 0)
        with pytest.raises(OpError, match="integer"):
            SigridHasher(0, 10)(np.array([1.5, 2.5]))

    def test_pipeline_uses_prepared_kernels(self, rm1):
        _, pipe, _ = rm1
        assert set(pipe._bucketizers) == set(pipe.spec.bucketize_source_names)
        assert set(pipe._hashers) == set(pipe.schema.sparse_names)


class TestRunAssemblesTheBatch:
    """Format conversion happens inside ``run``: the checks and the column
    layout the stand-alone packing step used to own."""

    def test_short_dense_column_is_refused(self, rm1):
        spec, pipe, raw = rm1
        name = spec.schema().dense_names[0]
        short = dict(raw, **{name: raw[name][:-1]})
        with pytest.raises(
            OpError, match=f"dense column '{name}' has 127 rows, batch is 128"
        ):
            pipe.run(short)

    def test_dense_columns_follow_the_schema_order(self, rm1):
        spec, pipe, raw = rm1
        batch, _ = pipe.run(raw)
        for index, name in enumerate(spec.schema().dense_names):
            np.testing.assert_array_equal(
                batch.dense[:, index], log_normalize(fill_dense(raw[name]))
            )
