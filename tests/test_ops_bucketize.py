"""Tests for the Bucketize operator (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OpError
from repro.features.specs import get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops.bucketize import bucketize, search_bucket_id


class TestScalarSearch:
    def test_below_first_boundary(self):
        assert search_bucket_id(-1.0, np.array([0.0, 1.0, 2.0])) == 0

    def test_on_boundary_goes_right(self):
        # value == boundary belongs to the next bucket (right-open intervals)
        assert search_bucket_id(1.0, np.array([0.0, 1.0, 2.0])) == 2

    def test_above_last_boundary(self):
        assert search_bucket_id(99.0, np.array([0.0, 1.0, 2.0])) == 3

    def test_interior(self):
        assert search_bucket_id(0.5, np.array([0.0, 1.0, 2.0])) == 1


class TestVectorized:
    def test_matches_numpy_digitize(self):
        boundaries = np.array([1.0, 2.0, 4.0, 8.0])
        values = np.array([0.5, 1.0, 3.0, 8.0, 100.0])
        expected = np.digitize(values, boundaries, right=False)
        np.testing.assert_array_equal(bucketize(values, boundaries), expected)

    def test_nan_maps_to_zero(self):
        out = bucketize(np.array([np.nan, 5.0]), np.array([1.0, 10.0]))
        assert out[0] == 0
        assert out[1] == 1

    def test_output_dtype_int64(self):
        out = bucketize(np.array([1.5]), np.array([1.0, 2.0]))
        assert out.dtype == np.int64

    def test_empty_input(self):
        out = bucketize(np.array([]), np.array([1.0]))
        assert len(out) == 0

    def test_rm5_minibatch_column(self):
        """One dense column of an 8,192-row RM5 mini-batch against the
        model's m = 4,096 generated boundaries."""
        spec = get_model("RM5")
        boundaries = SyntheticTableGenerator(spec, seed=0).bucket_boundaries(
            "int_0"
        )
        assert len(boundaries) == spec.bucket_size == 4096
        dense = np.random.default_rng(0).lognormal(1.5, 1.2, 8192)
        out = bucketize(dense, boundaries)
        assert out.min() >= 0
        assert out.max() <= len(boundaries)
        np.testing.assert_array_equal(
            out, np.digitize(dense, boundaries, right=False)
        )

    def test_nonincreasing_boundaries_rejected(self):
        with pytest.raises(OpError, match="strictly increasing"):
            bucketize(np.array([1.0]), np.array([2.0, 2.0]))

    def test_empty_boundaries_rejected(self):
        with pytest.raises(OpError):
            bucketize(np.array([1.0]), np.array([]))

    def test_2d_input_rejected(self):
        with pytest.raises(OpError, match="1-D"):
            bucketize(np.zeros((2, 2)), np.array([1.0]))


class TestProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=64
        ),
        num_edges=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_scalar_reference(self, values, num_edges, seed):
        rng = np.random.default_rng(seed)
        boundaries = np.sort(rng.uniform(-1e5, 1e5, num_edges))
        boundaries = np.unique(boundaries)
        column = np.array(values, dtype=np.float64)
        vectorized = bucketize(column, boundaries)
        for value, got in zip(column, vectorized):
            assert got == search_bucket_id(float(value), boundaries)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=64,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, values):
        """Bucket ids preserve the ordering of values."""
        boundaries = np.array([-100.0, 0.0, 100.0, 1e4])
        column = np.sort(np.array(values, dtype=np.float64))
        out = bucketize(column, boundaries)
        assert np.all(np.diff(out) >= 0)

    @given(
        values=st.lists(st.floats(allow_nan=True, allow_infinity=False), max_size=64)
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, values):
        """Every bucket id lies in [0, len(boundaries)]."""
        boundaries = np.array([1.0, 2.0, 3.0])
        out = bucketize(np.array(values, dtype=np.float64), boundaries)
        assert np.all(out >= 0)
        assert np.all(out <= len(boundaries))
