"""Tests for the SigridHash operator (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OpError
from repro.ops.sigridhash import hash64, sigrid_hash, sigrid_hash_scalar


class TestScalar:
    def test_deterministic(self):
        assert hash64(42, seed=7) == hash64(42, seed=7)

    def test_seed_changes_output(self):
        assert hash64(42, seed=1) != hash64(42, seed=2)

    def test_range(self):
        for value in (0, 1, 2**40, -5 % 2**64):
            assert 0 <= sigrid_hash_scalar(value, 0, 1000) < 1000

    def test_bad_max_value(self):
        with pytest.raises(OpError):
            sigrid_hash_scalar(1, 0, 0)


class TestVectorized:
    def test_matches_scalar_reference(self):
        values = np.array([0, 1, 17, 2**40, 2**62], dtype=np.int64)
        out = sigrid_hash(values, seed=3, max_value=500_000)
        for value, got in zip(values.tolist(), out.tolist()):
            assert got == sigrid_hash_scalar(value, 3, 500_000)

    def test_output_in_range(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**60, 10_000).astype(np.int64)
        out = sigrid_hash(values, seed=0, max_value=12345)
        assert out.min() >= 0
        assert out.max() < 12345

    def test_rm5_minibatch_column(self):
        """One sparse column of an 8,192-row RM5 mini-batch (average
        length 20) hashed into a 500,000-row table."""
        values = np.random.default_rng(0).integers(0, 2**40, 8192 * 20)
        out = sigrid_hash(values.astype(np.int64), 0xC0FFEE, 500_000)
        assert len(out) == 8192 * 20
        assert out.min() >= 0
        assert out.max() < 500_000
        for value, got in zip(values[:64].tolist(), out[:64].tolist()):
            assert got == sigrid_hash_scalar(value, 0xC0FFEE, 500_000)

    def test_uniformity(self):
        """Hash outputs should spread evenly over the table (chi-square-ish)."""
        values = np.arange(100_000, dtype=np.int64)
        out = sigrid_hash(values, seed=0, max_value=100)
        counts = np.bincount(out, minlength=100)
        # each bin expects 1000; allow generous +-20%
        assert counts.min() > 800
        assert counts.max() < 1200

    def test_determinism_across_calls(self):
        values = np.array([5, 6, 7], dtype=np.int64)
        np.testing.assert_array_equal(
            sigrid_hash(values, 9, 100), sigrid_hash(values, 9, 100)
        )

    def test_empty_input(self):
        assert len(sigrid_hash(np.array([], dtype=np.int64), 0, 10)) == 0

    def test_float_input_rejected(self):
        with pytest.raises(OpError, match="integer"):
            sigrid_hash(np.array([1.0]), 0, 10)

    def test_2d_rejected(self):
        with pytest.raises(OpError, match="1-D"):
            sigrid_hash(np.zeros((2, 2), dtype=np.int64), 0, 10)

    def test_bad_max_value(self):
        with pytest.raises(OpError):
            sigrid_hash(np.array([1], dtype=np.int64), 0, -1)


class TestProperties:
    @given(
        values=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62), max_size=100
        ),
        seed=st.integers(min_value=0, max_value=2**31),
        max_value=st.integers(min_value=1, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_scalar_agreement(self, values, seed, max_value):
        column = np.array(values, dtype=np.int64)
        out = sigrid_hash(column, seed, max_value)
        assert np.all(out >= 0)
        assert np.all(out < max_value)
        for value, got in zip(column.tolist(), out.tolist()):
            assert got == sigrid_hash_scalar(value, seed, max_value)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_avalanche(self, value):
        """Flipping one input bit should change many output bits."""
        a = hash64(value, 0)
        b = hash64(value ^ 1, 0)
        flipped = bin(a ^ b).count("1")
        assert flipped >= 8  # weak but meaningful avalanche bound
