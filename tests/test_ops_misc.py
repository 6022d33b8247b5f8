"""Tests for Log normalization, fill ops, and format conversion."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OpError
from repro.ops.fill import fill_dense, fill_sparse
from repro.ops.lognorm import log_normalize


class TestLogNormalize:
    def test_basic_values(self):
        out = log_normalize(np.array([0.0, np.e - 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], rtol=1e-6)

    def test_negative_clamped(self):
        assert log_normalize(np.array([-5.0]))[0] == 0.0

    def test_nan_treated_as_zero(self):
        assert log_normalize(np.array([np.nan]))[0] == 0.0

    def test_output_dtype(self):
        assert log_normalize(np.array([1.0])).dtype == np.float32

    def test_monotone(self):
        values = np.array([0.0, 1.0, 10.0, 100.0])
        out = log_normalize(values)
        assert np.all(np.diff(out) > 0)

    def test_2d_rejected(self):
        with pytest.raises(OpError):
            log_normalize(np.zeros((2, 2)))

    def test_rm5_minibatch_column(self):
        """One dense column of an 8,192-row RM5 mini-batch."""
        dense = np.random.default_rng(0).lognormal(1.5, 1.2, 8192)
        out = log_normalize(dense)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out, np.log1p(dense), rtol=1e-6)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_always_finite_nonnegative(self, values):
        out = log_normalize(np.array(values, dtype=np.float64))
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0)


class TestFillDense:
    def test_fills_nans(self):
        out = fill_dense(np.array([1.0, np.nan, 3.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0, 3.0])

    def test_no_nans_copy(self):
        values = np.array([1.0, 2.0], dtype=np.float32)
        out = fill_dense(values)
        out[0] = 99.0
        assert values[0] == 1.0  # input untouched

    def test_2d_rejected(self):
        with pytest.raises(OpError):
            fill_dense(np.zeros((2, 2)))


class TestFillSparse:
    def test_empty_rows_get_default(self):
        lengths = np.array([2, 0, 1], dtype=np.int32)
        values = np.array([10, 11, 12], dtype=np.int64)
        new_lengths, new_values = fill_sparse(lengths, values)
        assert new_lengths.tolist() == [2, 1, 1]
        assert new_values.tolist() == [10, 11, 0, 12]

    def test_no_empty_rows_passthrough(self):
        lengths = np.array([1, 2], dtype=np.int32)
        values = np.array([1, 2, 3], dtype=np.int64)
        new_lengths, new_values = fill_sparse(lengths, values)
        np.testing.assert_array_equal(new_lengths, lengths)
        np.testing.assert_array_equal(new_values, values)

    def test_all_empty(self):
        new_lengths, new_values = fill_sparse(
            np.zeros(3, dtype=np.int32), np.array([], dtype=np.int64)
        )
        assert new_lengths.tolist() == [1, 1, 1]
        assert new_values.tolist() == [0, 0, 0]

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(OpError, match="sum"):
            fill_sparse(np.array([2]), np.array([1, 2, 3]))

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, lengths):
        """Values are conserved; only empty rows gain one default entry."""
        lengths = np.array(lengths, dtype=np.int32)
        values = np.arange(int(lengths.sum()), dtype=np.int64) + 100
        new_lengths, new_values = fill_sparse(lengths, values)
        assert np.all(new_lengths >= 1)
        assert int(new_lengths.sum()) == len(new_values)
        # non-default values preserved in order
        kept = new_values[new_values != 0]
        np.testing.assert_array_equal(kept, values)


def fill_sparse_scalar(lengths, values):
    """The row-at-a-time loop ``fill_sparse`` ran before it became a masked
    store: the reference the vectorized form must reproduce."""
    empty = lengths == 0
    new_lengths = lengths.copy()
    new_lengths[empty] = 1
    out = np.empty(int(new_lengths.sum()), dtype=np.int64)
    out_offsets = np.concatenate(([0], np.cumsum(new_lengths)))
    in_offsets = np.concatenate(([0], np.cumsum(lengths)))
    for row in range(len(lengths)):
        start, stop = out_offsets[row], out_offsets[row + 1]
        if empty[row]:
            out[start] = 0
        else:
            out[start:stop] = values[in_offsets[row] : in_offsets[row + 1]]
    return new_lengths, out


class TestFillSparseVectorized:
    @staticmethod
    def check(lengths):
        lengths = np.array(lengths, dtype=np.int32)
        values = np.arange(int(lengths.sum()), dtype=np.int64) * 5 + 11
        expected_lengths, expected = fill_sparse_scalar(lengths, values)
        new_lengths, new_values = fill_sparse(lengths, values)
        assert new_lengths.dtype == np.int32 and new_values.dtype == np.int64
        np.testing.assert_array_equal(new_lengths, expected_lengths)
        np.testing.assert_array_equal(new_values, expected)

    @given(lengths=st.lists(st.integers(0, 6), min_size=0, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_loop_on_jagged_input(self, lengths):
        self.check(lengths)

    @pytest.mark.parametrize(
        "lengths",
        [[0, 0, 0], [0], [0, 3, 0, 0, 2, 0], [4, 0], [0, 4], [2, 3], []],
    )
    def test_edges(self, lengths):
        self.check(lengths)


def count_lines(function, *args):
    """Python lines executed inside ``function``'s own frame for one call."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code is not function.__code__:
            return None
        if event == "line":
            lines += 1
        return tracer

    sys.settrace(tracer)
    try:
        function(*args)
    finally:
        sys.settrace(None)
    return lines


class TestNoRowLoops:
    """One empty row sent every row of a column through a Python loop in
    ``fill_sparse`` (8.4 ms per 8,192 rows).  Counted, not timed: the
    Python lines executed must not grow with the rows."""

    def test_lines_executed_do_not_grow_with_rows(self):
        def lines_executed(rows):
            lengths = np.full(rows, 3, dtype=np.int32)
            lengths[1] = 0
            values = np.arange(int(lengths.sum()), dtype=np.int64)
            return count_lines(fill_sparse, lengths, values)

        assert 0 < lines_executed(4096) == lines_executed(8)
