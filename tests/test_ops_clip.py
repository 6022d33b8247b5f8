"""Tests for the clamp and truncate_list operators."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OpError, PipelineError
from repro.features.specs import get_model
from repro.features.synthetic import generate_raw_table
from repro.ops.clip import clamp, truncate_list
from repro.ops.fill import fill_sparse
from repro.ops.pipeline import PreprocessingPipeline


class TestClamp:
    def test_bounds(self):
        out = clamp(np.array([-5.0, 0.5, 99.0]), 0.0, 10.0)
        np.testing.assert_array_equal(out, [0.0, 0.5, 10.0])

    def test_nan_passthrough(self):
        assert np.isnan(clamp(np.array([np.nan]), 0.0, 1.0))[0]

    def test_empty_range_rejected(self):
        with pytest.raises(OpError, match="empty"):
            clamp(np.array([1.0]), 5.0, 1.0)

    def test_2d_rejected(self):
        with pytest.raises(OpError):
            clamp(np.zeros((2, 2)), 0.0, 1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_always_within_bounds(self, values):
        out = clamp(np.array(values, dtype=np.float64), -10.0, 10.0)
        assert np.all(out >= -10.0)
        assert np.all(out <= 10.0)


class TestTruncateList:
    def test_keeps_tail(self):
        lengths = np.array([4, 1], dtype=np.int32)
        values = np.array([1, 2, 3, 4, 9], dtype=np.int64)
        new_lengths, new_values = truncate_list(lengths, values, 2)
        assert new_lengths.tolist() == [2, 1]
        assert new_values.tolist() == [3, 4, 9]  # last two of row 0

    def test_noop_when_short(self):
        lengths = np.array([1, 2], dtype=np.int32)
        values = np.array([7, 8, 9], dtype=np.int64)
        new_lengths, new_values = truncate_list(lengths, values, 5)
        np.testing.assert_array_equal(new_lengths, lengths)
        np.testing.assert_array_equal(new_values, values)

    def test_empty_rows_preserved(self):
        lengths = np.array([0, 3], dtype=np.int32)
        values = np.array([1, 2, 3], dtype=np.int64)
        new_lengths, new_values = truncate_list(lengths, values, 1)
        assert new_lengths.tolist() == [0, 1]
        assert new_values.tolist() == [3]

    def test_invalid_inputs(self):
        with pytest.raises(OpError):
            truncate_list(np.array([1]), np.array([1]), 0)
        with pytest.raises(OpError, match="sum"):
            truncate_list(np.array([3]), np.array([1]), 2)

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=30),
        max_length=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, lengths, max_length):
        """Lengths capped, values are each row's suffix, totals consistent."""
        lengths = np.array(lengths, dtype=np.int32)
        values = np.arange(int(lengths.sum()), dtype=np.int64)
        new_lengths, new_values = truncate_list(lengths, values, max_length)
        assert np.all(new_lengths <= max_length)
        assert np.all(new_lengths <= lengths)
        assert int(new_lengths.sum()) == len(new_values)
        in_off = np.concatenate(([0], np.cumsum(lengths)))
        out_off = np.concatenate(([0], np.cumsum(new_lengths)))
        for row in range(len(lengths)):
            kept = new_values[out_off[row] : out_off[row + 1]]
            original = values[in_off[row] : in_off[row + 1]]
            np.testing.assert_array_equal(kept, original[len(original) - len(kept):])


def truncate_list_scalar(lengths, values, max_length):
    """The row-at-a-time loop ``truncate_list`` ran before it became offset
    arithmetic: the reference the vectorized form must reproduce."""
    new_lengths = np.minimum(lengths, max_length)
    out = np.empty(int(new_lengths.sum()), dtype=np.int64)
    in_offsets = np.concatenate(([0], np.cumsum(lengths)))
    out_offsets = np.concatenate(([0], np.cumsum(new_lengths)))
    for row in range(len(lengths)):
        stop = in_offsets[row + 1]
        start = stop - new_lengths[row]  # tail of the row's list
        out[out_offsets[row] : out_offsets[row + 1]] = values[start:stop]
    return new_lengths, out


class TestTruncateListVectorized:
    @staticmethod
    def check(lengths, max_length):
        lengths = np.array(lengths, dtype=np.int32)
        values = np.arange(int(lengths.sum()), dtype=np.int64) * 7 - 3
        expected_lengths, expected = truncate_list_scalar(lengths, values, max_length)
        new_lengths, new_values = truncate_list(lengths, values, max_length)
        assert new_lengths.dtype == np.int32 and new_values.dtype == np.int64
        np.testing.assert_array_equal(new_lengths, expected_lengths)
        np.testing.assert_array_equal(new_values, expected)

    @given(
        lengths=st.lists(st.integers(0, 9), min_size=0, max_size=40),
        max_length=st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_loop_on_jagged_input(self, lengths, max_length):
        self.check(lengths, max_length)

    @pytest.mark.parametrize(
        "lengths, max_length",
        [
            ([0, 0, 0], 2),           # all empty
            ([5, 9, 7, 6], 2),        # all over-long
            ([5, 9, 7, 6], 1),        # max_length = 1: the last id of each row
            ([0, 4, 0, 1, 0, 8], 1),  # empty rows between over-long ones
            ([3], 3),                 # nothing to do
            ([], 4),
        ],
    )
    def test_edges(self, lengths, max_length):
        self.check(lengths, max_length)

    def test_nothing_to_truncate_returns_the_inputs(self):
        lengths = np.array([1, 2], dtype=np.int32)
        values = np.array([7, 8, 9], dtype=np.int64)
        same_lengths, same_values = truncate_list(lengths, values, 2)
        assert same_lengths is lengths and same_values is values


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
    """One over-long row sent every row of a column through a Python loop
    in ``truncate_list`` (9.4 ms per 8,192 rows), one empty row did the same
    in ``fill_sparse`` (8.4 ms).  Counted, not timed: the Python lines
    executed must not grow with the rows."""

    @pytest.mark.parametrize(
        "op, odd_length, args", [(truncate_list, 40, (10,)), (fill_sparse, 0, ())]
    )
    def test_lines_executed_do_not_grow_with_rows(self, op, odd_length, args):
        def lines_executed(rows):
            lengths = np.full(rows, 3, dtype=np.int32)
            lengths[1] = odd_length
            values = np.arange(int(lengths.sum()), dtype=np.int64)
            return count_lines(op, lengths, values, *args)

        assert 0 < lines_executed(4096) == lines_executed(8)


class TestPipelineIntegration:
    def test_truncation_reduces_hash_work(self):
        spec = get_model("RM2")
        raw = generate_raw_table(spec, 64)
        plain = PreprocessingPipeline(spec)
        truncated = PreprocessingPipeline(spec, max_sparse_length=5)
        _, counts_plain = plain.run(raw)
        _, counts_truncated = truncated.run(raw)
        assert counts_truncated.hash_elements < counts_plain.hash_elements

    def test_clamp_bounds_dense_output(self):
        spec = get_model("RM1")
        raw = generate_raw_table(spec, 64)
        pipe = PreprocessingPipeline(spec, dense_clamp=(0.0, 50.0))
        batch, _ = pipe.run(raw)
        assert batch.dense.max() <= np.log1p(50.0) + 1e-6

    def test_bad_max_length_rejected(self):
        with pytest.raises(PipelineError):
            PreprocessingPipeline(get_model("RM1"), max_sparse_length=0)
