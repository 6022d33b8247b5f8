"""Tests for the real Criteo TSV loader."""

import io

import numpy as np
import pytest

from repro.errors import FormatError
from repro.features.criteo import (
    dump_criteo_tsv,
    load_criteo_tsv,
    parse_line,
)
from repro.features.specs import get_model
from repro.features.synthetic import generate_raw_table
from repro.ops.pipeline import PreprocessingPipeline


def sample_line(label=1, dense_value="5", cat="7f3b"):
    fields = [str(label)] + [dense_value] * 13 + [cat] * 26
    return "\t".join(fields)


class TestParseLine:
    def test_basic(self):
        label, dense, sparse = parse_line(sample_line())
        assert label == 1
        assert dense == [5.0] * 13
        assert sparse == [0x7F3B] * 26

    def test_missing_fields(self):
        line = "\t".join(["0"] + [""] * 13 + [""] * 26)
        label, dense, sparse = parse_line(line)
        assert label == 0
        assert all(np.isnan(v) for v in dense)
        assert sparse == [-1] * 26

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="fields"):
            parse_line("1\t2\t3")

    def test_bad_label(self):
        with pytest.raises(FormatError, match="label"):
            parse_line(sample_line(label=7))
        bad = "x" + sample_line()[1:]
        with pytest.raises(FormatError, match="bad label"):
            parse_line(bad)

    @pytest.mark.parametrize("label", ["01", " 1", "1.0", "", "-0", "true"])
    def test_label_is_exactly_0_or_1(self, label):
        """A label ``int()`` would take (``01``, `` 1``) is still bad."""
        with pytest.raises(FormatError, match="line 2: bad label"):
            parse_line(sample_line(label=label), line_number=2)

    @pytest.mark.parametrize("raw, value", [("0", 0.0), ("-0", 0.0), ("-7", -7.0)])
    def test_dense_signed_decimal(self, raw, value):
        _, dense, _ = parse_line(sample_line(dense_value=raw))
        assert dense == [value] * 13

    def test_bad_dense(self):
        line = sample_line(dense_value="notanint")
        with pytest.raises(FormatError, match="integer feature"):
            parse_line(line)

    def test_bad_categorical(self):
        line = sample_line(cat="zzzz")
        with pytest.raises(FormatError, match="categorical"):
            parse_line(line)

    @pytest.mark.parametrize("cat", ["-1a", "+1a", "0x1a", "1_a", " 1a", "1a "])
    def test_categorical_is_hex_digits_only(self, cat):
        """``int(raw, 16)`` takes signs, prefixes, underscores and spaces;
        a categorical field must be bare hex digits, else the error names
        the line."""
        with pytest.raises(FormatError, match="line 4: bad categorical"):
            parse_line(sample_line(cat=cat), line_number=4)

    def test_categorical_wider_than_int64(self):
        """20 hex digits used to raise a bare OverflowError."""
        with pytest.raises(FormatError, match="line 1: categorical .* int64"):
            load_criteo_tsv([sample_line(cat="f" * 20)])

    def test_categorical_int64_edge(self):
        _, values = load_criteo_tsv([sample_line(cat="7" + "f" * 15)])["cat_0"]
        assert values.tolist() == [2**63 - 1]
        with pytest.raises(FormatError, match="line 1: categorical .* int64"):
            load_criteo_tsv([sample_line(cat="8" + "0" * 15)])

    @pytest.mark.parametrize("digits", [60, 400, 5000])
    def test_dense_beyond_float32(self, digits):
        """A 60-digit value used to load as inf, a 400-digit one raised a
        bare OverflowError; both are input errors naming the line."""
        with pytest.raises(FormatError, match="line 1: integer feature .* float32"):
            load_criteo_tsv([sample_line(dense_value="9" * digits)])

    def test_dense_float32_edge(self):
        """float32's largest value loads; half an ulp more rounds to inf."""
        largest = int(np.finfo(np.float32).max)
        data = load_criteo_tsv([sample_line(dense_value=str(-largest))])
        assert data["int_0"].tolist() == [-largest]
        with pytest.raises(FormatError, match="line 1: .* float32"):
            load_criteo_tsv([sample_line(dense_value=str(2**128 - 2**103))])

    @pytest.mark.parametrize("value", ["+5", "1_0", " 5", "\u0665", "-", "--5", "5-"])
    def test_dense_is_ascii_decimal(self, value):
        with pytest.raises(FormatError, match="line 1: bad integer feature"):
            load_criteo_tsv([sample_line(dense_value=value)])

    def test_crlf_line_ending(self):
        """A CRLF terminator is not part of the last field, so an empty
        last categorical is missing, not a bad ``"\\r"``."""
        label, _, sparse = parse_line(sample_line() + "\r\n")
        assert label == 1 and sparse == [0x7F3B] * 26
        _, _, sparse = parse_line(sample_line()[: -len("7f3b")] + "\r\n")
        assert sparse == [0x7F3B] * 25 + [-1]


class TestLoadTsv:
    def test_load_from_lines(self):
        lines = [sample_line(label=i % 2) for i in range(8)]
        data = load_criteo_tsv(lines)
        assert len(data["label"]) == 8
        assert data["label"].tolist() == [0, 1] * 4
        lengths, values = data["cat_0"]
        assert lengths.tolist() == [1] * 8

    def test_missing_categorical_becomes_empty_list(self):
        line = "\t".join(["1"] + ["3"] * 13 + [""] + ["aa"] * 25)
        data = load_criteo_tsv([line])
        lengths, values = data["cat_0"]
        assert lengths.tolist() == [0]
        assert len(values) == 0

    def test_error_line_counts_blank_lines(self):
        """The line a FormatError names is the line in the file."""
        lines = [sample_line(), "", sample_line(cat="-1a")]
        with pytest.raises(FormatError, match="line 3: bad categorical"):
            load_criteo_tsv(lines)

    def test_blank_lines_skipped(self):
        data = load_criteo_tsv([sample_line(), "", "   \n", sample_line()])
        assert len(data["label"]) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError, match="no rows"):
            load_criteo_tsv([])

    def test_file_object(self):
        handle = io.StringIO(sample_line() + "\n" + sample_line() + "\n")
        data = load_criteo_tsv(handle)
        assert len(data["label"]) == 2

    def test_path(self, tmp_path):
        path = tmp_path / "day_0.tsv"
        path.write_text(sample_line(label=0) + "\n" + sample_line() + "\n")
        data = load_criteo_tsv(str(path))
        assert data["label"].tolist() == [0, 1]
        assert data["cat_25"][1].tolist() == [0x7F3B, 0x7F3B]


class TestRoundTrip:
    def test_dump_then_load(self):
        """Synthetic RM1 data survives TSV round trip (dense ints only)."""
        spec = get_model("RM1")
        original = generate_raw_table(spec, 32)
        reloaded = load_criteo_tsv(io.StringIO(dump_criteo_tsv(original)))
        np.testing.assert_array_equal(reloaded["label"], original["label"])
        np.testing.assert_array_equal(
            np.nan_to_num(reloaded["int_2"], nan=-1),
            np.nan_to_num(original["int_2"], nan=-1),
        )
        np.testing.assert_array_equal(reloaded["cat_9"][1], original["cat_9"][1])

    def test_missing_fields_survive(self):
        """Missing dense values stay NaN and missing categoricals stay
        empty lists through dump and load."""
        line = "\t".join(["0"] + ["", "4"] * 6 + [""] + ["", "1f"] * 13)
        data = load_criteo_tsv([line])
        reloaded = load_criteo_tsv(io.StringIO(dump_criteo_tsv(data)))
        assert dump_criteo_tsv(reloaded) == line + "\n"
        assert np.isnan(reloaded["int_0"][0]) and reloaded["int_1"].tolist() == [4.0]
        assert reloaded["cat_0"][0].tolist() == [0]
        assert reloaded["cat_1"][1].tolist() == [0x1F]

    def test_loaded_data_is_preprocessable(self):
        """TSV-loaded rows run through the full Transform phase."""
        spec = get_model("RM1")
        data = load_criteo_tsv(
            io.StringIO(dump_criteo_tsv(generate_raw_table(spec, 24)))
        )
        pipe = PreprocessingPipeline(spec)
        batch, counts = pipe.run(data)
        assert batch.batch_size == 24
        batch.validate_index_range(pipe.table_sizes)
