"""Tests for the row-oriented file format (the overfetch strawman)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PreprocessJob
from repro.dataio.columnar import ColumnarFileReader, write_table
from repro.dataio.rowformat import (
    ROW_MAGIC,
    RowFileReader,
    RowFileWriter,
    write_row_table,
)
from repro.dataio.schema import TableSchema
from repro.errors import FormatError, SchemaError
from repro.features.specs import get_model
from repro.features.synthetic import SyntheticTableGenerator, generate_raw_table
from test_dataio_compat import with_footer
from test_transform_in_place import traced_peak


def make_table(num_rows=40, seed=3, num_dense=3):
    rng = np.random.default_rng(seed)
    schema = TableSchema.with_counts(num_dense, 2)
    data = {"label": (rng.random(num_rows) < 0.5).astype(np.int8)}
    for name in schema.dense_names:
        column = rng.random(num_rows).astype(np.float32)
        column[rng.random(num_rows) < 0.1] = np.nan
        data[name] = column
    for name in schema.sparse_names:
        lengths = rng.integers(0, 4, num_rows).astype(np.int32)
        values = rng.integers(0, 1 << 40, int(lengths.sum())).astype(np.int64)
        data[name] = (lengths, values)
    return schema, data


class TestRoundTrip:
    def test_full_roundtrip(self):
        schema, data = make_table()
        reader = RowFileReader(write_row_table(schema, data))
        out = reader.read_columns(
            ["label"] + schema.dense_names + schema.sparse_names
        )
        np.testing.assert_array_equal(out["label"], data["label"])
        for name in schema.dense_names:
            np.testing.assert_array_equal(
                np.nan_to_num(out[name], nan=-1.0),
                np.nan_to_num(data[name], nan=-1.0),
            )
        for name in schema.sparse_names:
            np.testing.assert_array_equal(out[name][0], data[name][0])
            np.testing.assert_array_equal(out[name][1], data[name][1])

    def test_agrees_with_columnar(self):
        spec = get_model("RM1")
        data = generate_raw_table(spec, 64)
        schema = spec.schema()
        row_reader = RowFileReader(write_row_table(schema, data))
        col_reader = ColumnarFileReader(write_table(schema, data))
        wanted = ["label", "int_0", "cat_0"]
        row_out = row_reader.read_columns(wanted)
        col_out = col_reader.read_columns(wanted)
        np.testing.assert_array_equal(
            np.nan_to_num(row_out["int_0"]), np.nan_to_num(col_out["int_0"])
        )
        np.testing.assert_array_equal(row_out["cat_0"][1], col_out["cat_0"][1])


class TestVectorizedWriterMatchesScalar:
    """The batch writer must produce byte-identical files to the row loop."""

    @pytest.mark.parametrize(
        "num_rows,seed",
        [(0, 0), (1, 1), (2, 2), (17, 3), (64, 4), (200, 5)],
    )
    def test_byte_identical(self, num_rows, seed):
        schema, data = make_table(num_rows=num_rows, seed=seed)
        writer = RowFileWriter(schema)
        assert writer.write(data) == writer.write_scalar(data)

    def test_byte_identical_negative_ids(self):
        schema, data = make_table(num_rows=30, seed=6)
        name = schema.sparse_names[0]
        lengths, values = data[name]
        values = values.copy()
        values[::3] = -values[::3] - 1  # exercise the two's-complement mask
        data[name] = (lengths, values)
        writer = RowFileWriter(schema)
        buffer = writer.write(data)
        assert buffer == writer.write_scalar(data)
        out = RowFileReader(buffer).read_columns([name])
        np.testing.assert_array_equal(out[name][1], values)

    def test_byte_identical_empty_sparse_rows(self):
        schema = TableSchema.with_counts(1, 1)
        num_rows = 8
        data = {
            "label": np.ones(num_rows, dtype=np.int8),
            schema.dense_names[0]: np.zeros(num_rows, dtype=np.float32),
            schema.sparse_names[0]: (
                np.zeros(num_rows, dtype=np.int32),
                np.empty(0, dtype=np.int64),
            ),
        }
        writer = RowFileWriter(schema)
        buffer = writer.write(data)
        assert buffer == writer.write_scalar(data)
        out = RowFileReader(buffer).read_columns(schema.sparse_names)
        assert out[schema.sparse_names[0]][1].size == 0

    def test_byte_identical_large_ids(self):
        schema = TableSchema.with_counts(0, 1)
        data = {
            "label": np.zeros(3, dtype=np.int8),
            schema.sparse_names[0]: (
                np.array([1, 1, 1], dtype=np.int32),
                np.array(
                    [np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0],
                    dtype=np.int64,
                ),
            ),
        }
        writer = RowFileWriter(schema)
        buffer = writer.write(data)
        assert buffer == writer.write_scalar(data)
        out = RowFileReader(buffer).read_columns(schema.sparse_names)
        np.testing.assert_array_equal(
            out[schema.sparse_names[0]][1], data[schema.sparse_names[0]][1]
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_byte_identical_property(self, seed, num_rows):
        schema, data = make_table(num_rows=num_rows, seed=seed)
        writer = RowFileWriter(schema)
        assert writer.write(data) == writer.write_scalar(data)

    def test_roundtrip_after_rewrite(self):
        # full read-back through the vectorized reader stays lossless
        schema, data = make_table(num_rows=33, seed=9)
        reader = RowFileReader(write_row_table(schema, data))
        out = reader.read_columns(
            ["label"] + schema.dense_names + schema.sparse_names
        )
        np.testing.assert_array_equal(out["label"], data["label"])
        for name in schema.dense_names:
            np.testing.assert_array_equal(
                np.nan_to_num(out[name], nan=-1.0),
                np.nan_to_num(data[name], nan=-1.0),
            )
        for name in schema.sparse_names:
            np.testing.assert_array_equal(out[name][0], data[name][0])
            np.testing.assert_array_equal(out[name][1], data[name][1])


class TestOverfetch:
    def test_scan_cost_independent_of_subset(self):
        schema, data = make_table()
        buf = write_row_table(schema, data)
        one = RowFileReader(buf)
        one.read_columns(["int_0"])
        everything = RowFileReader(buf)
        everything.read_columns(
            ["label"] + schema.dense_names + schema.sparse_names
        )
        assert one.bytes_scanned == everything.bytes_scanned

    def test_columnar_beats_row_for_subsets(self):
        spec = get_model("RM1")
        data = generate_raw_table(spec, 128)
        schema = spec.schema()
        row = RowFileReader(write_row_table(schema, data))
        col = ColumnarFileReader(write_table(schema, data))
        row.read_columns(["int_0"])
        col.read_columns(["int_0"])
        assert col.bytes_read < row.bytes_scanned / 10


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(FormatError, match="row-format"):
            RowFileReader(b"nope" * 20)

    def test_unknown_column(self):
        schema, data = make_table()
        reader = RowFileReader(write_row_table(schema, data))
        with pytest.raises(FormatError, match="unknown columns"):
            reader.read_columns(["ghost"])

    def test_missing_column_on_write(self):
        schema, data = make_table()
        del data["int_1"]
        with pytest.raises(SchemaError, match="int_1"):
            write_row_table(schema, data)

    def test_num_rows_in_footer(self):
        schema, data = make_table(num_rows=17)
        assert RowFileReader(write_row_table(schema, data)).num_rows == 17

    @pytest.mark.parametrize("write", ["write", "write_scalar"])
    @pytest.mark.parametrize(
        "label, match",
        [
            ([[1], [0]], "must be 1-D"),
            (np.array([300, 0]), "int8"),
            (np.array([0.7, 0.0]), "int8"),
        ],
        ids=["2-d", "past-int8", "float"],
    )
    def test_label_must_be_one_int8_column(self, write, label, match):
        schema, data = make_table(num_rows=2)
        data["label"] = label
        with pytest.raises(SchemaError, match=match):
            getattr(RowFileWriter(schema), write)(data)


class TestFooter:
    """The reader rejects any footer the writer could not have produced."""

    SCHEMA, DATA = make_table(num_rows=8)
    BUFFER = write_row_table(SCHEMA, DATA)
    MISSING = object()

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("num_rows", MISSING, id="num_rows-missing"),
            ("num_rows", "200"),
            ("num_rows", 2.5),
            ("num_rows", True),
            ("num_rows", -1),
            ("dense", 5),
            pytest.param("sparse", ["cat_0", 1], id="sparse-not-str"),
            ("label", None),
            ("extra", 1),
        ],
    )
    def test_malformed_structure(self, field, value):
        def edit(footer):
            if value is self.MISSING:
                del footer[field]
            else:
                footer[field] = value

        with pytest.raises(FormatError, match="malformed row-format footer"):
            RowFileReader(with_footer(self.BUFFER, edit))

    def test_footer_that_is_not_an_object(self):
        body = self.BUFFER[: RowFileReader(self.BUFFER)._body_end]
        footer = b'["dense","sparse","label","num_rows"]'
        with pytest.raises(FormatError, match="malformed row-format footer"):
            RowFileReader(body + footer + struct.pack("<I", len(footer)) + ROW_MAGIC)

    def test_more_rows_than_the_body_holds(self):
        def claiming(num_rows):
            def edit(footer):
                footer["num_rows"] = num_rows

            return with_footer(self.BUFFER, edit)

        # the smallest record: a label byte, three 5-byte dense fields and
        # two 1-byte list lengths
        body_bytes = RowFileReader(self.BUFFER)._body_end - len(ROW_MAGIC)
        most = body_bytes // (1 + 3 * 5 + 2)
        assert RowFileReader(claiming(most)).num_rows == most
        for num_rows in (most + 1, 10**12):
            with pytest.raises(FormatError, match="more than the body holds"):
                RowFileReader(claiming(num_rows))

    def test_footer_length_past_the_start_of_the_file(self):
        # this length wraps a negative slice start round onto the real footer
        tail = len(ROW_MAGIC) + 4
        (footer_len,) = struct.unpack("<I", self.BUFFER[-tail : -len(ROW_MAGIC)])
        framed = struct.pack("<I", footer_len + len(self.BUFFER)) + ROW_MAGIC
        with pytest.raises(FormatError, match="footer length exceeds file size"):
            RowFileReader(self.BUFFER[:-tail] + framed)


class TestCorruptFiles:
    def test_corrupt_huge_length_prefix_raises_format_error(self):
        # corrupt a sparse length prefix to a 2^63 varint: the reader must
        # fail with a ReproError, not an uncaught OverflowError
        schema = TableSchema.with_counts(0, 1)
        data = {
            "label": np.zeros(1, dtype=np.int8),
            schema.sparse_names[0]: (
                np.array([1], dtype=np.int32),
                np.array([3], dtype=np.int64),
            ),
        }
        buffer = bytearray(write_row_table(schema, data))
        # record layout: magic(6) + label(1) + length varint + id varint
        offset = len(b"PRSTR\n") + 1
        huge = bytearray()
        value = 2**63
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                huge.append(byte | 0x80)
            else:
                huge.append(byte)
                break
        corrupted = buffer[:offset] + huge + buffer[offset + 1 :]
        reader = RowFileReader(bytes(corrupted))
        with pytest.raises(FormatError):
            reader.read_columns(schema.sparse_names)


class TestBatchedScanMatchesScalar:
    """The batched record scan must reproduce the scalar walk's geometry."""

    @staticmethod
    def _geometry(reader, method):
        import numpy as np

        body = np.frombuffer(reader._buf, dtype=np.uint8, count=reader._body_end)
        terminators = np.flatnonzero(body < 0x80)
        return method(body, terminators)

    def _assert_scan_equal(self, buffer, force_batch=True, monkeypatch=None):
        from repro.dataio import rowformat as rf

        if force_batch and monkeypatch is not None:
            monkeypatch.setattr(rf, "_MIN_BATCH_SCAN_ROWS", 0)
        reader = RowFileReader(buffer)
        fast = self._geometry(reader, reader._scan_records)
        slow = self._geometry(reader, reader._scan_records_scalar)
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)

    def test_large_table_uses_batch_path(self):
        schema, data = make_table(num_rows=300, seed=11)
        reader = RowFileReader(write_row_table(schema, data))
        body = np.frombuffer(reader._buf, dtype=np.uint8, count=reader._body_end)
        terminators = np.flatnonzero(body < 0x80)
        batch = reader._scan_records_batch(body, terminators)
        assert batch is not None  # the fast path proved this file
        scalar = reader._scan_records_scalar(body, terminators)
        for a, b in zip(batch, scalar):
            np.testing.assert_array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_property_random_tables(self, seed, num_rows):
        from repro.dataio import rowformat as rf

        schema, data = make_table(num_rows=num_rows, seed=seed)
        buffer = write_row_table(schema, data)
        original = rf._MIN_BATCH_SCAN_ROWS
        rf._MIN_BATCH_SCAN_ROWS = 0
        try:
            self._assert_scan_equal(buffer, force_batch=False)
        finally:
            rf._MIN_BATCH_SCAN_ROWS = original

    def test_empty_sparse_rows(self, monkeypatch):
        schema = TableSchema.with_counts(2, 2)
        num_rows = 96
        data = {
            "label": np.zeros(num_rows, dtype=np.int8),
            schema.dense_names[0]: np.zeros(num_rows, dtype=np.float32),
            schema.dense_names[1]: np.full(num_rows, np.nan, dtype=np.float32),
            schema.sparse_names[0]: (
                np.zeros(num_rows, dtype=np.int32),
                np.empty(0, dtype=np.int64),
            ),
            schema.sparse_names[1]: (
                np.ones(num_rows, dtype=np.int32),
                np.arange(num_rows, dtype=np.int64),
            ),
        }
        self._assert_scan_equal(
            write_row_table(schema, data), monkeypatch=monkeypatch
        )

    def test_max_width_varints(self, monkeypatch):
        # int64 extremes encode as 10-byte varints (two's complement)
        schema = TableSchema.with_counts(1, 1)
        num_rows = 80
        rng = np.random.default_rng(5)
        lengths = rng.integers(0, 3, num_rows).astype(np.int32)
        values = np.full(int(lengths.sum()), np.iinfo(np.int64).min)
        values[::2] = np.iinfo(np.int64).max
        data = {
            "label": np.ones(num_rows, dtype=np.int8),
            schema.dense_names[0]: rng.random(num_rows).astype(np.float32),
            schema.sparse_names[0]: (lengths, values),
        }
        buffer = write_row_table(schema, data)
        self._assert_scan_equal(buffer, monkeypatch=monkeypatch)
        out = RowFileReader(buffer).read_columns(schema.sparse_names)
        np.testing.assert_array_equal(out[schema.sparse_names[0]][1], values)

    def test_multibyte_list_lengths_fall_back_correctly(self):
        # a 200-id row forces a 2-byte length varint: the fast path must
        # decline and the public scan still answer via the scalar walk
        schema = TableSchema.with_counts(1, 1)
        num_rows = 80
        rng = np.random.default_rng(6)
        lengths = np.full(num_rows, 1, dtype=np.int32)
        lengths[40] = 200
        values = rng.integers(0, 1 << 40, int(lengths.sum())).astype(np.int64)
        data = {
            "label": np.zeros(num_rows, dtype=np.int8),
            schema.dense_names[0]: rng.random(num_rows).astype(np.float32),
            schema.sparse_names[0]: (lengths, values),
        }
        buffer = write_row_table(schema, data)
        reader = RowFileReader(buffer)
        body = np.frombuffer(reader._buf, dtype=np.uint8, count=reader._body_end)
        terminators = np.flatnonzero(body < 0x80)
        assert reader._scan_records_batch(body, terminators) is None
        self._assert_scan_equal(buffer, force_batch=False)
        out = RowFileReader(buffer).read_columns(schema.sparse_names)
        np.testing.assert_array_equal(out[schema.sparse_names[0]][0], lengths)
        np.testing.assert_array_equal(out[schema.sparse_names[0]][1], values)

    def test_no_sparse_columns(self, monkeypatch):
        schema = TableSchema.with_counts(3, 0)
        num_rows = 70
        rng = np.random.default_rng(7)
        data = {"label": np.ones(num_rows, dtype=np.int8)}
        for name in schema.dense_names:
            data[name] = rng.random(num_rows).astype(np.float32)
        self._assert_scan_equal(
            write_row_table(schema, data), monkeypatch=monkeypatch
        )

    def test_wide_fixed_section(self):
        # 52 dense fields make a 261-byte fixed section (RM2-RM5: 2,521):
        # more spurious terminators than a byte counts precede each
        # record's first list length
        schema, data = make_table(num_rows=96, seed=12, num_dense=52)
        buffer = write_row_table(schema, data)
        reader = RowFileReader(buffer)
        assert self._geometry(reader, reader._scan_records_batch) is not None
        self._assert_scan_equal(buffer, force_batch=False)

    def test_truncated_file_raises_format_error(self):
        schema, data = make_table(num_rows=100, seed=9)
        buffer = write_row_table(schema, data)
        with pytest.raises(FormatError):
            RowFileReader(buffer[: len(buffer) - 40])

    def test_corrupt_id_terminator_raises_format_error(self):
        schema, data = make_table(num_rows=100, seed=10)
        buffer = bytearray(write_row_table(schema, data))
        reader = RowFileReader(bytes(buffer))
        body = np.frombuffer(
            reader._buf, dtype=np.uint8, count=reader._body_end
        )
        terminators = np.flatnonzero(body < 0x80)
        _, counts, id_term_index = reader._scan_records_scalar(
            body, terminators
        )
        # merge a mid-file id varint into its successor by setting the
        # continuation bit on its terminator: one varint vanishes, so the
        # record walk can no longer align with the footer
        row = 50
        col = int(np.argmax(counts[row] > 0))
        assert counts[row, col] > 0
        position = int(terminators[id_term_index[row, col]])
        buffer[position] |= 0x80
        corrupted = RowFileReader(bytes(buffer))
        with pytest.raises(FormatError):
            corrupted.read_columns(schema.sparse_names)


class TestReaderMemory:
    def test_read_peak_stays_within_ten_file_sizes(self):
        """tracemalloc peak of one RM5 read: 8.8x the file with one shared
        int32 terminator index; a second structure over every body byte
        breaks the 10x ceiling."""
        job = PreprocessJob("RM5", num_rows=256, seed=0)
        data = SyntheticTableGenerator(job.spec(), seed=0).generate(256)
        pipeline = job.build_pipeline()
        buffer = RowFileWriter(pipeline.schema).write(data)
        _, peak = traced_peak(
            lambda: RowFileReader(buffer).read_columns(pipeline.required_columns())
        )
        assert peak <= 10 * len(buffer)
