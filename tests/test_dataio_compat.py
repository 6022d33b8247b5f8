"""The columnar file across codec changes, and under damage.

* Readers decode whatever the footer and chunk header name: a partition
  file written by the commit before PACKED existed (``tests/data/``, all
  sparse parts LEB128) must read back equal to the generator's table, and
  so must any table written under the old policy.
* Damaged files — random byte mutations and hostile footer entries — may
  only raise ``FormatError`` / ``EncodingError``; the row file, framed the
  same way under its own magic, is held to the same rule.
* The footer's chunk index answers exactly what a rescan would.
"""

import collections
import json
import pathlib
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PreprocessJob
from repro.dataio.columnar import (
    MAGIC,
    PART_LENGTHS,
    PART_VALUES,
    ColumnarFileReader,
    FileFooter,
    default_encoding_policy,
    write_table,
)
from repro.dataio import columnar
from repro.dataio.encoding import (
    Encoding,
    encode_column,
    read_uvarint,
    write_uvarint,
)
from repro.dataio.rowformat import RowFileReader, write_row_table
from repro.dataio.schema import ColumnKind, TableSchema
from repro.errors import EncodingError, FormatError
from repro.features.synthetic import SyntheticTableGenerator

#: written by PR 16 (the parent of the PACKED codec) as
#: ``RowPartitioner(schema, rows_per_partition=32).partition_all(
#: SyntheticTableGenerator(RM1, seed=11).generate(32))[0].file_bytes``
OLD_FILE = pathlib.Path(__file__).parent / "data" / "rm1_seed11_rows32_pr16.prst"


def assert_tables_equal(actual, expected) -> None:
    assert set(actual) == set(expected)
    for name, column in expected.items():
        if isinstance(column, tuple):
            for got, want in zip(actual[name], column):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        else:
            assert actual[name].dtype == column.dtype
            np.testing.assert_array_equal(actual[name], column)


def small_table(num_rows=40, seed=0):
    rng = np.random.default_rng(seed)
    schema = TableSchema.with_counts(2, 2)
    data = {"label": (rng.random(num_rows) < 0.5).astype(np.int8)}
    for name in schema.dense_names:
        data[name] = rng.random(num_rows).astype(np.float32)
    for name in schema.sparse_names:
        lengths = rng.integers(0, 5, num_rows).astype(np.int32)
        values = rng.integers(0, 1 << 40, int(lengths.sum())).astype(np.int64)
        data[name] = (lengths, values)
    return schema, data


def varint_policy(kind, part, values):
    """The default policy of every commit up to PR 16."""
    if kind is ColumnKind.SPARSE:
        return Encoding.VARINT
    return default_encoding_policy(kind, part, values)


class TestOldFilesStayReadable:
    def test_parent_written_partition_reads_back_to_the_generators_table(self):
        job = PreprocessJob("RM1", num_rows=32, seed=11)
        expected = SyntheticTableGenerator(job.spec(), seed=11).generate(32)
        reader = ColumnarFileReader(OLD_FILE.read_bytes())
        codecs = collections.Counter(
            (chunk.part if chunk.column in reader.footer.sparse_names else "-",
             chunk.encoding)
            for chunk in reader.footer.chunks
        )
        # every sparse part of the old file is LEB128, and nothing is PACKED
        assert codecs[(PART_LENGTHS, Encoding.VARINT)] == 26
        assert codecs[(PART_VALUES, Encoding.VARINT)] == 26
        assert Encoding.PACKED not in {codec for _, codec in codecs}
        schema = job.build_pipeline().schema
        names = [schema.label.name] + schema.dense_names + schema.sparse_names
        assert_tables_equal(reader.read_columns(names), expected)
        assert reader.bytes_read == sum(c.size for c in reader.footer.chunks)

    def test_old_file_and_new_file_transform_to_the_same_minibatch(self):
        from repro.api.preprocess import minibatch_digest
        from repro.exec.executor import transform_shard

        job = PreprocessJob("RM1", num_rows=32, seed=11)
        pipeline = job.build_pipeline()
        data = SyntheticTableGenerator(job.spec(), seed=11).generate(32)
        new_file = write_table(pipeline.schema, data)
        assert len(new_file) < OLD_FILE.stat().st_size
        old = transform_shard(pipeline, (0, OLD_FILE.read_bytes()))
        new = transform_shard(pipeline, (0, new_file))
        assert minibatch_digest([old.batch]) == minibatch_digest([new.batch])

    def test_a_table_written_under_the_old_policy_reads_back(self):
        schema, data = small_table()
        with mock.patch.object(columnar, "default_encoding_policy", varint_policy):
            old_style = write_table(schema, data, row_group_size=16)
        default = write_table(schema, data, row_group_size=16)
        for buffer, sparse_codec in (
            (old_style, Encoding.VARINT), (default, Encoding.PACKED)
        ):
            reader = ColumnarFileReader(buffer)
            assert {
                chunk.encoding
                for chunk in reader.footer.chunks
                if chunk.column in schema.sparse_names
            } == {sparse_codec}
            assert_tables_equal(reader.read_columns(list(data)), data)

    def test_default_policy_is_static_per_kind(self):
        values = np.zeros(4, dtype=np.int64)
        assert default_encoding_policy(
            ColumnKind.SPARSE, PART_VALUES, values
        ) is Encoding.PACKED
        assert default_encoding_policy(
            ColumnKind.SPARSE, PART_LENGTHS, values
        ) is Encoding.PACKED
        assert default_encoding_policy(
            ColumnKind.LABEL, PART_VALUES, values
        ) is Encoding.RLE
        assert default_encoding_policy(
            ColumnKind.DENSE, PART_VALUES, values
        ) is Encoding.PLAIN


class TestFooterIndex:
    def test_chunks_for_equals_a_rescan(self):
        schema, data = small_table(num_rows=50)
        footer = ColumnarFileReader(
            write_table(schema, data, row_group_size=16)
        ).footer

        def rescan(column, part=None):
            found = [
                c for c in footer.chunks
                if c.column == column and (part is None or c.part == part)
            ]
            return sorted(found, key=lambda c: (c.row_group, c.part))

        for column in list(data) + ["no_such_column"]:
            for part in (None, PART_VALUES, PART_LENGTHS, "no_such_part"):
                assert footer.chunks_for(column, part) == rescan(column, part)
        assert footer.column_bytes("cat_0") == sum(
            c.size for c in rescan("cat_0")
        )
        # the answer is the caller's list: editing it does not edit the index
        footer.chunks_for("int_0", PART_VALUES).clear()
        assert len(footer.chunks_for("int_0", PART_VALUES)) == 4

    def test_index_is_invisible_to_json_and_equality(self):
        schema, data = small_table()
        footer = ColumnarFileReader(write_table(schema, data)).footer
        before = json.dumps(footer.to_json(), sort_keys=True)
        footer.chunks_for("int_0")  # builds the index
        assert json.dumps(footer.to_json(), sort_keys=True) == before
        assert FileFooter.from_json(footer.to_json()) == footer
        assert "_index" not in repr(footer)

    def test_row_group_reads_use_the_same_index(self):
        schema, data = small_table(num_rows=50)
        reader = ColumnarFileReader(write_table(schema, data, row_group_size=16))
        lengths, values = data["cat_1"]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        group = reader.read_row_group(2, ["cat_1", "int_0", "label"])
        np.testing.assert_array_equal(group["cat_1"][0], lengths[32:48])
        np.testing.assert_array_equal(
            group["cat_1"][1], values[offsets[32]:offsets[48]]
        )
        np.testing.assert_array_equal(group["int_0"], data["int_0"][32:48])
        with pytest.raises(FormatError):
            reader.read_row_group(1, ["no_such_column"])


def with_footer(buffer: bytes, edit) -> bytes:
    """``buffer`` with its footer JSON passed through ``edit`` and re-framed."""
    tail = len(MAGIC) + 4
    (footer_len,) = struct.unpack("<I", buffer[-tail:-len(MAGIC)])
    start = len(buffer) - tail - footer_len
    footer = json.loads(buffer[start:-tail])
    edit(footer)
    encoded = json.dumps(footer, separators=(",", ":")).encode()
    # the trailing magic is the buffer's own: row files frame a footer alike
    magic = buffer[-len(MAGIC):]
    return buffer[:start] + encoded + struct.pack("<I", len(encoded)) + magic


HOSTILE = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 9), max_size=1),
)


class TestDamagedFiles:
    SCHEMA, DATA = small_table(num_rows=24, seed=5)
    BUFFER = write_table(SCHEMA, DATA, row_group_size=16)
    NAMES = list(DATA)
    # the row file is long enough for the batched record scan
    ROW_DATA = small_table(num_rows=96, seed=5)[1]
    FORMATS = {
        "columnar": (ColumnarFileReader, BUFFER, DATA),
        "row": (RowFileReader, write_row_table(SCHEMA, ROW_DATA), ROW_DATA),
    }
    ON_BOTH_FORMATS = pytest.mark.parametrize("fmt", sorted(FORMATS))

    def read_or_typed_error(self, buffer: bytes, fmt: str = "columnar"):
        reader = self.FORMATS[fmt][0]
        try:
            return reader(buffer).read_columns(self.NAMES)
        except (FormatError, EncodingError):
            return None

    @ON_BOTH_FORMATS
    def test_undamaged(self, fmt):
        _, buffer, table = self.FORMATS[fmt]
        assert_tables_equal(self.read_or_typed_error(buffer, fmt), table)

    @ON_BOTH_FORMATS
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_byte_mutations(self, fmt, data):
        buffer = bytearray(self.FORMATS[fmt][1])
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(("flip", "set", "cut", "insert")))
            position = data.draw(st.integers(0, len(buffer) - 1))
            if kind == "flip":
                buffer[position] ^= 1 << data.draw(st.integers(0, 7))
            elif kind == "set":
                buffer[position] = data.draw(st.integers(0, 255))
            elif kind == "cut":
                del buffer[position:position + data.draw(st.integers(1, 64))]
            else:
                buffer[position:position] = data.draw(st.binary(max_size=8))
            if not buffer:
                break
        self.read_or_typed_error(bytes(buffer), fmt)

    @ON_BOTH_FORMATS
    def test_every_single_byte_of_the_footer_region(self, fmt):
        """Exhaustive over the part of the file no CRC covers."""
        original = self.FORMATS[fmt][1]
        tail = len(MAGIC) + 4
        (footer_len,) = struct.unpack("<I", original[-tail:-len(MAGIC)])
        for position in range(len(original) - tail - footer_len, len(original)):
            for value in (0x00, 0x2D, 0x2E, 0x30, 0x39, 0x65, 0x22, 0xFF):
                buffer = bytearray(original)
                buffer[position] = value
                self.read_or_typed_error(bytes(buffer), fmt)

    @given(
        st.integers(0, 10**6),
        st.sampled_from(
            ("column", "part", "row_group", "offset", "size", "num_values",
             "encoding")
        ),
        HOSTILE,
    )
    @settings(max_examples=400, deadline=None)
    def test_hostile_chunk_entries(self, which, field, value):
        def edit(footer):
            chunks = footer["chunks"]
            chunks[which % len(chunks)][field] = value

        self.read_or_typed_error(with_footer(self.BUFFER, edit))

    @ON_BOTH_FORMATS
    @given(st.data(), HOSTILE)
    @settings(max_examples=200, deadline=None)
    def test_hostile_footer_fields(self, fmt, data, value):
        def edit(footer):
            footer[data.draw(st.sampled_from(sorted(footer)))] = value

        self.read_or_typed_error(with_footer(self.FORMATS[fmt][1], edit), fmt)

    def test_chunk_past_the_end_and_before_the_start(self):
        for field, value in (
            ("offset", 10**9), ("size", 10**9), ("offset", -8), ("size", -1),
        ):
            def edit(footer, field=field, value=value):
                for chunk in footer["chunks"]:
                    chunk[field] = value

            with pytest.raises(FormatError):
                ColumnarFileReader(
                    with_footer(self.BUFFER, edit)
                ).read_columns(self.NAMES)

    @pytest.mark.parametrize(
        "column, part, codec",
        [("label", PART_VALUES, Encoding.RLE),
         ("cat_0", PART_LENGTHS, Encoding.PACKED)],
    )
    def test_chunk_declaring_a_huge_count(self, column, part, codec, monkeypatch):
        """A CRC-valid chunk whose header says 2**40 values over a constant
        payload (``PACKED`` width 0, one ``RLE`` run) would make the decoder
        ask numpy for terabytes; the reader refuses it on the footer's
        ``num_values`` before any decoding."""
        footer = ColumnarFileReader(self.BUFFER).footer
        entry = footer.chunks_for(column, part)[0]
        dtype = np.int8 if column == "label" else np.int32
        honest = encode_column(np.ones(entry.num_values, dtype=dtype), codec)

        def swapped(chunk: bytes) -> bytes:
            """``BUFFER`` with ``entry``'s chunk replaced and the footer's
            sizes and offsets moved to match."""
            grow = len(chunk) - entry.size

            def edit(footer):
                for item in footer["chunks"]:
                    if item["offset"] == entry.offset:
                        item["size"] = len(chunk)
                    elif item["offset"] > entry.offset:
                        item["offset"] += grow

            end = entry.offset + entry.size
            return with_footer(
                self.BUFFER[:entry.offset] + chunk + self.BUFFER[end:], edit
            )

        # the honest constant chunk reads back: the surgery itself is sound
        table = ColumnarFileReader(swapped(honest)).read_columns(self.NAMES)
        values = table[column][0] if part == PART_LENGTHS else table[column]
        assert values[:entry.num_values].tolist() == [1] * entry.num_values

        # same payload, header count 2**40 (RLE: one run of 2**40), CRC redone
        body = bytearray(honest[:2])
        write_uvarint(2**40, body)
        _, payload_at = read_uvarint(honest, 2)
        if codec is Encoding.RLE:
            write_uvarint(2, body)  # zig-zag of the value 1
            write_uvarint(2**40, body)
        else:
            body += honest[payload_at:-4]
        hostile = bytes(body) + struct.pack("<I", zlib.crc32(body))

        def must_not_decode(chunk):
            raise AssertionError("the hostile chunk reached the decoder")

        reader = ColumnarFileReader(swapped(hostile))
        monkeypatch.setattr(columnar.enc, "decode_column", must_not_decode)
        with pytest.raises(FormatError, match=f"declares {2**40} values"):
            reader.read_column(column)

