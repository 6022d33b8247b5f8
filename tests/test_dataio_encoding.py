"""Unit and property tests for the column-chunk encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataio.encoding import (
    Encoding,
    _decode_rle,
    _decode_rle_scalar,
    _decode_varint,
    _decode_varint_scalar,
    _encode_rle,
    _encode_rle_scalar,
    _encode_varint,
    _encode_varint_scalar,
    decode_column,
    decode_uvarints,
    encode_column,
    encode_uvarints,
    read_uvarint,
    uvarint_lengths,
    write_uvarint,
)
from repro.errors import EncodingError


class TestVarintPrimitives:
    def test_roundtrip_small(self):
        buf = bytearray()
        write_uvarint(0, buf)
        write_uvarint(127, buf)
        write_uvarint(128, buf)
        value, offset = read_uvarint(bytes(buf), 0)
        assert value == 0
        value, offset = read_uvarint(bytes(buf), offset)
        assert value == 127
        value, offset = read_uvarint(bytes(buf), offset)
        assert value == 128
        assert offset == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            write_uvarint(-1, bytearray())

    def test_truncated_varint(self):
        with pytest.raises(EncodingError):
            read_uvarint(b"\x80", 0)

    def test_overlong_varint(self):
        with pytest.raises(EncodingError):
            read_uvarint(b"\x80" * 11 + b"\x01", 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        buf = bytearray()
        write_uvarint(value, buf)
        decoded, offset = read_uvarint(bytes(buf), 0)
        assert decoded == value
        assert offset == len(buf)


class TestCodecRoundtrips:
    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_int64_roundtrip(self, encoding):
        values = np.array([0, 1, -5, 1 << 40, -(1 << 40), 7, 7, 7], dtype=np.int64)
        decoded = decode_column(encode_column(values, encoding))
        np.testing.assert_array_equal(decoded, values)
        assert decoded.dtype == np.int64

    def test_plain_float32(self):
        values = np.array([1.5, -2.25, np.nan, 0.0], dtype=np.float32)
        decoded = decode_column(encode_column(values, Encoding.PLAIN))
        np.testing.assert_array_equal(
            np.nan_to_num(decoded, nan=-1), np.nan_to_num(values, nan=-1)
        )

    def test_empty_column(self):
        for encoding in Encoding:
            values = np.array([], dtype=np.int64)
            decoded = decode_column(encode_column(values, encoding))
            assert len(decoded) == 0

    def test_int8_labels_rle(self):
        labels = np.array([0] * 100 + [1] * 3 + [0] * 50, dtype=np.int8)
        chunk = encode_column(labels, Encoding.RLE)
        assert len(chunk) < labels.nbytes  # RLE actually compresses runs
        np.testing.assert_array_equal(decode_column(chunk), labels)

    def test_varint_compresses_small_ids(self):
        values = np.arange(1000, dtype=np.int64) % 100
        assert len(encode_column(values, Encoding.VARINT)) < len(
            encode_column(values, Encoding.PLAIN)
        )

    def test_dictionary_compresses_low_cardinality(self):
        values = np.array([123456789] * 500 + [987654321] * 500, dtype=np.int64)
        assert len(encode_column(values, Encoding.DICTIONARY)) < len(
            encode_column(values, Encoding.PLAIN)
        )

    @given(
        st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=200),
        st.sampled_from(list(Encoding)),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values, encoding):
        column = np.array(values, dtype=np.int64)
        decoded = decode_column(encode_column(column, encoding))
        np.testing.assert_array_equal(decoded, column)


#: edge-case columns shared by the vectorized-vs-scalar identity tests
_EDGE_COLUMNS = [
    np.array([], dtype=np.int64),
    np.array([0], dtype=np.int64),
    np.array([-1], dtype=np.int64),
    np.array([127, 128, -127, -128], dtype=np.int64),  # 1/2-byte boundary
    np.array([2**62, -(2**62)], dtype=np.int64),
    np.array(
        [np.iinfo(np.int64).max, np.iinfo(np.int64).min], dtype=np.int64
    ),  # 2^63 boundaries -> 10-byte varints
    np.array([5, 5, 5, 5], dtype=np.int64),  # one long run
    np.array([1, 2, 3, 4], dtype=np.int64),  # single-element runs
    np.array([-3] * 100 + [7] + [-3] * 50, dtype=np.int64),
    np.arange(-5, 5, dtype=np.int8),
    np.arange(-300, 300, dtype=np.int32),
]
_EDGE_IDS = [f"edge{i}" for i in range(len(_EDGE_COLUMNS))]


class TestVectorizedMatchesScalar:
    """The numpy batch codecs must be byte-identical to the scalar paths."""

    @pytest.mark.parametrize("column", _EDGE_COLUMNS, ids=_EDGE_IDS)
    def test_varint_encode_identical(self, column):
        assert _encode_varint(column) == _encode_varint_scalar(column)

    @pytest.mark.parametrize("column", _EDGE_COLUMNS, ids=_EDGE_IDS)
    def test_varint_decode_identical(self, column):
        payload = _encode_varint_scalar(column)
        vectorized = _decode_varint(payload, column.dtype, len(column))
        scalar = _decode_varint_scalar(payload, column.dtype, len(column))
        np.testing.assert_array_equal(vectorized, scalar)
        assert vectorized.dtype == scalar.dtype

    @pytest.mark.parametrize("column", _EDGE_COLUMNS, ids=_EDGE_IDS)
    def test_rle_encode_identical(self, column):
        assert _encode_rle(column) == _encode_rle_scalar(column)

    @pytest.mark.parametrize("column", _EDGE_COLUMNS, ids=_EDGE_IDS)
    def test_rle_decode_identical(self, column):
        payload = _encode_rle_scalar(column)
        vectorized = _decode_rle(payload, column.dtype, len(column))
        scalar = _decode_rle_scalar(payload, column.dtype, len(column))
        np.testing.assert_array_equal(vectorized, scalar)
        assert vectorized.dtype == scalar.dtype

    @given(
        st.lists(
            st.integers(
                min_value=np.iinfo(np.int64).min, max_value=np.iinfo(np.int64).max
            ),
            max_size=300,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_varint_identity_property(self, values):
        column = np.array(values, dtype=np.int64)
        payload = _encode_varint(column)
        assert payload == _encode_varint_scalar(column)
        np.testing.assert_array_equal(
            _decode_varint(payload, column.dtype, len(column)),
            _decode_varint_scalar(payload, column.dtype, len(column)),
        )

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), max_size=60),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_rle_identity_property(self, run_values, max_run):
        rng = np.random.default_rng(abs(hash(tuple(run_values))) % 2**32)
        runs = rng.integers(1, max_run + 1, len(run_values))
        column = np.repeat(np.array(run_values, dtype=np.int64), runs)
        payload = _encode_rle(column)
        assert payload == _encode_rle_scalar(column)
        np.testing.assert_array_equal(
            _decode_rle(payload, column.dtype, len(column)),
            _decode_rle_scalar(payload, column.dtype, len(column)),
        )

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_uvarint_batch_matches_scalar(self, values):
        column = np.array(values, dtype=np.uint64)
        buf = bytearray()
        for value in values:
            write_uvarint(value, buf)
        payload = encode_uvarints(column)
        assert payload == bytes(buf)
        np.testing.assert_array_equal(
            decode_uvarints(np.frombuffer(payload, dtype=np.uint8), len(values)),
            column,
        )

    def test_uvarint_lengths_match_scalar(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**63, 500, dtype=np.uint64)
        values[:10] = [0, 1, 127, 128, 2**14 - 1, 2**14, 2**63 - 1, 2, 3, 4]
        for value, width in zip(values.tolist(), uvarint_lengths(values).tolist()):
            buf = bytearray()
            write_uvarint(value, buf)
            assert len(buf) == width

    def test_vectorized_decode_rejects_trailing_bytes(self):
        payload = _encode_varint(np.array([1, 2, 3], dtype=np.int64))
        with pytest.raises(EncodingError, match="trailing"):
            _decode_varint(payload, np.dtype(np.int64), 2)

    def test_vectorized_decode_rejects_truncation(self):
        with pytest.raises(EncodingError):
            _decode_varint(b"\x80", np.dtype(np.int64), 1)

    def test_vectorized_decode_rejects_overlong_varint(self):
        with pytest.raises(EncodingError, match="too long"):
            _decode_varint(b"\x80" * 10 + b"\x01", np.dtype(np.int64), 1)

    def test_vectorized_rle_rejects_zero_run(self):
        # pairs: (value=0, run=0)
        with pytest.raises(EncodingError, match="zero-length"):
            _decode_rle(b"\x00\x00", np.dtype(np.int64), 4)

    def test_vectorized_rle_rejects_overflowing_runs(self):
        payload = _encode_rle(np.array([7, 7, 7], dtype=np.int64))
        with pytest.raises(EncodingError, match="exceed"):
            _decode_rle(payload, np.dtype(np.int64), 2)

    def test_rle_rejects_runs_that_wrap_int64(self):
        # crafted run lengths summing to count modulo 2^64 must not slip a
        # huge np.repeat past validation (previously a hard crash)
        payload = bytearray()
        for _ in range(4):
            write_uvarint(0, payload)  # value
            write_uvarint(2**62, payload)  # run
        write_uvarint(0, payload)
        write_uvarint(5, payload)
        with pytest.raises(EncodingError, match="exceed"):
            _decode_rle(bytes(payload), np.dtype(np.int64), 5)

    def test_scalar_decoders_reject_uint64_overflow(self):
        # a 10-byte varint whose top byte carries bits above 2^64
        payload = bytes([0xFF] * 9 + [0x7F])
        with pytest.raises(EncodingError, match="overflows"):
            _decode_varint_scalar(payload, np.dtype(np.int64), 1)
        with pytest.raises(EncodingError):
            _decode_varint(payload, np.dtype(np.int64), 1)

    def test_read_uvarint_caps_at_ten_bytes(self):
        with pytest.raises(EncodingError, match="too long"):
            read_uvarint(b"\x80" * 10 + b"\x00", 0)


class TestFramingAndErrors:
    def test_crc_detects_corruption(self):
        chunk = bytearray(encode_column(np.arange(100, dtype=np.int64), Encoding.PLAIN))
        chunk[10] ^= 0xFF
        with pytest.raises(EncodingError, match="CRC"):
            decode_column(bytes(chunk))

    def test_too_short_chunk(self):
        with pytest.raises(EncodingError, match="too short"):
            decode_column(b"\x00\x01")

    def test_unknown_encoding_byte(self):
        chunk = bytearray(encode_column(np.arange(4, dtype=np.int64), Encoding.PLAIN))
        # flip the codec byte and fix the CRC by re-encoding manually
        import struct
        import zlib

        body = bytes([99]) + bytes(chunk[1:-4])
        crc = zlib.crc32(body) & 0xFFFFFFFF
        with pytest.raises(EncodingError, match="unknown encoding"):
            decode_column(body + struct.pack("<I", crc))

    def test_non_integer_rle_rejected(self):
        with pytest.raises(EncodingError):
            encode_column(np.zeros(4, dtype=np.float32), Encoding.RLE)

    def test_2d_rejected(self):
        with pytest.raises(EncodingError):
            encode_column(np.zeros((2, 2), dtype=np.int64), Encoding.PLAIN)

    def test_unsupported_dtype(self):
        with pytest.raises(EncodingError):
            encode_column(np.zeros(4, dtype=np.uint16), Encoding.PLAIN)
