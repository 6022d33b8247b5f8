"""The PACKED codec, and what every decoder does with a wrong chunk.

Round trips are checked against a pure-Python reference encoder written
from the documented layout (``[width:1][reference:int64]`` + power-of-two
byte planes, low bytes first), so the bytes are pinned, not only the
inverse.  Corrupt chunks — CRC-valid ones included — must raise
:class:`EncodingError` and nothing else.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataio.encoding import (
    Encoding,
    _decode_packed,
    _encode_packed,
    decode_column,
    encode_column,
    write_uvarint,
)
from repro.errors import EncodingError

INT_DTYPES = (np.int8, np.int32, np.int64)
DTYPE_CODE = {np.int8: 0, np.int32: 1, np.int64: 2, np.float32: 3, np.float64: 4}
INTEGER_CODECS = (
    Encoding.VARINT, Encoding.RLE, Encoding.DICTIONARY, Encoding.PACKED
)


def reference_packed(values) -> bytes:
    """Element-at-a-time PACKED payload, straight from the format text."""
    values = [int(v) for v in values]
    if not values:
        return struct.pack("<Bq", 0, 0)
    low = min(values)
    width = ((max(values) - low).bit_length() + 7) // 8
    deltas = [(v - low) % 2**64 for v in values]
    out = bytearray(struct.pack("<Bq", width, low))
    offset = 0
    for size in (4, 4, 2, 1):
        if width - offset >= size:
            for delta in deltas:
                out += ((delta >> (8 * offset)) % 2 ** (8 * size)).to_bytes(
                    size, "little"
                )
            offset += size
    assert offset == width
    return bytes(out)


def frame(codec: int, dtype_code: int, count: int, payload: bytes) -> bytes:
    """A CRC-valid chunk around an arbitrary payload."""
    body = bytearray((codec, dtype_code))
    write_uvarint(count, body)
    body += payload
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def reframe(chunk: bytes, **changes) -> bytes:
    """``chunk`` with its codec / dtype byte replaced and the CRC redone."""
    body = bytearray(chunk[:-4])
    body[0] = changes.get("codec", body[0])
    body[1] = changes.get("dtype_code", body[1])
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def check_roundtrip(column: np.ndarray) -> None:
    parts = _encode_packed(column)
    payload = b"".join(parts)
    assert payload == reference_packed(column.tolist())
    decoded = decode_column(encode_column(column, Encoding.PACKED))
    assert decoded.dtype == column.dtype
    np.testing.assert_array_equal(decoded, column)
    assert decoded.flags.writeable  # owned, not a view of the chunk


@st.composite
def packed_columns(draw):
    """A column of a drawn dtype whose range needs exactly a drawn width."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    width = draw(st.integers(0, np.dtype(dtype).itemsize))
    if width == 0:
        span = 0
    else:
        span = draw(st.integers(2 ** (8 * (width - 1)), 2 ** (8 * width) - 1))
        span = min(span, info.max - info.min)
    reference = draw(st.integers(info.min, info.max - span))
    inner = draw(
        st.lists(st.integers(reference, reference + span), max_size=40)
    )
    values = [reference, reference + span] + inner
    order = draw(st.permutations(range(len(values))))
    return np.array([values[i] for i in order], dtype=dtype), width


class TestPackedRoundTrip:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_empty(self, dtype):
        column = np.array([], dtype=dtype)
        check_roundtrip(column)
        assert b"".join(_encode_packed(column)) == struct.pack("<Bq", 0, 0)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_constant_column_is_nine_bytes(self, dtype):
        column = np.full(1000, -7, dtype=dtype)
        check_roundtrip(column)
        assert b"".join(_encode_packed(column)) == struct.pack("<Bq", 0, -7)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_width(self, width):
        top = 2 ** (8 * width) - 1
        for reference in (0, -12345, np.iinfo(np.int64).min):
            high = min(reference + top, np.iinfo(np.int64).max)
            # the smallest and the largest range that need this many bytes
            for span in (2 ** (8 * (width - 1)), high - reference):
                column = np.array(
                    [reference + span, reference, reference + span // 3],
                    dtype=np.int64,
                )
                check_roundtrip(column)
                payload = b"".join(_encode_packed(column))
                assert payload[0] == width
                assert len(payload) == 9 + width * len(column)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_dtype_extremes(self, dtype):
        info = np.iinfo(dtype)
        check_roundtrip(np.array([info.max, info.min, 0, -1, 1], dtype=dtype))

    def test_range_beyond_int63_wraps_and_returns(self):
        info = np.iinfo(np.int64)
        column = np.array([info.min, info.max, -1, 0, info.max - 1], np.int64)
        assert int(column.max()) - int(column.min()) >= 2**63
        check_roundtrip(column)

    def test_non_contiguous_input(self):
        base = np.arange(-500, 500, dtype=np.int64) * 1_000_003
        for column in (base[::3], base[::-1], base[5:-5:7]):
            assert not column.flags.c_contiguous
            check_roundtrip(column)

    def test_hashed_ids_take_five_bytes(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 2**40, 5000).astype(np.int64)
        packed = len(encode_column(ids, Encoding.PACKED))
        assert packed <= 5 * len(ids) + 9 + 8
        assert packed < len(encode_column(ids, Encoding.VARINT))

    @given(packed_columns())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, drawn):
        column, width = drawn
        check_roundtrip(column)
        assert b"".join(_encode_packed(column))[0] == width

    def test_float_columns_are_refused(self):
        with pytest.raises(EncodingError, match="PACKED requires integers"):
            encode_column(np.zeros(4, dtype=np.float32), Encoding.PACKED)
        with pytest.raises(EncodingError):
            _encode_packed(np.zeros(4, dtype=np.float64))


class TestCorruptChunks:
    """Only ``EncodingError`` may come out of ``decode_column``."""

    CHUNK = encode_column(
        np.arange(1000, 1100, dtype=np.int64) * 65537, Encoding.PACKED
    )

    def test_truncated_head(self):
        for length in range(9):
            with pytest.raises(EncodingError, match="truncated packed header"):
                decode_column(frame(Encoding.PACKED, 2, 3, b"\x01" * length))

    def test_width_nine(self):
        payload = struct.pack("<Bq", 9, 0) + bytes(9 * 4)
        with pytest.raises(EncodingError, match="width 9"):
            decode_column(frame(Encoding.PACKED, 2, 4, payload))

    @pytest.mark.parametrize("delta", (-1, 1, 100))
    def test_payload_size_mismatch(self, delta):
        payload = struct.pack("<Bq", 2, 5) + bytes(2 * 10 + delta)
        with pytest.raises(EncodingError, match="packed payload is"):
            decode_column(frame(Encoding.PACKED, 2, 10, payload))
        # a constant column carries no bytes beyond the head
        with pytest.raises(EncodingError, match="packed payload is"):
            decode_column(
                frame(Encoding.PACKED, 2, 10, struct.pack("<Bq", 0, 5) + b"\0")
            )

    def test_flipped_crc_and_flipped_payload(self):
        for position in (0, 1, 2, 20, len(self.CHUNK) - 1):
            chunk = bytearray(self.CHUNK)
            chunk[position] ^= 0x10
            with pytest.raises(EncodingError, match="CRC"):
                decode_column(bytes(chunk))

    @pytest.mark.parametrize("codec", INTEGER_CODECS)
    def test_values_too_wide_for_the_declared_dtype(self, codec):
        # the silent-wrong decode: [300] under an int8 header came back as 44
        for values, dtype in (
            ([300, 0, -200], np.int8),
            ([2**31, 5], np.int32),
            ([-(2**31) - 1], np.int32),
        ):
            chunk = encode_column(np.array(values, dtype=np.int64), codec)
            lying = reframe(chunk, dtype_code=DTYPE_CODE[dtype])
            with pytest.raises(EncodingError, match="do not fit declared dtype"):
                decode_column(lying)

    @pytest.mark.parametrize("codec", INTEGER_CODECS)
    def test_values_that_do_fit_a_narrower_dtype_still_decode(self, codec):
        chunk = encode_column(np.array([-128, 127, 0], dtype=np.int64), codec)
        decoded = decode_column(reframe(chunk, dtype_code=DTYPE_CODE[np.int8]))
        assert decoded.dtype == np.int8
        assert decoded.tolist() == [-128, 127, 0]

    @pytest.mark.parametrize("codec", INTEGER_CODECS)
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_integer_codec_with_a_float_header(self, codec, dtype):
        chunk = encode_column(np.array([1, 2, 3], dtype=np.int64), codec)
        with pytest.raises(EncodingError, match="requires integers"):
            decode_column(reframe(chunk, dtype_code=DTYPE_CODE[dtype]))

    def test_direct_decoder_checks_match(self):
        with pytest.raises(EncodingError):
            _decode_packed(b"", np.dtype(np.int64), 0)
        with pytest.raises(EncodingError):
            _decode_packed(struct.pack("<Bq", 1, 0), np.dtype(np.int64), 1)

    @given(
        st.sampled_from(list(Encoding)),
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_under_a_valid_crc(self, codec, values, data):
        """Garbage the CRC vouches for reaches the decoders themselves.

        Only payload bytes move (the value count in the header stays), so
        no mutation can ask for more memory than the chunk is long.
        """
        column = np.array(values, dtype=np.int64)
        chunk = bytearray(encode_column(column, codec)[:-4])
        head = 3  # codec, dtype, one-byte count (fewer than 128 values)
        positions = data.draw(
            st.lists(st.integers(head, len(chunk) - 1), min_size=1, max_size=4)
        )
        for position in positions:
            chunk[position] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            del chunk[data.draw(st.integers(head, len(chunk))):]
        mutated = bytes(chunk) + struct.pack("<I", zlib.crc32(bytes(chunk)))
        try:
            decoded = decode_column(mutated)
        except EncodingError:
            return
        assert decoded.dtype == np.int64 and len(decoded) == len(column)
