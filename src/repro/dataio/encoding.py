"""Column-chunk encodings for the columnar file format.

Five codecs, mirroring the encodings Parquet applies to RecSys feature data:

* ``PLAIN``       — raw little-endian array bytes.
* ``VARINT``      — LEB128 zig-zag varints; compact for columns of mostly
                    tiny values with rare huge ones.
* ``RLE``         — run-length encoding of (value, run) pairs; compact for
                    repetitive columns such as labels.
* ``DICTIONARY``  — value dictionary + fixed-width indices; compact for
                    low-cardinality categorical columns.
* ``PACKED``      — frame of reference + byte packing: every value is stored
                    as ``value - min`` in the fewest whole bytes the column's
                    range needs (0..8), as contiguous power-of-two byte
                    planes.  The codec of hashed sparse ids and jagged
                    lengths: fixed-width data stays fixed-width, so encode
                    and decode are whole-column copies.

Every encoded chunk is framed as::

    [codec:1][dtype-code:1][num-values:varint][payload...][crc32:4]

so a chunk is self-describing — a reader decodes whatever codec the header
names, whichever commit wrote it — and corruption is detected on decode:
the CRC is verified before anything is parsed, and every integer codec
refuses decoded values that do not fit the declared dtype.  The
Extract(Decode) latency that Figures 5 and 12 of the paper break out is the
cost of undoing exactly this kind of encoding.

Framing copies each payload byte once: :func:`encode_column` joins header,
payload buffers (the array's own memory for ``PLAIN``) and CRC in one pass,
and :func:`decode_column` works on a ``memoryview`` down to
``np.frombuffer``, the owned output array being the only copy.

The VARINT and RLE codecs are vectorized: whole columns are zig-zagged,
per-value byte widths computed with one ``searchsorted``, and the 7-bit
groups of every value scattered/gathered one byte-width class at a time
(:func:`encode_uvarints` / :func:`decode_uvarints`).  The element-at-a-time
implementations are kept as ``*_scalar`` references that property tests
cross-check byte-for-byte.
"""

from __future__ import annotations

import enum
import struct
import sys
import zlib
from typing import List, Tuple

import numpy as np

from repro.errors import EncodingError

_CRC_STRUCT = struct.Struct("<I")

# dtype codes used in the chunk header
_DTYPE_CODES = {
    np.dtype(np.int8): 0,
    np.dtype(np.int32): 1,
    np.dtype(np.int64): 2,
    np.dtype(np.float32): 3,
    np.dtype(np.float64): 4,
}
_CODES_DTYPE = {code: dtype for dtype, code in _DTYPE_CODES.items()}


class Encoding(enum.IntEnum):
    """Codec identifiers stored in the chunk header."""

    PLAIN = 0
    VARINT = 1
    RLE = 2
    DICTIONARY = 3
    PACKED = 4


# --------------------------------------------------------------------------
# varint primitives
# --------------------------------------------------------------------------


def _zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers onto unsigned so small magnitudes stay small."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    out = v << 1
    out ^= v >> 63
    return out.view(np.uint64)  # reinterpret bits; the xor result is the code


def _zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag_encode`."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    out = v >> np.uint64(1)
    out ^= np.uint64(0) - (v & np.uint64(1))
    return out.view(np.int64)


def write_uvarint(value: int, out: bytearray) -> None:
    """Append one unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read one unsigned LEB128 varint; return (value, new_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise EncodingError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift >= 70:  # an 11th byte would exceed the 10-byte uint64 limit
            raise EncodingError("varint too long")


# --------------------------------------------------------------------------
# batch varint primitives (vectorized)
# --------------------------------------------------------------------------

# smallest value needing k+1 LEB128 bytes, for k = 1..9
_UVARINT_THRESHOLDS = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64)))
_MAX_UVARINT_BYTES = 10  # ceil(64 / 7)
_MASK64_INT = (1 << 64) - 1
_SEVEN = np.uint64(7)
_LOW7 = np.uint64(0x7F)
_CONT = np.uint8(0x80)


def uvarint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte width of each value in an unsigned uint64 column."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    widths = np.searchsorted(_UVARINT_THRESHOLDS, v, side="right")
    widths += 1
    return widths


def encode_uvarints(values: np.ndarray) -> bytes:
    """Batch-encode a uint64 column as concatenated LEB128 varints.

    Equivalent to calling :func:`write_uvarint` per value, but computes the
    per-value byte widths up front and scatters the 7-bit groups of all
    values into one output buffer, one vectorized pass per group position.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    widths = uvarint_lengths(v)
    total = int(widths.sum())
    # int32 offsets halve the position-array traffic in the scatter loop;
    # columns whose encoding exceeds 2 GiB keep the int64 path
    offset_dtype = np.int32 if total < 2**31 else np.int64
    widths = widths.astype(offset_dtype, copy=False)
    ends = np.cumsum(widths, dtype=offset_dtype)
    starts = ends
    starts -= widths  # in place: 'ends' is not reused
    out = np.empty(total, dtype=np.uint8)
    scatter_uvarints(out, starts, v, widths)
    return out.tobytes()


def scatter_uvarints(
    out: np.ndarray,
    starts: np.ndarray,
    values: np.ndarray,
    widths: np.ndarray = None,
) -> None:
    """Write the LEB128 bytes of ``values`` into ``out`` at ``starts``.

    ``out`` is a uint8 buffer; ``starts[i]`` is the offset of the first byte
    of ``values[i]``.  Values are processed one byte-width class at a time:
    within a class every value has the same layout, so each of its byte
    positions is one shift/mask/scatter over the whole class — O(sum of
    distinct widths) numpy calls instead of O(total_values) Python
    iterations, with no per-element masking.
    """
    if widths is None:
        widths = uvarint_lengths(values)
    if not widths.size:
        return
    min_width = int(widths.min())
    max_width = int(widths.max())
    for width in range(min_width, max_width + 1):
        if min_width == max_width:  # uniform width: skip the class selection
            shifted = values.astype(np.uint64, copy=True)
            cursor = starts.copy()
        else:
            index = np.flatnonzero(widths == width)
            if not index.size:
                continue
            shifted = values[index]
            cursor = starts[index]
        # shift the class's values in place and truncate-cast the low 7 bits
        # into one reused uint8 buffer: no per-group uint64 temporaries
        low_bits = np.empty(len(shifted), dtype=np.uint8)
        for group in range(width):
            np.bitwise_and(shifted, _LOW7, out=low_bits, casting="unsafe")
            if group < width - 1:
                low_bits |= 0x80
            out[cursor] = low_bits
            if group < width - 1:
                shifted >>= _SEVEN
                cursor += 1


# SWAR compaction masks: squeeze the 7 payload bits of each little-endian
# byte lane of a uint64 together (8 bytes -> one 56-bit value) in 3 passes
_SWAR_M1 = np.uint64(0x7F007F007F007F00)
_SWAR_M1B = np.uint64(0x007F007F007F007F)
_SWAR_M2 = np.uint64(0x3FFF00003FFF0000)
_SWAR_M2B = np.uint64(0x00003FFF00003FFF)
_SWAR_M3 = np.uint64(0x0FFFFFFF00000000)
_SWAR_M3B = np.uint64(0x000000000FFFFFFF)
#: payload mask per byte width (widths 9/10 are handled bytewise)
_SWAR_WIDTH_MASK = np.array(
    [(1 << (7 * k)) - 1 for k in range(9)] + [0, 0], dtype=np.uint64
)
_LITTLE_ENDIAN = sys.byteorder == "little"


def _gather_uvarints_bytewise(
    buffer: np.ndarray,
    starts: np.ndarray,
    widths: np.ndarray,
    values: np.ndarray,
) -> None:
    """Per-width-class gather/shift/or decode into ``values`` (in place)."""
    min_width = int(widths.min())
    max_width = int(widths.max())
    if max_width > _MAX_UVARINT_BYTES:
        raise EncodingError("varint too long")
    for width in range(min_width, max_width + 1):
        if min_width == max_width:
            class_starts = starts
            target = values
        else:
            index = np.flatnonzero(widths == width)
            if not index.size:
                continue
            class_starts = starts[index]
            target = np.zeros(index.size, dtype=np.uint64)
        for group in range(width):
            chunk = (buffer[class_starts + group] & np.uint8(0x7F)).astype(np.uint64)
            if group == 9 and np.any(chunk > 1):
                raise EncodingError("varint overflows 64 bits")
            target |= chunk << np.uint64(7 * group)
        if min_width != max_width:
            values[index] = target


def gather_uvarints(
    buffer: np.ndarray, starts: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Decode varints at known positions of a uint8 buffer into uint64.

    The caller supplies the start offset and byte width of every varint
    (normally found by locating continuation-bit boundaries, see
    :func:`decode_uvarints`).  On little-endian hosts each varint of width
    <= 8 is fetched as one unaligned uint64 load and its 7-bit groups are
    compacted with three SWAR mask/shift passes over the whole column; 9-
    and 10-byte varints (and big-endian hosts) take the per-byte-width-class
    gather path.
    """
    count = len(starts)
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    max_width = int(widths.max())
    if max_width > _MAX_UVARINT_BYTES:
        raise EncodingError("varint too long")
    if int(widths.min()) < 1:
        raise EncodingError("varint widths must be positive")
    if not _LITTLE_ENDIAN:
        values = np.zeros(count, dtype=np.uint64)
        _gather_uvarints_bytewise(buffer, starts, widths, values)
        return values

    # every varint is read as 8 bytes; pad the tail so the last loads stay
    # in bounds (callers with trailing slack, e.g. a file footer, avoid this)
    buf = np.ascontiguousarray(buffer)
    highest = int(starts.max())
    if highest + 8 > len(buf):
        padded = np.empty(highest + 8, dtype=np.uint8)
        padded[: len(buf)] = buf
        padded[len(buf) :] = 0
        buf = padded
    u64 = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf.data, strides=(1,))
    x = u64[starts]
    x = ((x & _SWAR_M1) >> np.uint64(1)) | (x & _SWAR_M1B)
    x = ((x & _SWAR_M2) >> np.uint64(2)) | (x & _SWAR_M2B)
    x = ((x & _SWAR_M3) >> np.uint64(4)) | (x & _SWAR_M3B)
    x &= _SWAR_WIDTH_MASK[widths]
    values = x  # owned by the gather above; safe to patch wide slots below
    if max_width > 8:
        wide = np.flatnonzero(widths > 8)
        wide_values = np.zeros(len(wide), dtype=np.uint64)
        _gather_uvarints_bytewise(
            buffer, starts[wide], widths[wide], wide_values
        )
        values[wide] = wide_values
    return values


def decode_uvarints(
    payload: np.ndarray, count: int, terminators: np.ndarray = None
) -> np.ndarray:
    """Batch-decode ``count`` back-to-back LEB128 varints from a uint8 buffer.

    Varint boundaries are located by finding the bytes whose continuation
    bit is clear (``np.flatnonzero``); the payload must consist of exactly
    ``count`` varints with no trailing bytes.  Callers that already scanned
    the buffer can pass the terminator positions to skip the rescan.
    """
    buf = np.ascontiguousarray(payload, dtype=np.uint8)
    if terminators is None:
        terminators = np.flatnonzero(buf < _CONT)
    if len(terminators) != count:
        raise EncodingError(
            "truncated varint" if len(terminators) < count
            else "trailing bytes after varint payload"
        )
    if count == 0:
        if buf.size:
            raise EncodingError("trailing bytes after varint payload")
        return np.empty(0, dtype=np.uint64)
    if int(terminators[-1]) != buf.size - 1:
        raise EncodingError("truncated varint")
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = terminators[:-1] + 1
    return gather_uvarints(buf, starts, terminators - starts + 1)


# --------------------------------------------------------------------------
# per-codec payload encoders
# --------------------------------------------------------------------------


def _narrow(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Decoded int64 values as the chunk's declared dtype — or an error.

    Every integer codec ends here, so a CRC-valid chunk whose header names a
    dtype too narrow for its values is refused instead of wrapped.
    """
    if dtype.itemsize < values.dtype.itemsize and values.size:
        info = np.iinfo(dtype)
        low, high = int(values.min()), int(values.max())
        if low < info.min or high > info.max:
            raise EncodingError(
                f"decoded values [{low}, {high}] do not fit declared dtype {dtype}"
            )
    return values.astype(dtype, copy=False)


def _encode_plain(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values)  # the array's own memory is the payload


def _decode_plain(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    expected = count * dtype.itemsize
    if len(payload) != expected:
        raise EncodingError(
            f"plain payload is {len(payload)} bytes, expected {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).copy()


def _encode_varint(values: np.ndarray) -> bytes:
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError("varint encoding requires an integer column")
    return encode_uvarints(_zigzag_encode(values))


def _decode_varint(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    decoded = decode_uvarints(np.frombuffer(payload, dtype=np.uint8), count)
    return _narrow(_zigzag_decode(decoded), dtype)


def _encode_varint_scalar(values: np.ndarray) -> bytes:
    """Element-at-a-time reference implementation of VARINT encode."""
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError("varint encoding requires an integer column")
    out = bytearray()
    for value in _zigzag_encode(values).tolist():
        write_uvarint(value, out)
    return bytes(out)


def _decode_varint_scalar(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    """Element-at-a-time reference implementation of VARINT decode."""
    decoded = np.empty(count, dtype=np.uint64)
    offset = 0
    for i in range(count):
        raw, offset = read_uvarint(payload, offset)
        if raw > _MASK64_INT:
            raise EncodingError("varint overflows 64 bits")
        decoded[i] = raw
    if offset != len(payload):
        raise EncodingError("trailing bytes after varint payload")
    return _narrow(_zigzag_decode(decoded), dtype)


def _rle_runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(run_values int64, run_lengths int64) of a column's equal-value runs."""
    v = values.astype(np.int64, copy=False)
    change = np.flatnonzero(np.diff(v)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(v)]))
    return v[starts], ends - starts


def _encode_rle(values: np.ndarray) -> bytes:
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError("RLE encoding requires an integer column")
    if not len(values):
        return b""
    run_values, run_lengths = _rle_runs(values)
    # interleave (zigzag(value), run) pairs and varint-encode them in one batch
    interleaved = np.empty(2 * len(run_values), dtype=np.uint64)
    interleaved[0::2] = _zigzag_encode(run_values)
    interleaved[1::2] = run_lengths.astype(np.uint64)
    return encode_uvarints(interleaved)


def _decode_rle(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    buf = np.frombuffer(payload, dtype=np.uint8)
    terminators = np.flatnonzero(buf < _CONT)
    num_varints = len(terminators)
    if num_varints % 2:
        raise EncodingError("truncated varint")
    decoded = decode_uvarints(buf, num_varints, terminators)
    runs = decoded[1::2].astype(np.int64)
    if np.any(runs <= 0):
        raise EncodingError("zero-length RLE run")
    # exact Python-int sum: an int64 sum could wrap on crafted run lengths
    # and slip a huge np.repeat past the count check
    total = sum(runs.tolist())
    if total > count:
        raise EncodingError("RLE runs exceed declared value count")
    if total < count:
        raise EncodingError("truncated varint")
    values = _zigzag_decode(decoded[0::2])
    return _narrow(np.repeat(values, runs), dtype)


def _encode_rle_scalar(values: np.ndarray) -> bytes:
    """Run-at-a-time reference implementation of RLE encode."""
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError("RLE encoding requires an integer column")
    out = bytearray()
    if len(values):
        run_values, run_lengths = _rle_runs(values)
        for value, run in zip(run_values.tolist(), run_lengths.tolist()):
            write_uvarint(
                int(_zigzag_encode(np.array([value], dtype=np.int64))[0]), out
            )
            write_uvarint(run, out)
    return bytes(out)


def _decode_rle_scalar(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    """Run-at-a-time reference implementation of RLE decode."""
    out = np.empty(count, dtype=np.int64)
    offset = 0
    filled = 0
    while filled < count:
        raw, offset = read_uvarint(payload, offset)
        run, offset = read_uvarint(payload, offset)
        if raw > _MASK64_INT or run > _MASK64_INT:
            raise EncodingError("varint overflows 64 bits")
        if run == 0:
            raise EncodingError("zero-length RLE run")
        if filled + run > count:
            raise EncodingError("RLE runs exceed declared value count")
        value = int(_zigzag_decode(np.array([raw], dtype=np.uint64))[0])
        out[filled : filled + run] = value
        filled += run
    if offset != len(payload):
        raise EncodingError("trailing bytes after RLE payload")
    return _narrow(out, dtype)


def _encode_dictionary(values: np.ndarray) -> bytes:
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError("dictionary encoding requires an integer column")
    uniques, indices = np.unique(values, return_inverse=True)
    if len(uniques) > np.iinfo(np.uint32).max:
        raise EncodingError("dictionary cardinality exceeds uint32 index space")
    out = bytearray()
    write_uvarint(len(uniques), out)
    out += uniques.astype(np.int64).tobytes()
    out += indices.astype(np.uint32).tobytes()
    return bytes(out)


def _decode_dictionary(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    cardinality, offset = read_uvarint(payload, 0)
    dict_bytes = cardinality * 8
    index_bytes = count * 4
    if len(payload) != offset + dict_bytes + index_bytes:
        raise EncodingError("dictionary payload size mismatch")
    uniques = np.frombuffer(payload, dtype=np.int64, count=cardinality, offset=offset)
    indices = np.frombuffer(
        payload, dtype=np.uint32, count=count, offset=offset + dict_bytes
    )
    if len(uniques) == 0:
        if count:
            raise EncodingError("empty dictionary with non-zero value count")
        return np.empty(0, dtype=dtype)
    if indices.size and indices.max() >= cardinality:
        raise EncodingError("dictionary index out of range")
    return _narrow(uniques[indices], dtype)


_PACKED_HEAD = struct.Struct("<Bq")  # byte width, reference value


def _packed_planes(width: int) -> Tuple[Tuple[int, int], ...]:
    """(byte offset, byte size) of each plane of a ``width``-byte value:
    power-of-two sizes, low bytes first (5 = 4+1, 7 = 4+2+1, 8 = 4+4)."""
    planes, offset = [], 0
    for size in (4, 4, 2, 1):
        if width - offset >= size:
            planes.append((offset, size))
            offset += size
    return tuple(planes)


_PACKED_PLANES = tuple(_packed_planes(width) for width in range(9))


def _packed_lane(words: np.ndarray, offset: int, size: int) -> np.ndarray:
    """Strided view of bytes [offset, offset+size) of every 8-byte LE word.

    Plane offsets are multiples of their size, so a plane is one column of
    the words seen as ``8 // size`` little-endian lanes.
    """
    return words.view(f"<u{size}").reshape(-1, 8 // size)[:, offset // size]


def _encode_packed(values: np.ndarray) -> List[bytes]:
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError("packed encoding requires an integer column")
    if not len(values):
        return [_PACKED_HEAD.pack(0, 0)]
    reference, highest = int(values.min()), int(values.max())
    width = ((highest - reference).bit_length() + 7) // 8
    # (value - reference) mod 2^64: int64 array arithmetic wraps, which is
    # what makes ranges >= 2^63 round-trip
    deltas = np.subtract(values, np.int64(reference), dtype=np.int64)
    deltas = deltas.astype("<i8", copy=False)  # a no-op on little-endian hosts
    return [_PACKED_HEAD.pack(width, reference)] + [
        np.ascontiguousarray(_packed_lane(deltas, offset, size))
        for offset, size in _PACKED_PLANES[width]
    ]


def _decode_packed(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    if len(payload) < _PACKED_HEAD.size:
        raise EncodingError("truncated packed header")
    width, reference = _PACKED_HEAD.unpack_from(payload)
    if width > 8:
        raise EncodingError(f"packed width {width} exceeds 8 bytes")
    expected = _PACKED_HEAD.size + count * width
    if len(payload) != expected:
        raise EncodingError(
            f"packed payload is {len(payload)} bytes, expected {expected}"
        )
    words = np.zeros(count, dtype="<u8")  # width 0 has no planes: all reference
    for offset, size in _PACKED_PLANES[width]:
        _packed_lane(words, offset, size)[:] = np.frombuffer(
            payload,
            dtype=f"<u{size}",
            count=count,
            offset=_PACKED_HEAD.size + offset * count,
        )
    words += np.uint64(reference & _MASK64_INT)  # wraps, undoing the encoder
    return _narrow(words.view("<i8"), dtype)


_ENCODERS = {
    Encoding.PLAIN: _encode_plain,
    Encoding.VARINT: _encode_varint,
    Encoding.RLE: _encode_rle,
    Encoding.DICTIONARY: _encode_dictionary,
    Encoding.PACKED: _encode_packed,
}
_DECODERS = {
    Encoding.PLAIN: _decode_plain,
    Encoding.VARINT: _decode_varint,
    Encoding.RLE: _decode_rle,
    Encoding.DICTIONARY: _decode_dictionary,
    Encoding.PACKED: _decode_packed,
}


# --------------------------------------------------------------------------
# public chunk API
# --------------------------------------------------------------------------


def encode_column(values: np.ndarray, encoding: Encoding) -> bytes:
    """Encode a 1-D array as a framed, CRC-protected column chunk."""
    if values.ndim != 1:
        raise EncodingError(f"column chunks are 1-D, got shape {values.shape}")
    dtype = np.dtype(values.dtype)
    if dtype not in _DTYPE_CODES:
        raise EncodingError(f"unsupported column dtype {dtype}")
    if encoding not in _ENCODERS:
        raise EncodingError(f"unknown encoding {encoding!r}")
    if encoding is not Encoding.PLAIN and not np.issubdtype(dtype, np.integer):
        raise EncodingError(f"{encoding.name} requires integers, got {dtype}")

    header = bytearray((int(encoding), _DTYPE_CODES[dtype]))
    write_uvarint(len(values), header)
    payload = _ENCODERS[encoding](values)  # one buffer, or a list of them
    parts = [header, *payload] if isinstance(payload, list) else [header, payload]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC_STRUCT.pack(crc))
    return b"".join(parts)  # the one copy of the payload bytes


def decode_column(chunk: bytes) -> np.ndarray:
    """Decode one framed column chunk produced by :func:`encode_column`.

    ``chunk`` may be any bytes-like object; it is only ever sliced as a
    ``memoryview``, and the returned array owns its memory.
    """
    view = memoryview(chunk)
    if len(view) < 2 + _CRC_STRUCT.size:
        raise EncodingError("chunk too short")
    body = view[: -_CRC_STRUCT.size]
    (stored_crc,) = _CRC_STRUCT.unpack(view[-_CRC_STRUCT.size :])
    if zlib.crc32(body) != stored_crc:
        raise EncodingError("chunk CRC mismatch (corrupt data)")
    try:
        encoding = Encoding(body[0])
    except ValueError:
        raise EncodingError(f"unknown encoding byte {body[0]}") from None
    try:
        dtype = _CODES_DTYPE[body[1]]
    except KeyError:
        raise EncodingError(f"unknown dtype code {body[1]}") from None
    if encoding is not Encoding.PLAIN and not np.issubdtype(dtype, np.integer):
        raise EncodingError(f"{encoding.name} requires integers, got {dtype}")
    count, offset = read_uvarint(body, 2)
    return _DECODERS[encoding](body[offset:], dtype, count)
