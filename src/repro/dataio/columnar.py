"""A self-contained columnar file format (the reproduction's "Parquet").

File layout::

    +--------+----------------------+----------------------+-----+--------+
    | magic  | row group 0 chunks   | row group 1 chunks   | ... | footer |
    +--------+----------------------+----------------------+-----+--------+

* Column data is stored one *chunk* per (row group, column part); dense and
  label columns have a single ``values`` part, sparse columns have a
  ``lengths`` part (int32, one per row) and a ``values`` part (int64 ids).
* Each chunk is framed and CRC-protected by :mod:`repro.dataio.encoding`,
  and names its own codec: :func:`default_encoding_policy` decides what new
  files hold, the reader decodes whatever the chunk says, so files written
  under an older policy, in any of the five codecs, stay readable.
* The footer is a JSON document describing the schema and every chunk's
  (offset, size), followed by its byte length and the trailing magic, so a
  reader can locate and decode any column *selectively* — the property the
  paper's Extract phase depends on (Section II-B).
* The file layer copies each payload byte once each way: the writer joins
  the encoded chunks in one pass, and the reader hands each chunk to the
  decoder as a ``memoryview`` of the file buffer.

In-memory column data is exchanged as a dict:

* dense/label column -> 1-D ``np.ndarray``
* sparse column      -> ``(lengths, values)`` tuple of 1-D arrays
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataio import encoding as enc
from repro.dataio.schema import ColumnKind, TableSchema
from repro.errors import FormatError, SchemaError, is_int

MAGIC = b"PRST1\n"
_FOOTER_LEN = struct.Struct("<I")

ColumnData = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
TableData = Dict[str, ColumnData]

#: part names inside a row group
PART_VALUES = "values"
PART_LENGTHS = "lengths"


@dataclass(frozen=True)
class ColumnChunk:
    """Footer entry locating one encoded chunk inside the file."""

    column: str
    part: str
    row_group: int
    offset: int
    size: int
    num_values: int
    encoding: enc.Encoding

    def to_json(self) -> dict:
        return {
            "column": self.column,
            "part": self.part,
            "row_group": self.row_group,
            "offset": self.offset,
            "size": self.size,
            "num_values": self.num_values,
            "encoding": int(self.encoding),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ColumnChunk":
        chunk = cls(
            column=obj["column"],
            part=obj["part"],
            row_group=obj["row_group"],
            offset=obj["offset"],
            size=obj["size"],
            num_values=obj["num_values"],
            encoding=enc.Encoding(obj["encoding"]),
        )
        # the footer is outside every CRC: a damaged entry must not reach
        # the index or a slice as a float, a string or a negative number
        counts = (chunk.row_group, chunk.offset, chunk.size, chunk.num_values)
        if not (
            isinstance(chunk.column, str)
            and isinstance(chunk.part, str)
            and all(is_int(n) and n >= 0 for n in counts)
        ):
            raise ValueError(f"malformed chunk entry {obj!r}")
        return chunk


@dataclass
class FileFooter:
    """Decoded footer: schema description, row counts, and chunk index."""

    dense_names: List[str]
    sparse_names: List[str]
    label_name: str
    num_rows: int
    row_group_rows: List[int]
    chunks: List[ColumnChunk]

    @functools.cached_property
    def _index(self) -> Dict[Tuple[str, str], List[ColumnChunk]]:
        """(column, part) -> chunks in row-group order, built on first use
        (not a field: serialization and equality do not see it)."""
        index: Dict[Tuple[str, str], List[ColumnChunk]] = {}
        for chunk in sorted(self.chunks, key=lambda c: c.row_group):
            index.setdefault((chunk.column, chunk.part), []).append(chunk)
        return index

    def chunks_for(self, column: str, part: Optional[str] = None) -> List[ColumnChunk]:
        """All chunks of ``column`` (optionally one part), in row-group order."""
        if part is not None:
            return list(self._index.get((column, part), ()))
        found = [
            chunk
            for (name, _part), chunks in self._index.items()
            if name == column
            for chunk in chunks
        ]
        found.sort(key=lambda c: (c.row_group, c.part))
        return found

    def column_bytes(self, column: str) -> int:
        """Total encoded bytes of one column across all row groups."""
        return sum(c.size for c in self.chunks_for(column))

    def to_json(self) -> dict:
        return {
            "dense": self.dense_names,
            "sparse": self.sparse_names,
            "label": self.label_name,
            "num_rows": self.num_rows,
            "row_group_rows": self.row_group_rows,
            "chunks": [c.to_json() for c in self.chunks],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FileFooter":
        return cls(
            dense_names=list(obj["dense"]),
            sparse_names=list(obj["sparse"]),
            label_name=obj["label"],
            num_rows=obj["num_rows"],
            row_group_rows=list(obj["row_group_rows"]),
            chunks=[ColumnChunk.from_json(c) for c in obj["chunks"]],
        )


def default_encoding_policy(kind: ColumnKind, part: str, values: np.ndarray) -> enc.Encoding:
    """Static codec choice per column kind — no per-chunk size contest.

    Labels are long runs of 0/1 -> RLE; dense floats are PLAIN; sparse
    lengths and ids are PACKED: hashed ids are uniform over their id space
    and jagged lengths span a few values, i.e. fixed-width data, which
    frame-of-reference byte packing stores in the bytes its range needs at
    copy speed.  (LEB128 ``VARINT``, the default of earlier commits, only
    wins on mostly-tiny-with-rare-huge ids, which no generator or loader
    here produces; files that hold it stay readable.)
    """
    if kind is ColumnKind.LABEL:
        return enc.Encoding.RLE
    if kind is ColumnKind.DENSE:
        return enc.Encoding.PLAIN
    # sparse lengths and values
    return enc.Encoding.PACKED


class ColumnarFileWriter:
    """Serializes a table (dict of columns) into the columnar format."""

    def __init__(
        self,
        schema: TableSchema,
        row_group_size: int = 8192,
    ) -> None:
        if row_group_size <= 0:
            raise FormatError("row_group_size must be positive")
        self.schema = schema
        self.row_group_size = row_group_size

    # -- helpers ----------------------------------------------------------

    def _validate(self, data: TableData, num_rows: int) -> None:
        for column in self.schema.columns():
            if column.name not in data:
                raise SchemaError(f"missing column {column.name!r} in table data")
            if column.kind is ColumnKind.SPARSE:
                lengths, values = data[column.name]
                column.validate_values(lengths, values, num_rows)
            else:
                column.validate_values(data[column.name], num_rows)

    @staticmethod
    def _infer_num_rows(schema: TableSchema, data: TableData) -> int:
        label = data.get(schema.label.name)
        if label is None:
            raise SchemaError(f"missing label column {schema.label.name!r}")
        return len(label)

    def _slice_column(
        self, kind: ColumnKind, column: ColumnData, start: int, stop: int
    ) -> Dict[str, np.ndarray]:
        """Return {part: array} for rows [start, stop) of one column."""
        if kind is ColumnKind.SPARSE:
            lengths, values = column
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            return {
                # views when the table already holds int32 / int64: the
                # encoders only read them
                PART_LENGTHS: lengths[start:stop].astype(np.int32, copy=False),
                PART_VALUES: values[offsets[start] : offsets[stop]].astype(
                    np.int64, copy=False
                ),
            }
        return {PART_VALUES: np.asarray(column)[start:stop]}

    # -- public API ---------------------------------------------------------

    def write(self, data: TableData) -> bytes:
        """Serialize the full table and return the file bytes."""
        num_rows = self._infer_num_rows(self.schema, data)
        self._validate(data, num_rows)

        pieces: List[bytes] = [MAGIC]
        offset = len(MAGIC)
        chunks: List[ColumnChunk] = []
        row_group_rows: List[int] = []
        group = 0
        for start in range(0, max(num_rows, 1), self.row_group_size):
            stop = min(start + self.row_group_size, num_rows)
            if stop <= start and num_rows > 0:
                break
            row_group_rows.append(stop - start)
            for column in self.schema.columns():
                parts = self._slice_column(
                    column.kind, data[column.name], start, stop
                )
                for part, values in sorted(parts.items()):
                    codec = default_encoding_policy(column.kind, part, values)
                    chunk_bytes = enc.encode_column(values, codec)
                    chunks.append(
                        ColumnChunk(
                            column=column.name,
                            part=part,
                            row_group=group,
                            offset=offset,
                            size=len(chunk_bytes),
                            num_values=len(values),
                            encoding=codec,
                        )
                    )
                    pieces.append(chunk_bytes)
                    offset += len(chunk_bytes)
            group += 1
            if num_rows == 0:
                break

        footer = FileFooter(
            dense_names=self.schema.dense_names,
            sparse_names=self.schema.sparse_names,
            label_name=self.schema.label.name,
            num_rows=num_rows,
            row_group_rows=row_group_rows,
            chunks=chunks,
        )
        footer_bytes = json.dumps(footer.to_json(), separators=(",", ":")).encode()
        pieces += (footer_bytes, _FOOTER_LEN.pack(len(footer_bytes)), MAGIC)
        return b"".join(pieces)


class ColumnarFileReader:
    """Random-access reader over a columnar file held in memory.

    Tracks ``bytes_read`` across calls so the performance layer can charge
    I/O for exactly the chunks a pipeline touched (selective column reads).
    """

    def __init__(self, buffer: bytes) -> None:
        self._view = memoryview(buffer)
        self.bytes_read = 0
        self.footer = self._parse_footer(buffer)

    @staticmethod
    def _parse_footer(buffer: bytes) -> FileFooter:
        min_size = 2 * len(MAGIC) + _FOOTER_LEN.size
        if len(buffer) < min_size:
            raise FormatError("file too small to be a columnar file")
        if buffer[: len(MAGIC)] != MAGIC or buffer[-len(MAGIC) :] != MAGIC:
            raise FormatError("bad magic bytes (not a columnar file)")
        (footer_len,) = _FOOTER_LEN.unpack(
            buffer[-len(MAGIC) - _FOOTER_LEN.size : -len(MAGIC)]
        )
        footer_end = len(buffer) - len(MAGIC) - _FOOTER_LEN.size
        footer_start = footer_end - footer_len
        if footer_start < len(MAGIC):
            raise FormatError("footer length exceeds file size")
        try:
            obj = json.loads(buffer[footer_start:footer_end].decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise FormatError(f"unparseable footer: {exc}") from exc
        try:
            return FileFooter.from_json(obj)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed footer structure: {exc!r}") from exc

    @property
    def num_rows(self) -> int:
        """Row count recorded in the footer."""
        return self.footer.num_rows

    def _read_chunk(self, chunk: ColumnChunk) -> np.ndarray:
        raw = self._view[chunk.offset : chunk.offset + chunk.size]  # no copy
        if len(raw) != chunk.size:
            raise FormatError(f"chunk for {chunk.column!r} extends past end of file")
        self.bytes_read += chunk.size
        # chunk framing is [codec][dtype][num-values varint]...: a CRC-valid
        # header may declare any count, and a constant or run-length payload
        # would make the decoder allocate it — the footer knows the truth
        if len(raw) > 2:
            declared, _ = enc.read_uvarint(raw, 2)
            if declared != chunk.num_values:
                raise FormatError(
                    f"chunk for {chunk.column!r} declares {declared} values, "
                    f"the footer says {chunk.num_values}"
                )
        return enc.decode_column(raw)

    def _read_part(
        self, chunks: List[ColumnChunk], dtype: Optional[type] = None
    ) -> np.ndarray:
        """Decode ``chunks`` into one array (of ``dtype`` when given); a
        single chunk's owned array is returned as is, not copied again."""
        arrays = [self._read_chunk(chunk) for chunk in chunks]
        if not arrays:
            return np.empty(0, dtype=dtype)
        joined = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        return joined if dtype is None else joined.astype(dtype, copy=False)

    def read_column(self, name: str) -> ColumnData:
        """Decode one full column (all row groups concatenated)."""
        if name in self.footer.sparse_names:
            lengths = self.footer.chunks_for(name, PART_LENGTHS)
            if not lengths:
                raise FormatError(f"no chunks for sparse column {name!r}")
            return (
                self._read_part(lengths, np.int32),
                self._read_part(self.footer.chunks_for(name, PART_VALUES), np.int64),
            )
        chunks = self.footer.chunks_for(name, PART_VALUES)
        if not chunks:
            raise FormatError(f"unknown column {name!r}")
        return self._read_part(chunks)

    def read_columns(self, names: Iterable[str]) -> TableData:
        """Decode several columns; only their chunks are touched/charged."""
        return {name: self.read_column(name) for name in names}

    def _group_chunk(self, name: str, part: str, group: int) -> ColumnChunk:
        for chunk in self.footer.chunks_for(name, part):
            if chunk.row_group == group:
                return chunk
        raise FormatError(f"no {part} chunk for {name!r} in group {group}")

    def read_row_group(self, group: int, names: Iterable[str]) -> TableData:
        """Decode the requested columns of a single row group."""
        if group < 0 or group >= len(self.footer.row_group_rows):
            raise FormatError(f"row group {group} out of range")
        out: TableData = {}
        for name in names:
            values = self._group_chunk(name, PART_VALUES, group)
            if name in self.footer.sparse_names:
                lengths = self._group_chunk(name, PART_LENGTHS, group)
                out[name] = (
                    self._read_part([lengths], np.int32),
                    self._read_part([values], np.int64),
                )
            else:
                out[name] = self._read_chunk(values)
        return out


def write_table(
    schema: TableSchema,
    data: TableData,
    row_group_size: int = 8192,
) -> bytes:
    """Convenience wrapper around :class:`ColumnarFileWriter`."""
    return ColumnarFileWriter(schema, row_group_size).write(data)


def read_columns(buffer: bytes, names: Sequence[str]) -> TableData:
    """Convenience wrapper around :class:`ColumnarFileReader`."""
    return ColumnarFileReader(buffer).read_columns(names)
