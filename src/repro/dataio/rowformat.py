"""Row-oriented file format — the strawman Section II-B argues against.

The paper motivates columnar storage by the *overfetch* problem: with a
row-oriented layout, extracting features X and W for all users "inevitably
leads to (unwanted) features Y and Z to be retrieved, wasting data read
bandwidth".  This module implements that layout for real, so the
columnar-vs-row ablation (``repro.experiments.abl_row_vs_columnar``) can
measure the waste instead of asserting it.

Layout::

    [magic][record 0][record 1]...[footer: schema + row count + offsets head]

Each record serializes one row: label byte, dense float32s, then per sparse
column a varint length + varint-encoded ids.  Reading *any* column requires
scanning every record (there is no per-column index by construction).

Although the *format* is row-major, the writer and reader are vectorized:
the writer precomputes every record's byte offsets from the varint widths
and scatters whole columns into one output buffer
(:func:`repro.dataio.encoding.scatter_uvarints`); the reader discovers
record boundaries in batch (:meth:`RowFileReader._scan_records`) and then
gathers labels, dense values, and sparse ids column-at-a-time.  The output
is byte-identical to the original row-by-row writer and record walker,
which are kept as :meth:`RowFileWriter.write_scalar` and
:meth:`RowFileReader._scan_records_scalar` for cross-checks.

Batched record-boundary discovery works on the continuation-bit index (the
positions of all bytes with a clear high bit — every varint ends on one,
but the fixed label/dense section emits spurious entries too), built once
as int32 by :meth:`RowFileReader.read_columns`:

1. the fixed section's spurious entries are skipped by one bisection per
   record: the first index entry at or after ``record_start +
   fixed_bytes`` ends the record's first list length, and it is searched
   for above the previous record's last terminator only (nothing is built
   over the whole body);
2. a single pass over the rows chases record ends through precomputed
   byte tables — a handful of C-speed lookups per row instead of per-row
   varint decoding;
3. every per-row quantity the chase produced is then re-derived and
   verified with whole-column numpy operations; any file the fast path
   cannot prove correct (multi-byte list-length varints, corruption) is
   re-scanned by the retained scalar walker, which either succeeds or
   raises the proper :class:`FormatError`.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.dataio.columnar import TableData
from repro.dataio.encoding import (
    gather_uvarints,
    read_uvarint,
    scatter_uvarints,
    uvarint_lengths,
    write_uvarint,
)
from repro.dataio.schema import TableSchema
from repro.errors import FormatError, SchemaError, is_int
from repro.faults.injector import fault_point

ROW_MAGIC = b"PRSTR\n"
_FOOTER_LEN = struct.Struct("<I")
_F32 = struct.Struct("<f")
_DENSE_FIELD = _F32.size + 1  # float32 payload + null-marker byte

#: below this row count the batched scan's setup costs exceed the scalar
#: walk; tiny files take the scalar path directly
_MIN_BATCH_SCAN_ROWS = 64


class RowFileWriter:
    """Serialize a table row by row (the pre-columnar layout)."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema

    def _validated_columns(self, data: TableData):
        """Pull label/dense/sparse arrays out of ``data`` and validate them."""
        label = data.get(self.schema.label.name)
        if label is None:
            raise SchemaError(f"missing label column {self.schema.label.name!r}")
        label = np.asarray(label)
        self.schema.label.validate_values(label, label.size)
        num_rows = len(label)
        # a record stores the label as one byte; the reader returns int8
        if label.dtype.kind not in "biu" or (
            num_rows and not -128 <= label.min() <= label.max() <= 127
        ):
            raise SchemaError(
                f"label column {self.schema.label.name!r} must hold int8 integers"
            )

        dense_columns = []
        for column in self.schema.dense:
            if column.name not in data:
                raise SchemaError(f"missing dense column {column.name!r}")
            values = np.asarray(data[column.name], dtype=np.float32)
            column.validate_values(values, num_rows)
            dense_columns.append(values)

        sparse_columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for column in self.schema.sparse:
            if column.name not in data:
                raise SchemaError(f"missing sparse column {column.name!r}")
            lengths, values = data[column.name]
            column.validate_values(lengths, values, num_rows)
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            sparse_columns.append((np.asarray(lengths), np.asarray(values), offsets))
        return label, dense_columns, sparse_columns, num_rows

    def _footer(self, num_rows: int) -> bytes:
        return json.dumps(
            {
                "dense": self.schema.dense_names,
                "sparse": self.schema.sparse_names,
                "label": self.schema.label.name,
                "num_rows": num_rows,
            },
            separators=(",", ":"),
        ).encode()

    def write(self, data: TableData) -> bytes:
        """Serialize all rows; returns the file bytes.

        Builds the file in one pass of whole-column numpy operations: per-row
        record sizes come from the batch varint widths, every field's byte
        offset is then known up front, and each column is scattered into the
        preallocated buffer.
        """
        label, dense_columns, sparse_columns, num_rows = self._validated_columns(data)

        num_dense = len(dense_columns)
        fixed_bytes = 1 + _DENSE_FIELD * num_dense

        # per-column varint widths: the length prefix and each row's id bytes
        length_widths: List[np.ndarray] = []
        id_widths: List[np.ndarray] = []
        width_prefixes: List[np.ndarray] = []  # exclusive cumsum of id_widths
        raw_ids: List[np.ndarray] = []  # ids as uint64 two's complement
        row_id_bytes: List[np.ndarray] = []
        for lengths, values, offsets in sparse_columns:
            length_widths.append(uvarint_lengths(lengths.astype(np.uint64)))
            raw = values.astype(np.int64).astype(np.uint64)
            raw_ids.append(raw)
            widths = uvarint_lengths(raw)
            id_widths.append(widths)
            width_prefix = np.concatenate(([0], np.cumsum(widths)))
            width_prefixes.append(width_prefix)
            row_id_bytes.append(width_prefix[offsets[1:]] - width_prefix[offsets[:-1]])

        record_sizes = np.full(num_rows, fixed_bytes, dtype=np.int64)
        for col in range(len(sparse_columns)):
            record_sizes += length_widths[col] + row_id_bytes[col]
        record_ends = len(ROW_MAGIC) + np.cumsum(record_sizes)
        record_starts = record_ends - record_sizes
        body_end = len(ROW_MAGIC) + int(record_sizes.sum())

        out = np.empty(body_end, dtype=np.uint8)
        out[: len(ROW_MAGIC)] = np.frombuffer(ROW_MAGIC, dtype=np.uint8)

        # labels: one byte at the head of every record
        out[record_starts] = label.astype(np.int8).view(np.uint8)

        # dense fields: 4 little-endian float32 bytes + 1 null-marker byte
        for index, values in enumerate(dense_columns):
            base = record_starts + (1 + _DENSE_FIELD * index)
            nulls = np.isnan(values)
            packed = np.where(nulls, np.float32(0.0), values).astype("<f4")
            byte_planes = packed.view(np.uint8).reshape(num_rows, 4)
            for byte_index in range(4):
                out[base + byte_index] = byte_planes[:, byte_index]
            out[base + 4] = nulls.astype(np.uint8)

        # sparse fields: varint length prefix + varint ids, column by column
        cursor = record_starts + fixed_bytes
        for col, (lengths, values, offsets) in enumerate(sparse_columns):
            scatter_uvarints(
                out, cursor, lengths.astype(np.uint64), length_widths[col]
            )
            ids_base = cursor + length_widths[col]
            if len(values):
                width_prefix = width_prefixes[col]
                lengths64 = np.asarray(lengths, dtype=np.int64)
                # start of id k = its row's ids_base + its width-prefix within the row
                id_starts = np.repeat(
                    ids_base - width_prefix[offsets[:-1]], lengths64
                ) + width_prefix[:-1]
                scatter_uvarints(out, id_starts, raw_ids[col], id_widths[col])
            cursor = ids_base + row_id_bytes[col]

        footer = self._footer(num_rows)
        blob = b"".join(
            (
                out.tobytes(),
                footer,
                _FOOTER_LEN.pack(len(footer)),
                ROW_MAGIC,
            )
        )
        # fault point: one flipped byte in a freshly written row file — the
        # trailing magic, so any reader must reject the file loudly rather
        # than ever decoding corrupt rows silently
        corrupt = fault_point("row-corrupt", rows=num_rows)
        if corrupt is not None and corrupt.action == "corrupt":
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        return blob

    def write_scalar(self, data: TableData) -> bytes:
        """Row-by-row reference writer (the original implementation).

        Kept for byte-identity cross-checks in tests.
        """
        label, dense_columns, sparse_columns, num_rows = self._validated_columns(data)

        body = bytearray(ROW_MAGIC)
        for row in range(num_rows):
            body.append(int(label[row]) & 0xFF)
            for values in dense_columns:
                value = values[row]
                is_null = bool(np.isnan(value))
                body += _F32.pack(0.0 if is_null else float(value))
                body.append(1 if is_null else 0)  # null marker
            for lengths, values, offsets in sparse_columns:
                row_ids = values[offsets[row] : offsets[row + 1]]
                write_uvarint(len(row_ids), body)
                for raw_id in row_ids.tolist():
                    write_uvarint(int(raw_id) & (2**64 - 1), body)

        footer = self._footer(num_rows)
        body += footer
        body += _FOOTER_LEN.pack(len(footer))
        body += ROW_MAGIC
        return bytes(body)


class RowFileReader:
    """Scan-based reader over the row layout.

    ``bytes_scanned`` counts every byte the reader had to touch; for any
    column subset it equals (almost) the whole file — the overfetch the
    paper's columnar layout eliminates.

    Decoding is batched: one pass over the records locates every varint
    boundary using a precomputed index of bytes with a clear continuation
    bit (within a varint region, each such byte terminates exactly one
    varint), then labels, dense planes, and each wanted sparse column are
    gathered with whole-column numpy operations.
    """

    def __init__(self, buffer: bytes) -> None:
        self._buf = buffer
        self.bytes_scanned = 0
        min_size = 2 * len(ROW_MAGIC) + _FOOTER_LEN.size
        if len(buffer) < min_size or buffer[: len(ROW_MAGIC)] != ROW_MAGIC:
            raise FormatError("not a row-format file")
        if buffer[-len(ROW_MAGIC) :] != ROW_MAGIC:
            raise FormatError("truncated row-format file")
        (footer_len,) = _FOOTER_LEN.unpack(
            buffer[-len(ROW_MAGIC) - _FOOTER_LEN.size : -len(ROW_MAGIC)]
        )
        footer_end = len(buffer) - len(ROW_MAGIC) - _FOOTER_LEN.size
        self._body_end = footer_end - footer_len
        if self._body_end < len(ROW_MAGIC):
            raise FormatError("footer length exceeds file size")
        try:
            meta = json.loads(buffer[self._body_end : footer_end].decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise FormatError(f"unparseable row-format footer: {exc}") from exc
        if not (
            isinstance(meta, dict)
            and set(meta) == {"dense", "sparse", "label", "num_rows"}
            and all(
                isinstance(names, list) and all(isinstance(n, str) for n in names)
                for names in (meta["dense"], meta["sparse"])
            )
            and isinstance(meta["label"], str)
            and is_int(meta["num_rows"])
            and meta["num_rows"] >= 0
        ):
            raise FormatError("malformed row-format footer structure")
        self.dense_names: List[str] = meta["dense"]
        self.sparse_names: List[str] = meta["sparse"]
        self.label_name: str = meta["label"]
        self.num_rows: int = meta["num_rows"]
        # the smallest record: its fixed section plus a 1-byte list length
        # per sparse column
        min_record = 1 + _DENSE_FIELD * len(self.dense_names) + len(self.sparse_names)
        if self.num_rows * min_record > self._body_end - len(ROW_MAGIC):
            raise FormatError(
                f"footer claims {self.num_rows} rows, more than the body holds"
            )

    def _scan_records(
        self, body: np.ndarray, terminators: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Locate every record, returning per-row/column varint geometry.

        Returns ``(record_starts, counts, id_term_index)`` where ``counts``
        is the (num_rows, num_sparse) matrix of per-row list lengths and
        ``id_term_index[row, col]`` indexes into ``terminators`` at the first
        id varint of that row/column.  Only varint *boundaries* are resolved
        here; id payloads are decoded later in one batch per column.

        Boundary discovery is batched (see the module docstring); the fast
        path returns ``None`` internally when it cannot *prove* its answer
        (multi-byte length varints, tiny or corrupt files), in which case
        the retained scalar walker decides.
        """
        result = self._scan_records_batch(body, terminators)
        if result is not None:
            return result
        return self._scan_records_scalar(body, terminators)

    def _scan_records_batch(
        self, body: np.ndarray, terminators: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batched record-boundary discovery; ``None`` means "use scalar".

        One C-speed chase pass finds each record's final varint terminator;
        everything else — re-synchronization cursors, list lengths, id
        geometry, and the full verification that every boundary is exactly
        what a scalar walk would produce — is whole-column numpy.  The
        verification closes an induction (record 0's start is fixed, each
        verified record yields the next start), so a non-``None`` return is
        correct by construction, never heuristic.
        """
        num_rows = self.num_rows
        num_sparse = len(self.sparse_names)
        fixed_bytes = 1 + _DENSE_FIELD * len(self.dense_names)
        body_end = self._body_end
        magic = len(ROW_MAGIC)

        if num_sparse == 0:
            # fixed-stride records: pure arithmetic
            if magic + num_rows * fixed_bytes != body_end:
                return None  # let the scalar walker raise the precise error
            starts = magic + fixed_bytes * np.arange(num_rows, dtype=np.int64)
            empty = np.empty((num_rows, 0), dtype=np.int64)
            return starts, empty, empty.copy()
        if num_rows < _MIN_BATCH_SCAN_ROWS or len(terminators) == 0:
            return None

        buf = self._buf
        num_terminators = len(terminators)
        # byte value at each terminator: the value of any 1-byte varint there
        term_bytes = memoryview(body[terminators])
        term_pos = memoryview(terminators)

        # exact scalar parse of row 0 seeds the chase (handles multi-byte
        # length varints in the first record for free)
        try:
            offset = magic + fixed_bytes
            index = bisect_left(term_pos, offset)
            for _ in range(num_sparse):
                count, offset = read_uvarint(buf, offset)
                if count > body_end or index + count >= num_terminators:
                    return None
                index += 1 + count
                if count:
                    offset = term_pos[index - 1] + 1
            end = index - 1
        except Exception:  # truncated/corrupt head: scalar path decides
            return None

        ends: List[int] = [end]
        append = ends.append
        last_col = num_sparse - 1
        try:
            for _ in range(num_rows - 1):
                record_start = term_pos[end] + 1
                first_varint = record_start + fixed_bytes
                index = bisect_left(term_pos, first_varint, end + 1)
                count = buf[first_varint]
                for _ in range(last_col):
                    index += count + 1
                    count = term_bytes[index]
                end = index + count
                append(end)
        except IndexError:
            return None  # chase ran off the index: scalar path decides

        ends_arr = np.fromiter(ends, dtype=np.int64, count=num_rows)
        if int(ends_arr[-1]) >= num_terminators:
            return None
        if int(terminators[ends_arr[-1]]) != body_end - 1:
            return None

        # re-derive every per-row quantity in batch and verify the chase
        record_starts = np.empty(num_rows, dtype=np.int64)
        record_starts[0] = magic
        np.add(terminators[ends_arr[:-1]], 1, out=record_starts[1:])
        first_varint = record_starts + fixed_bytes
        if int(first_varint[-1]) >= body_end:
            return None
        # searched in the index's own dtype: a mixed-dtype search would
        # copy the whole index
        cursor = terminators.searchsorted(first_varint.astype(terminators.dtype))
        counts = np.empty((num_rows, num_sparse), dtype=np.int64)
        id_term_index = np.empty((num_rows, num_sparse), dtype=np.int64)
        first_bytes = body[first_varint]
        if np.any(first_bytes >= 0x80):
            return None  # multi-byte list length: scalar path handles it
        col_counts = first_bytes.astype(np.int64)
        for col in range(num_sparse):
            if col:
                cursor = cursor + counts[:, col - 1] + 1
                if int(cursor.max()) >= num_terminators:
                    return None
                # the length varint must directly follow the previous
                # terminator (i.e. be 1 byte) for its byte to be its value
                if np.any(
                    terminators[cursor] - terminators[cursor - 1] != 1
                ):
                    return None
                col_counts = body[terminators[cursor]].astype(np.int64)
                if np.any(col_counts >= 0x80):
                    return None
            counts[:, col] = col_counts
            id_term_index[:, col] = cursor + 1
        if not np.array_equal(cursor + counts[:, -1], ends_arr):
            return None
        return record_starts, counts, id_term_index

    def _scan_records_scalar(
        self, body: np.ndarray, terminators: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-at-a-time reference scan (the original implementation).

        Kept as the correctness oracle for the batched scan (property tests
        assert identical geometry) and the fallback for files the fast path
        cannot prove.
        """
        num_sparse = len(self.sparse_names)
        fixed_bytes = 1 + _DENSE_FIELD * len(self.dense_names)
        record_starts = np.empty(self.num_rows, dtype=np.int64)
        counts = np.empty((self.num_rows, num_sparse), dtype=np.int64)
        id_term_index = np.empty((self.num_rows, num_sparse), dtype=np.int64)

        buf = self._buf
        term_pos = memoryview(terminators)  # indexes to plain ints
        num_terminators = len(terminators)
        offset = len(ROW_MAGIC)
        for row in range(self.num_rows):
            record_starts[row] = offset
            offset += fixed_bytes
            if num_sparse:
                # the fixed section may contain bytes with a clear high bit,
                # so re-sync the terminator cursor once per row
                index = bisect_left(term_pos, offset)
                for col in range(num_sparse):
                    if index >= num_terminators:
                        raise FormatError("row records do not align with the footer")
                    count, offset = read_uvarint(buf, offset)
                    # a list can't hold more ids than the body has bytes; the
                    # bound also keeps the int64 store below from overflowing
                    if count > self._body_end:
                        raise FormatError(
                            "implausible sparse list length (corrupt row file)"
                        )
                    index += 1  # past the length-prefix terminator
                    counts[row, col] = count
                    id_term_index[row, col] = index
                    index += count
                    if count:
                        if index > num_terminators:
                            raise FormatError(
                                "row records do not align with the footer"
                            )
                        offset = term_pos[index - 1] + 1
        if offset != self._body_end:
            raise FormatError("row records do not align with the footer")
        return record_starts, counts, id_term_index

    def read_columns(self, names: Iterable[str]) -> TableData:
        """Extract the requested columns — by scanning every record."""
        wanted = set(names)
        unknown = wanted - set(
            self.dense_names + self.sparse_names + [self.label_name]
        )
        if unknown:
            raise FormatError(f"unknown columns {sorted(unknown)}")

        body = np.frombuffer(self._buf, dtype=np.uint8, count=self._body_end)
        # every byte with a clear continuation bit; inside a varint region
        # each one terminates exactly one varint.  int32 positions: the one
        # copy of the index that the scan and the id gather below share
        terminators = np.flatnonzero(body < 0x80).astype(np.int32)
        record_starts, counts, id_term_index = self._scan_records(body, terminators)
        # scanning touched the entire record body regardless of selection
        self.bytes_scanned += self._body_end - len(ROW_MAGIC)

        out: TableData = {}
        if self.label_name in wanted:
            out[self.label_name] = body[record_starts].astype(np.int8)

        for index, name in enumerate(self.dense_names):
            if name not in wanted:
                continue
            base = record_starts + (1 + _DENSE_FIELD * index)
            planes = np.empty((self.num_rows, 4), dtype=np.uint8)
            for byte_index in range(4):
                planes[:, byte_index] = body[base + byte_index]
            values = planes.view("<f4").ravel().astype(np.float32)
            values[body[base + 4] != 0] = np.nan
            out[name] = values

        sparse_wanted = [
            (col, name)
            for col, name in enumerate(self.sparse_names)
            if name in wanted
        ]
        if not sparse_wanted:
            return out

        # all requested columns' ids in one ragged gather: every id varint
        # starts right after the previous terminator, so its width is the
        # terminator-position delta and one batch decode covers everything
        deltas = np.empty(len(terminators), dtype=np.int32)
        if len(terminators):
            deltas[0] = terminators[0] + 1
            np.subtract(terminators[1:], terminators[:-1], out=deltas[1:])
        first = np.concatenate(
            [id_term_index[:, col] for col, _ in sparse_wanted]
        )
        lengths = np.concatenate([counts[:, col] for col, _ in sparse_wanted])
        total = int(lengths.sum())
        run_offsets = np.concatenate(([0], np.cumsum(lengths)))
        term_idx = np.repeat(first, lengths) + (
            np.arange(total, dtype=np.int64) - np.repeat(run_offsets[:-1], lengths)
        )
        id_terms = terminators[term_idx]
        widths = deltas[term_idx]
        # the file buffer extends past the body (footer + trailing magic),
        # so the batch decoder's 8-byte loads never need padding
        full = np.frombuffer(self._buf, dtype=np.uint8)
        raw = gather_uvarints(full, id_terms - widths + 1, widths)
        ids = raw.view(np.int64)  # two's complement round-trip

        offset = 0
        for col, name in sparse_wanted:
            col_lengths = counts[:, col]
            col_total = int(col_lengths.sum())
            out[name] = (
                col_lengths.astype(np.int32),
                ids[offset : offset + col_total].copy(),
            )
            offset += col_total
        return out


def write_row_table(schema: TableSchema, data: TableData) -> bytes:
    """Convenience wrapper around :class:`RowFileWriter`."""
    return RowFileWriter(schema).write(data)
