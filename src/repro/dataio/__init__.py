"""Columnar storage substrate.

This package is the reproduction's stand-in for Apache Parquet: a
self-contained columnar file format with row groups, per-column encodings
(plain / varint / run-length / dictionary / byte-packed), CRC-checked pages,
and a footer that enables selective column reads — the property Section II-B
of the paper relies on ("fetch features X and W without fetching Y and Z").
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dataio.schema": (
        "ColumnKind", "DenseFeature", "SparseFeature", "LabelColumn",
        "TableSchema",
    ),
    "repro.dataio.encoding": ("Encoding", "encode_column", "decode_column"),
    "repro.dataio.columnar": (
        "ColumnarFileWriter", "ColumnarFileReader", "ColumnChunk",
        "FileFooter", "write_table", "read_columns",
    ),
    "repro.dataio.partition": ("RowPartitioner", "Partition"),
})

__all__ = [
    "ColumnKind",
    "DenseFeature",
    "SparseFeature",
    "LabelColumn",
    "TableSchema",
    "Encoding",
    "encode_column",
    "decode_column",
    "ColumnarFileWriter",
    "ColumnarFileReader",
    "ColumnChunk",
    "FileFooter",
    "write_table",
    "read_columns",
    "RowPartitioner",
    "Partition",
]
