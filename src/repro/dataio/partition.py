"""Row-range partitioning of a logical table into columnar files.

Section IV-B of the paper: "A group of rows within the tabular data is
sharded into partitions and different partitions are stored as independent
columnar files in a distributed storage system", and — crucially for PreSto's
scalability argument — all blocks of one partition are stored contiguously on
a *single* storage device (Meta's Tectonic behaviour), so a mini-batch can be
preprocessed entirely locally by one SmartSSD.

A partition is sized to hold exactly one training mini-batch by default
(8,192 rows), matching the paper's batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from repro.dataio.columnar import ColumnarFileWriter, TableData
from repro.dataio.schema import ColumnKind, TableSchema
from repro.errors import PartitionError


@dataclass(frozen=True)
class Partition:
    """One shard of the table: a contiguous row range and its file bytes."""

    index: int
    row_start: int
    row_stop: int
    file_bytes: bytes

    @property
    def num_rows(self) -> int:
        """Rows contained in this partition."""
        return self.row_stop - self.row_start

    @property
    def size(self) -> int:
        """Encoded size of this partition's columnar file."""
        return len(self.file_bytes)


class RowPartitioner:
    """Slice a table into per-mini-batch partitions, each its own file."""

    def __init__(
        self,
        schema: TableSchema,
        rows_per_partition: int = 8192,
    ) -> None:
        if rows_per_partition <= 0:
            raise PartitionError("rows_per_partition must be positive")
        self.schema = schema
        self.rows_per_partition = rows_per_partition
        self._writer = ColumnarFileWriter(schema)

    def num_partitions(self, data: TableData) -> int:
        """How many partitions :meth:`partitions` yields for ``data``."""
        num_rows = len(data[self.schema.label.name])
        return len(range(0, num_rows, self.rows_per_partition))

    def _slice(
        self, data: TableData, start: int, stop: int, cursors: Dict[str, int]
    ) -> TableData:
        """Rows ``[start, stop)`` of every column, as views.

        ``cursors`` holds, per sparse column, the offset of row ``start``
        in its flat values and is advanced to row ``stop``: slicing costs
        the shard's rows, never the table's.
        """
        out: TableData = {}
        for column in self.schema.columns():
            raw = data[column.name]
            if column.kind is ColumnKind.SPARSE:
                lengths, values = raw
                lengths = np.asarray(lengths[start:stop], dtype=np.int32)
                first = cursors[column.name]
                cursors[column.name] = last = first + int(lengths.sum())
                out[column.name] = (
                    lengths, np.asarray(values[first:last], dtype=np.int64)
                )
            else:
                out[column.name] = np.asarray(raw[start:stop])
        return out

    def partitions(self, data: TableData) -> Iterator[Partition]:
        """Yield partitions of ``data`` in row order, one built at a time."""
        num_rows = len(data[self.schema.label.name])
        if num_rows == 0:
            raise PartitionError("cannot partition an empty table")
        cursors = dict.fromkeys(self.schema.sparse_names, 0)
        for index, start in enumerate(range(0, num_rows, self.rows_per_partition)):
            stop = min(start + self.rows_per_partition, num_rows)
            shard = self._slice(data, start, stop, cursors)
            yield Partition(
                index=index,
                row_start=start,
                row_stop=stop,
                file_bytes=self._writer.write(shard),
            )

    def partition_all(self, data: TableData) -> List[Partition]:
        """Materialize every partition (small tables / tests)."""
        return list(self.partitions(data))
