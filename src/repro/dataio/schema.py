"""Table schemas for RecSys raw feature data.

The paper's raw data (Section II-A, Figure 1) is tabular: one row per user
interaction ("sample"), one column per feature.  Columns come in two kinds:

* *dense* features — one continuous value per row (float32);
* *sparse* features — a variable-length list of categorical ids per row
  (int64), e.g. "videos watched in the last hour".

A :class:`TableSchema` names and orders the columns of one logical table and
is shared by the synthetic data generators, the columnar file format, and the
preprocessing pipelines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.errors import SchemaError


class ColumnKind(enum.Enum):
    """The physical/logical kind of a table column."""

    DENSE = "dense"
    SPARSE = "sparse"
    LABEL = "label"


@dataclass(frozen=True)
class DenseFeature:
    """A dense (continuous, scalar-per-row) feature column."""

    name: str
    kind: ColumnKind = field(default=ColumnKind.DENSE, init=False)
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float32), init=False)

    def validate_values(self, values: np.ndarray, num_rows: int) -> None:
        """Check that ``values`` is a valid dense column of ``num_rows`` rows."""
        if values.ndim != 1:
            raise SchemaError(
                f"dense column {self.name!r} must be 1-D, got shape {values.shape}"
            )
        if len(values) != num_rows:
            raise SchemaError(
                f"dense column {self.name!r} has {len(values)} rows, expected {num_rows}"
            )


@dataclass(frozen=True)
class SparseFeature:
    """A sparse (variable-length list of categorical ids) feature column.

    Sparse columns are stored jagged: a ``lengths`` int32 array with one entry
    per row, plus a flat ``values`` int64 array of all ids concatenated.
    """

    name: str
    kind: ColumnKind = field(default=ColumnKind.SPARSE, init=False)
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.int64), init=False)

    def validate_values(
        self, lengths: np.ndarray, values: np.ndarray, num_rows: int
    ) -> None:
        """Check jagged arrays: lengths sum to len(values), one length per row."""
        if lengths.ndim != 1 or values.ndim != 1:
            raise SchemaError(f"sparse column {self.name!r} arrays must be 1-D")
        if len(lengths) != num_rows:
            raise SchemaError(
                f"sparse column {self.name!r} has {len(lengths)} lengths, "
                f"expected {num_rows}"
            )
        if np.any(lengths < 0):
            raise SchemaError(f"sparse column {self.name!r} has negative lengths")
        total = int(lengths.sum())
        if total != len(values):
            raise SchemaError(
                f"sparse column {self.name!r} lengths sum to {total} but has "
                f"{len(values)} values"
            )


@dataclass(frozen=True)
class LabelColumn:
    """The binary click/no-click training label column."""

    name: str = "label"
    kind: ColumnKind = field(default=ColumnKind.LABEL, init=False)
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.int8), init=False)

    def validate_values(self, values: np.ndarray, num_rows: int) -> None:
        """Check that labels are a 1-D column of the right length."""
        if values.ndim != 1 or len(values) != num_rows:
            raise SchemaError(
                f"label column {self.name!r} must be 1-D with {num_rows} rows"
            )


Column = object  # union of the three dataclasses above; kept loose for 3.9


class TableSchema:
    """Ordered, named collection of table columns.

    Column order is meaningful: it is the storage order inside columnar files
    and the default iteration order for preprocessing pipelines.
    """

    def __init__(
        self,
        dense: Sequence[DenseFeature],
        sparse: Sequence[SparseFeature],
    ) -> None:
        self.dense: List[DenseFeature] = list(dense)
        self.sparse: List[SparseFeature] = list(sparse)
        self.label = LabelColumn()
        self._by_name: Dict[str, object] = {}
        for column in self.columns():
            if column.name in self._by_name:
                raise SchemaError(f"duplicate column name {column.name!r}")
            self._by_name[column.name] = column

    @classmethod
    def with_counts(cls, num_dense: int, num_sparse: int) -> "TableSchema":
        """Build a schema with auto-named columns, Criteo-style.

        The Criteo dataset names its 13 dense columns ``int_0..int_12`` and
        its 26 sparse columns ``cat_0..cat_25``; the synthetic RM2–RM5
        datasets extend the same naming.
        """
        if num_dense < 0 or num_sparse < 0:
            raise SchemaError("column counts must be non-negative")
        dense = [DenseFeature(f"int_{i}") for i in range(num_dense)]
        sparse = [SparseFeature(f"cat_{i}") for i in range(num_sparse)]
        return cls(dense=dense, sparse=sparse)

    # -- lookup ---------------------------------------------------------

    def columns(self) -> Iterator[object]:
        """Yield all columns in storage order: label, dense, then sparse."""
        yield self.label
        yield from self.dense
        yield from self.sparse

    def column(self, name: str):
        """Return the column with ``name`` or raise :class:`SchemaError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def dense_names(self) -> List[str]:
        """Names of all dense columns, in order."""
        return [c.name for c in self.dense]

    @property
    def sparse_names(self) -> List[str]:
        """Names of all sparse columns, in order."""
        return [c.name for c in self.sparse]

    def __repr__(self) -> str:
        return (
            f"TableSchema(dense={len(self.dense)}, sparse={len(self.sparse)}, "
            f"label={self.label.name!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        return (
            self.dense_names == other.dense_names
            and self.sparse_names == other.sparse_names
            and self.label.name == other.label.name
        )
