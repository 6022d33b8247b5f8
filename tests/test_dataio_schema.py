"""Tests for table schemas."""

import numpy as np
import pytest

from repro.dataio.schema import (
    ColumnKind,
    DenseFeature,
    LabelColumn,
    SparseFeature,
    TableSchema,
)
from repro.errors import SchemaError


class TestColumns:
    def test_dense_validation_passes(self):
        DenseFeature("x").validate_values(np.zeros(10, dtype=np.float32), 10)

    def test_dense_wrong_length(self):
        with pytest.raises(SchemaError, match="rows"):
            DenseFeature("x").validate_values(np.zeros(5), 10)

    def test_dense_wrong_ndim(self):
        with pytest.raises(SchemaError, match="1-D"):
            DenseFeature("x").validate_values(np.zeros((5, 2)), 5)

    def test_sparse_validation_passes(self):
        lengths = np.array([2, 0, 1], dtype=np.int32)
        values = np.array([1, 2, 3], dtype=np.int64)
        SparseFeature("s").validate_values(lengths, values, 3)

    def test_sparse_sum_mismatch(self):
        with pytest.raises(SchemaError, match="sum"):
            SparseFeature("s").validate_values(
                np.array([2, 2]), np.array([1, 2, 3]), 2
            )

    def test_sparse_negative_lengths(self):
        with pytest.raises(SchemaError, match="negative"):
            SparseFeature("s").validate_values(
                np.array([-1, 4]), np.array([1, 2, 3]), 2
            )

    def test_label_validation(self):
        LabelColumn().validate_values(np.zeros(4, dtype=np.int8), 4)
        with pytest.raises(SchemaError):
            LabelColumn().validate_values(np.zeros(3, dtype=np.int8), 4)


class TestTableSchema:
    def test_with_counts_naming(self):
        schema = TableSchema.with_counts(2, 3)
        assert schema.dense_names == ["int_0", "int_1"]
        assert schema.sparse_names == ["cat_0", "cat_1", "cat_2"]

    def test_column_lookup(self):
        schema = TableSchema.with_counts(1, 1)
        assert schema.column("int_0").kind is ColumnKind.DENSE
        assert schema.column("cat_0").kind is ColumnKind.SPARSE
        assert schema.column("label").kind is ColumnKind.LABEL
        assert "int_0" in schema
        assert "nope" not in schema

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError, match="unknown column"):
            TableSchema.with_counts(1, 1).column("missing")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            TableSchema(dense=[DenseFeature("x"), DenseFeature("x")], sparse=[])

    def test_negative_counts_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.with_counts(-1, 0)

    def test_columns_order(self):
        schema = TableSchema.with_counts(1, 1)
        names = [c.name for c in schema.columns()]
        assert names == ["label", "int_0", "cat_0"]

    def test_equality(self):
        assert TableSchema.with_counts(2, 2) == TableSchema.with_counts(2, 2)
        assert TableSchema.with_counts(2, 2) != TableSchema.with_counts(2, 3)

    def test_repr(self):
        assert "dense=2" in repr(TableSchema.with_counts(2, 5))
