"""Tests for row partitioning."""

import sys

import numpy as np
import pytest

from repro.dataio.columnar import ColumnarFileReader
from repro.dataio.partition import RowPartitioner
from repro.errors import PartitionError
from repro.features.specs import get_model
from repro.features.synthetic import generate_raw_table


@pytest.fixture(scope="module")
def rm1_table():
    spec = get_model("RM1")
    return spec, generate_raw_table(spec, 100)


class TestRowPartitioner:
    def test_partition_row_ranges(self, rm1_table):
        spec, data = rm1_table
        parts = RowPartitioner(spec.schema(), rows_per_partition=32).partition_all(data)
        assert [p.num_rows for p in parts] == [32, 32, 32, 4]
        assert parts[0].row_start == 0
        assert parts[-1].row_stop == 100
        assert [p.index for p in parts] == [0, 1, 2, 3]

    def test_each_partition_is_valid_file(self, rm1_table):
        spec, data = rm1_table
        parts = RowPartitioner(spec.schema(), rows_per_partition=40).partition_all(data)
        for part in parts:
            reader = ColumnarFileReader(part.file_bytes)
            assert reader.num_rows == part.num_rows

    def test_partitions_reassemble_original(self, rm1_table):
        spec, data = rm1_table
        parts = RowPartitioner(spec.schema(), rows_per_partition=33).partition_all(data)
        dense_chunks = [
            ColumnarFileReader(p.file_bytes).read_column("int_0") for p in parts
        ]
        np.testing.assert_array_equal(np.concatenate(dense_chunks), data["int_0"])
        sparse_values = [
            ColumnarFileReader(p.file_bytes).read_column("cat_3")[1] for p in parts
        ]
        np.testing.assert_array_equal(
            np.concatenate(sparse_values), data["cat_3"][1]
        )

    def test_slicing_a_shard_costs_the_shard_not_the_table(self, monkeypatch):
        """``_slice`` used to rebuild every sparse column's offsets over the
        whole table for every shard (12.6 ms per 512-row RM5 shard at 65,536
        rows).  Counted through ``np.cumsum``, not timed: the elements
        scanned per shard are the same for a 4-shard and a 16-shard table."""
        spec = get_model("RM2")
        cumsum = np.cumsum
        scanned = []

        def counting_cumsum(a, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_filename
            if caller.endswith(("partition.py", "columnar.py")):  # not codecs
                scanned.append(np.size(a))
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting_cumsum)
        per_shard = {}
        for shards in (4, 16):
            data = generate_raw_table(spec, 16 * shards, seed=shards)
            partitioner = RowPartitioner(spec.schema(), rows_per_partition=16)
            assert partitioner.num_partitions(data) == shards
            del scanned[:]
            parts = partitioner.partition_all(data)
            assert len(parts) == shards
            per_shard[shards] = sum(scanned) / shards
            # and the slices are right: the last shard ends the table
            last = ColumnarFileReader(parts[-1].file_bytes).read_column("cat_7")
            np.testing.assert_array_equal(last[0], data["cat_7"][0][-16:])
            np.testing.assert_array_equal(
                last[1], data["cat_7"][1][-int(last[0].sum()):]
            )
        assert per_shard[4] == per_shard[16]
        assert 0 < per_shard[4] <= 16 * len(spec.schema().sparse_names)

    def test_num_partitions_matches_what_partitions_yields(self, rm1_table):
        spec, data = rm1_table
        for rows_per_partition in (1, 33, 50, 100, 101):
            partitioner = RowPartitioner(spec.schema(), rows_per_partition)
            assert partitioner.num_partitions(data) == len(
                partitioner.partition_all(data)
            )

    def test_empty_table_rejected(self, rm1_table):
        spec, data = rm1_table
        empty = {k: (v[0][:0], v[1][:0]) if isinstance(v, tuple) else v[:0]
                 for k, v in data.items()}
        with pytest.raises(PartitionError, match="empty"):
            RowPartitioner(spec.schema()).partition_all(empty)

    def test_bad_partition_size(self, rm1_table):
        spec, _ = rm1_table
        with pytest.raises(PartitionError):
            RowPartitioner(spec.schema(), rows_per_partition=0)
