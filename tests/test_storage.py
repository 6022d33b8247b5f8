"""Tests for SSD/SmartSSD devices and the distributed cluster."""

import pytest

from repro.dataio.partition import RowPartitioner
from repro.errors import CapacityError, ConfigurationError
from repro.features.specs import get_model
from repro.features.synthetic import generate_raw_table
from repro.storage.cluster import DistributedStorage, PlacementPolicy
from repro.storage.smartssd import SmartSsd
from repro.storage.ssd import SsdModel


class TestSsdModel:
    def test_object_store_roundtrip(self):
        ssd = SsdModel("d0")
        ssd.write_object("k", b"hello")
        assert ssd.read_object("k") == b"hello"
        assert ssd.bytes_stored == 5
        assert ssd.bytes_read == 5

    def test_duplicate_key_rejected(self):
        ssd = SsdModel("d0")
        ssd.write_object("k", b"x")
        with pytest.raises(ConfigurationError, match="already"):
            ssd.write_object("k", b"y")

    def test_missing_key(self):
        with pytest.raises(ConfigurationError, match="no object"):
            SsdModel("d0").read_object("nope")

    def test_capacity_enforced(self):
        ssd = SsdModel("d0", capacity_bytes=10)
        with pytest.raises(CapacityError, match="full"):
            ssd.write_object("k", b"x" * 11)


class TestSmartSsd:
    def test_composition(self):
        dev = SmartSsd("isp0")
        assert dev.ssd.name == "isp0/ssd"
        assert dev.tdp <= 25.0
        assert dev.active_power <= dev.tdp

    def test_throughput_and_latency(self):
        dev = SmartSsd("isp0")
        spec = get_model("RM5")
        assert dev.throughput(spec) > 0
        assert dev.batch_latency(spec) > 0
        assert dev.batches_preprocessed == 1


class TestDistributedStorage:
    @pytest.fixture(scope="class")
    def stored(self):
        spec = get_model("RM1")
        data = generate_raw_table(spec, 96)
        parts = RowPartitioner(spec.schema(), rows_per_partition=32).partition_all(data)
        devices = [SmartSsd(f"isp{i}") for i in range(2)]
        storage = DistributedStorage(devices)
        storage.store_partitions("criteo", parts)
        return storage, parts, devices

    def test_round_robin_placement(self, stored):
        storage, parts, devices = stored
        assert storage.device_of("criteo", 0) is devices[0]
        assert storage.device_of("criteo", 1) is devices[1]
        assert storage.device_of("criteo", 2) is devices[0]

    def test_read_back_bytes(self, stored):
        storage, parts, _ = stored
        assert storage.read_partition("criteo", 1) == parts[1].file_bytes

    def test_partitions_on_device(self, stored):
        storage, parts, _ = stored
        keys = storage.partitions_on(0, "criteo")
        assert len(keys) == 2  # partitions 0 and 2

    def test_counters(self, stored):
        storage, parts, _ = stored
        assert storage.num_partitions == 3
        assert storage.total_bytes() == sum(p.size for p in parts)

    def test_missing_partition(self, stored):
        storage, _, _ = stored
        with pytest.raises(ConfigurationError, match="not stored"):
            storage.device_of("criteo", 99)

    def test_bad_device_index(self, stored):
        storage, _, _ = stored
        with pytest.raises(ConfigurationError):
            storage.partitions_on(5)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributedStorage([])

    def test_fill_first_policy(self):
        spec = get_model("RM1")
        data = generate_raw_table(spec, 64)
        parts = RowPartitioner(spec.schema(), rows_per_partition=32).partition_all(data)
        storage = DistributedStorage(
            [SsdModel("a"), SsdModel("b")], policy=PlacementPolicy.FILL_FIRST
        )
        storage.store_partitions("d", parts)
        assert len(storage.partitions_on(0)) == 2
        assert len(storage.partitions_on(1)) == 0
