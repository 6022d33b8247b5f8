"""Tests for the worker abstractions and each worker technology."""

import dataclasses

import numpy as np
import pytest

from repro.core.accel_worker import GpuPoolWorker, U280Worker
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.endtoend import EndToEndSimulation
from repro.core.isp_worker import NVME_POWER_ENVELOPE, IspPreprocessingWorker
from repro.core.systems import PreStoU280System, U280PoolSystem
from repro.core.worker import BREAKDOWN_STEPS, breakdown_total
from repro.dataio.partition import RowPartitioner
from repro.errors import CapacityError
from repro.features.specs import MODEL_NAMES, get_model
from repro.features.synthetic import generate_raw_table
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.calibration import CALIBRATION


def interval(worker):
    """Seconds between a worker's mini-batches at steady state: how the
    end-to-end simulation spaces them."""
    return worker.spec.batch_size / worker.throughput()


@pytest.fixture(scope="module")
def rm1_partition():
    spec = get_model("RM1")
    data = generate_raw_table(spec, 64)
    parts = RowPartitioner(spec.schema(), rows_per_partition=64).partition_all(data)
    return spec, parts[0]


class TestBreakdownHelpers:

    def test_total(self):
        assert breakdown_total({s: 2.0 for s in BREAKDOWN_STEPS}) == pytest.approx(
            2.0 * len(BREAKDOWN_STEPS)
        )


class TestWorkerContracts:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: CpuPreprocessingWorker(s),
            lambda s: IspPreprocessingWorker(s),
            lambda s: GpuPoolWorker(s),
            lambda s: U280PoolSystem(s).make_worker(),
            lambda s: PreStoU280System(s).make_worker(),
        ],
        ids=["cpu", "isp", "a100", "u280", "presto-u280"],
    )
    def test_breakdown_covers_canonical_steps(self, factory):
        worker = factory(get_model("RM2"))
        breakdown = worker.batch_breakdown()
        assert set(BREAKDOWN_STEPS) <= set(breakdown)
        assert worker.batch_latency() == pytest.approx(
            sum(breakdown[s] for s in BREAKDOWN_STEPS)
        )
        assert worker.throughput() > 0
        assert interval(worker) > 0
        # one pricing is exactly the two asked one by one
        assert worker.price() == (worker.batch_latency(), worker.throughput())

    def test_cpu_serial_interval_equals_latency(self):
        worker = CpuPreprocessingWorker(get_model("RM3"))
        assert interval(worker) == pytest.approx(worker.batch_latency())

    def test_isp_pipelined_interval_below_latency(self):
        worker = IspPreprocessingWorker(get_model("RM3"))
        assert interval(worker) < worker.batch_latency()


class TestIspWorkerIsItsSmartSsd:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_timing_is_the_device_pipeline(self, model):
        """The Figure 12 breakdown sums to the device's first-batch
        latency, and batches then leave one slowest stage apart."""
        spec = get_model(model)
        worker = IspPreprocessingWorker(spec)
        stages = AcceleratorModel().batch_stages(spec)
        assert worker.batch_breakdown() == stages.as_dict()
        assert worker.batch_latency() == pytest.approx(stages.latency)
        assert interval(worker) == pytest.approx(stages.bottleneck)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_throughput_is_the_bottleneck_rate(self, model):
        """Double buffering: steady state is one mini-batch per slowest
        stage, never slower than one per end-to-end latency."""
        spec = get_model(model)
        worker = IspPreprocessingWorker(spec)
        stages = worker.model.batch_stages(spec)
        assert 0 < stages.bottleneck <= stages.latency
        assert worker.throughput() == pytest.approx(spec.batch_size / stages.bottleneck)
        assert worker.throughput() >= spec.batch_size / stages.latency

    def test_builds_its_model_from_its_calibration(self):
        cal = dataclasses.replace(CALIBRATION, p2p_bandwidth=1e9)
        worker = IspPreprocessingWorker(get_model("RM1"), cal)
        assert worker.model.cal is cal
        assert worker.model.ingress_bw == 1e9
        assert worker.model.unit_scale == 1.0


class TestNvmePowerEnvelope:
    def test_tdp_beyond_nvme_envelope_rejected(self):
        """A card drawing more than an NVMe U.2 slot supplies is not a
        drop-in SSD replacement."""
        hot = dataclasses.replace(CALIBRATION, smartssd_tdp=NVME_POWER_ENVELOPE + 0.5)
        with pytest.raises(CapacityError, match="exceeds the 25.0 W NVMe envelope"):
            IspPreprocessingWorker(get_model("RM1"), hot)

    def test_tdp_at_envelope_accepted(self):
        edge = dataclasses.replace(CALIBRATION, smartssd_tdp=NVME_POWER_ENVELOPE)
        assert NVME_POWER_ENVELOPE == 25.0
        assert IspPreprocessingWorker(get_model("RM1"), edge).throughput() > 0


class TestU280Worker:
    def test_the_two_designs_differ_only_in_ingress(self):
        spec = get_model("RM5")
        pool = U280PoolSystem(spec).make_worker()
        integrated = PreStoU280System(spec).make_worker()
        assert type(pool) is type(integrated) is U280Worker
        assert pool.model.unit_scale == integrated.model.unit_scale == 2.0
        assert integrated.model.ingress_bw == CALIBRATION.u280_pcie_bw
        assert pool.model.ingress_bw == (
            CALIBRATION.network_bandwidth * CALIBRATION.network_read_efficiency
        )
        assert 0 < pool.data_movement_share() < 1


class TestFunctionalEquivalence:
    def test_cpu_and_isp_produce_identical_tensors(self, rm1_partition):
        """The FPGA kernels are functionally transparent: PreSto's
        mini-batch must be bit-identical to the CPU baseline's."""
        spec, part = rm1_partition
        cpu_batch, _ = CpuPreprocessingWorker(spec).preprocess_partition(
            part.file_bytes
        )
        isp_batch, _ = IspPreprocessingWorker(spec).preprocess_partition(
            part.file_bytes
        )
        np.testing.assert_array_equal(cpu_batch.dense, isp_batch.dense)
        np.testing.assert_array_equal(cpu_batch.sparse.values, isp_batch.sparse.values)
        np.testing.assert_array_equal(
            cpu_batch.sparse.lengths, isp_batch.sparse.lengths
        )
        np.testing.assert_array_equal(cpu_batch.labels, isp_batch.labels)

    def test_functional_batch_valid(self, rm1_partition):
        spec, part = rm1_partition
        worker = CpuPreprocessingWorker(spec)
        batch, counts = worker.preprocess_partition(part.file_bytes)
        assert batch.batch_id == 0
        assert batch.batch_size == 64
        batch.validate_index_range(worker.pipeline.table_sizes)
        assert counts.rows == 64


class TestProducerTiming:
    """A worker's latency and interval are its producer timing in the
    end-to-end simulation."""

    def test_first_batch_at_latency(self):
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, "Disagg")
        worker = sim.system.make_worker()
        stats = sim.run(num_batches=1, num_workers=1)
        assert stats.first_batch_time == worker.batch_latency()

    def test_steady_state_rate(self):
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, "PreSto")
        worker = sim.system.make_worker()
        stats = sim.run(num_batches=10, num_workers=1)
        span = worker.batch_latency() + 9 * interval(worker)
        assert stats.preprocessing_throughput == pytest.approx(
            10 * spec.batch_size / span
        )

