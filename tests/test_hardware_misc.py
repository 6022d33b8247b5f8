"""Tests for the cache/utilization model, GPU preprocessing model, and
power models."""

from unittest import mock

import pytest

from repro.errors import ConfigurationError
from repro.features.specs import get_model
from repro.hardware import cache
from repro.hardware.cache import CacheModel, NODE_MEM_BW, OPERATOR_PROFILES
from repro.hardware.calibration import CALIBRATION
from repro.hardware.gpu_preproc import GpuPreprocModel
from repro.hardware.power import DEVICE_POWER, PowerModel


class TestCacheModel:
    @pytest.fixture(scope="class")
    def model(self):
        return CacheModel()

    @pytest.mark.parametrize("op", ["bucketize", "sigridhash", "log"])
    @pytest.mark.parametrize("rm", ["RM1", "RM5"])
    def test_compute_bound_signature(self, model, op, rm):
        """Fig. 6's three claims: high CPU util, <15% memory BW, high LLC."""
        sample = model.sample(op, get_model(rm))
        assert sample.cpu_utilization > 0.8
        assert sample.memory_bw_utilization < 0.15
        assert sample.llc_hit_rate > 0.8

    def test_rm5_drives_more_bandwidth_on_hash(self, model):
        rm1 = model.sample("sigridhash", get_model("RM1"))
        rm5 = model.sample("sigridhash", get_model("RM5"))
        assert rm5.memory_bw_utilization >= rm1.memory_bw_utilization

    def test_bucketize_working_set_fits_llc(self, model):
        profile = OPERATOR_PROFILES["bucketize"]
        assert profile.working_set_bytes(get_model("RM5")) == 4096 * 8

    def test_unknown_op(self, model):
        with pytest.raises(ConfigurationError):
            model.sample("resize", get_model("RM1"))

    def test_fewer_cores_less_bandwidth(self):
        """Node bandwidth is per-core demand times the node's cores."""
        spec = get_model("RM5")
        full = CacheModel().sample("log", spec)
        with mock.patch.object(cache, "CORES_PER_NODE", 16):
            half = CacheModel().sample("log", spec)
        assert half.memory_bw_utilization == pytest.approx(
            full.memory_bw_utilization / 2
        )

    def test_node_bw_matches_paper(self):
        assert NODE_MEM_BW == pytest.approx(281.6e9)


class TestGpuPreproc:
    def test_kernel_count_scales_with_columns(self):
        model = GpuPreprocModel()
        assert model.kernel_count(get_model("RM5")) > model.kernel_count(
            get_model("RM1")
        )

    def test_kernels_dominate_production_latency(self):
        """Section VI-C: kernel launches are the GPU's Achilles heel."""
        model = GpuPreprocModel()
        stages = model.batch_stages(get_model("RM5"))
        assert stages.kernels > stages.compute
        assert stages.bottleneck == pytest.approx(stages.kernels + stages.compute)

    def test_disaggregation_adds_network(self):
        spec = get_model("RM5")
        pooled = GpuPreprocModel(disaggregated=True).batch_stages(spec)
        local = GpuPreprocModel(disaggregated=False).batch_stages(spec)
        assert pooled.network_in > 0
        assert local.network_in == 0
        assert pooled.latency > local.latency

    def test_throughput_positive(self):
        assert GpuPreprocModel().device_throughput(get_model("RM2")) > 0


class TestPowerModel:
    @pytest.fixture(scope="class")
    def power(self):
        return PowerModel()

    def test_disagg_power_linear(self, power):
        assert power.disagg_cpu_power(64) == pytest.approx(
            2 * power.disagg_cpu_power(32)
        )

    def test_disagg_nodes_ceiling(self, power):
        assert power.disagg_cpu_nodes(367) == 12
        assert power.disagg_cpu_nodes(32) == 1
        assert power.disagg_cpu_nodes(33) == 2

    def test_presto_worst_case_matches_paper_quote(self, power):
        """9 units x 25 W = 225 W (Section VI-B)."""
        assert power.presto_power(9, worst_case=True) == pytest.approx(225.0)

    def test_presto_active_includes_host(self, power):
        expected = 9 * CALIBRATION.smartssd_active_power + CALIBRATION.presto_host_power
        assert power.presto_power(9) == pytest.approx(expected)

    def test_accelerator_pool(self, power):
        one = power.accelerator_pool_power("a100", 1)
        two = power.accelerator_pool_power("a100", 2)
        assert two - one == pytest.approx(CALIBRATION.a100_preproc_active_power)

    def test_unknown_device(self, power):
        with pytest.raises(ConfigurationError):
            power.accelerator_pool_power("tpu", 1)

    def test_negative_inputs(self, power):
        with pytest.raises(ConfigurationError):
            power.disagg_cpu_power(-1)
        with pytest.raises(ConfigurationError):
            power.presto_power(-1)

    def test_device_table(self):
        assert DEVICE_POWER["smartssd"].tdp == 25.0
        assert DEVICE_POWER["a100"].tdp == 250.0
        assert DEVICE_POWER["u280"].tdp == 225.0
