"""Tests for the cache/utilization model and the GPU preprocessing model.
Power and price are the systems' (tests/test_core_systems.py)."""

from unittest import mock

import pytest

from repro.errors import ConfigurationError
from repro.features.specs import get_model
from repro.hardware import cache
from repro.hardware.cache import CacheModel, NODE_MEM_BW, OPERATOR_PROFILES
from repro.hardware.gpu_preproc import GpuPreprocModel


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

    def test_throughput_positive(self):
        assert GpuPreprocModel().device_throughput(get_model("RM2")) > 0
