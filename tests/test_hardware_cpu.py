"""Tests for the CPU worker cost model."""

import pytest

from repro.errors import ConfigurationError
from repro.features.specs import all_models, get_model
from repro.hardware.calibration import Calibration
from repro.hardware.cpu import CpuCoreModel
from repro.ops.pipeline import OpCounts


@pytest.fixture(scope="module")
def model():
    return CpuCoreModel()


class TestBatchLatency:
    def test_all_steps_positive(self, model):
        lat = model.batch_latency(get_model("RM5"))
        for step, value in lat.as_dict().items():
            assert value > 0, step

    def test_total_is_sum(self, model):
        lat = model.batch_latency(get_model("RM3"))
        assert lat.total == pytest.approx(sum(lat.as_dict().values()))

    def test_transform_share_dominates(self, model):
        """The paper's central characterization: generation + normalization
        are the bottleneck on CPUs (~79% on average)."""
        shares = [model.batch_latency(s).transform_share for s in all_models()]
        assert all(0.6 < share < 0.9 for share in shares)
        assert sum(shares) / len(shares) == pytest.approx(0.79, abs=0.03)

    def test_production_models_much_slower(self, model):
        rm1 = model.batch_latency(get_model("RM1")).total
        rm5 = model.batch_latency(get_model("RM5")).total
        assert 10 < rm5 / rm1 < 20  # paper: ~14x

    def test_bucket_size_increases_bucketize(self, model):
        """RM3->RM5 share configs except bucket size (1024 -> 4096)."""
        rm3 = model.batch_latency(get_model("RM3")).bucketize
        rm5 = model.batch_latency(get_model("RM5")).bucketize
        assert rm5 > rm3

    def test_more_generated_features_increase_bucketize(self, model):
        """RM2 (21 generated) vs RM3 (42 generated), same bucket size."""
        rm2 = model.batch_latency(get_model("RM2")).bucketize
        rm3 = model.batch_latency(get_model("RM3")).bucketize
        assert rm3 == pytest.approx(2 * rm2, rel=0.01)

    def test_custom_counts_respected(self, model):
        spec = get_model("RM1")
        half = OpCounts.expected_for(spec, spec.batch_size // 2)
        full = model.batch_latency(spec)
        partial = model.batch_latency(spec, counts=half)
        assert partial.sigridhash == pytest.approx(full.sigridhash / 2)


class TestThroughput:
    def test_core_throughput_matches_latency(self, model):
        spec = get_model("RM4")
        latency = model.batch_latency(spec).total
        assert model.core_throughput(spec) == pytest.approx(
            spec.batch_size / latency
        )

    def test_disagg_scales_linearly(self, model):
        spec = get_model("RM5")
        single = model.disagg_throughput(spec, 1)
        assert model.disagg_throughput(spec, 64) == pytest.approx(64 * single)

    def test_disagg_zero_cores(self, model):
        assert model.disagg_throughput(get_model("RM1"), 0) == 0.0

    def test_disagg_negative_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.disagg_throughput(get_model("RM1"), -1)

    def test_colocated_derated_vs_disagg(self, model):
        spec = get_model("RM5")
        assert model.colocated_throughput(spec, 1) < model.disagg_throughput(spec, 1)

    def test_colocated_scaling_fifteen_x(self, model):
        spec = get_model("RM5")
        ratio = model.colocated_throughput(spec, 16) / model.colocated_throughput(
            spec, 1
        )
        assert ratio == pytest.approx(15.0, rel=0.02)

    def test_cores_required_monotone_in_target(self, model):
        spec = get_model("RM2")
        assert model.cores_required(spec, 1e6) >= model.cores_required(spec, 1e5)

    def test_cores_required_zero_target(self, model):
        assert model.cores_required(get_model("RM1"), 0.0) == 0


class TestCalibrationSensitivity:
    def test_slower_hash_slows_only_hash(self):
        base = CpuCoreModel()
        slow = CpuCoreModel(Calibration(cpu_hash_per_element=380e-9))
        spec = get_model("RM5")
        assert slow.batch_latency(spec).sigridhash == pytest.approx(
            2 * base.batch_latency(spec).sigridhash
        )
        assert slow.batch_latency(spec).log == pytest.approx(
            base.batch_latency(spec).log
        )
