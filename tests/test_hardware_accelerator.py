"""Tests for the PreSto accelerator timing model."""

import pytest

from repro.errors import ConfigurationError
from repro.features.specs import all_models, get_model
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.cpu import CpuCoreModel


@pytest.fixture(scope="module")
def accel():
    return AcceleratorModel()


class TestStages:
    def test_all_stages_positive(self, accel):
        stages = accel.batch_stages(get_model("RM5"))
        for name, value in stages.as_dict().items():
            assert value > 0, name

    def test_latency_is_sum_of_path(self, accel):
        stages = accel.batch_stages(get_model("RM2"))
        expected = (
            stages.ingress
            + stages.decode
            + stages.bucketize
            + stages.sigridhash
            + stages.log
            + stages.format_conversion
            + stages.load
            + stages.host
        )
        assert stages.latency == pytest.approx(expected)

    def test_bottleneck_is_max_stage(self, accel):
        stages = accel.batch_stages(get_model("RM5"))
        assert stages.bottleneck == max(
            stages.ingress,
            stages.decode,
            stages.transform_time,
            stages.format_conversion,
            stages.load,
        )

    def test_extract_includes_half_host(self, accel):
        stages = accel.batch_stages(get_model("RM5"))
        assert stages.extract == pytest.approx(
            stages.ingress + stages.decode + 0.5 * stages.host
        )
        assert stages.else_time == pytest.approx(0.5 * stages.host)

    def test_as_dict_is_the_figure12_split(self, accel):
        """as_dict() carries the extract/else host split itself, so the
        workers' batch_breakdown() is just as_dict() and sums to latency."""
        stages = accel.batch_stages(get_model("RM5"))
        breakdown = stages.as_dict()
        assert breakdown["extract_read"] + breakdown["extract_decode"] == (
            pytest.approx(stages.extract)
        )
        assert breakdown["else_time"] == stages.else_time
        assert sum(breakdown.values()) == pytest.approx(stages.latency)

    def test_decode_is_the_rm5_bottleneck(self, accel):
        """Section VI-A: decoding is the least parallelizable stage."""
        stages = accel.batch_stages(get_model("RM5"))
        assert stages.bottleneck == pytest.approx(stages.decode)


class TestSpeedAndScale:
    def test_throughput_exceeds_serial_rate(self, accel):
        """Pipelining: device throughput beats batch/latency."""
        spec = get_model("RM5")
        serial = spec.batch_size / accel.batch_latency(spec)
        assert accel.device_throughput(spec) > 1.5 * serial

    def test_transform_much_faster_than_cpu(self, accel):
        """The offloaded ops see large per-op gains from the parallel units."""
        spec = get_model("RM5")
        cpu = CpuCoreModel().batch_latency(spec)
        stages = accel.batch_stages(spec)
        assert cpu.sigridhash / stages.sigridhash > 30
        assert cpu.log / stages.log > 20
        assert cpu.bucketize / stages.bucketize > 50

    def test_unit_scale_speeds_compute_stages(self):
        base = AcceleratorModel(unit_scale=1.0)
        doubled = AcceleratorModel(unit_scale=2.0)
        spec = get_model("RM5")
        assert doubled.batch_stages(spec).sigridhash == pytest.approx(
            base.batch_stages(spec).sigridhash / 2
        )
        assert doubled.batch_stages(spec).decode == pytest.approx(
            base.batch_stages(spec).decode / 2
        )

    def test_unit_scale_does_not_change_ingress(self):
        base = AcceleratorModel(unit_scale=1.0)
        doubled = AcceleratorModel(unit_scale=2.0)
        spec = get_model("RM5")
        assert doubled.batch_stages(spec).ingress == pytest.approx(
            base.batch_stages(spec).ingress
        )

    def test_custom_links(self):
        slow = AcceleratorModel(ingress_bw=1e9)
        fast = AcceleratorModel(ingress_bw=1e10)
        spec = get_model("RM3")
        assert slow.batch_stages(spec).ingress > fast.batch_stages(spec).ingress
        assert slow.batch_stages(spec).load == fast.batch_stages(spec).load

    def test_invalid_unit_scale(self):
        with pytest.raises(ConfigurationError):
            AcceleratorModel(unit_scale=0.0)


class TestPerOpTimes:
    def test_op_times_include_invocation(self, accel):
        spec = get_model("RM5")
        stages = accel.batch_stages(spec)
        assert accel.op_time(spec, "sigridhash") > stages.sigridhash

    def test_unknown_op_rejected(self, accel):
        with pytest.raises(ConfigurationError, match="unknown transform op"):
            accel.op_time(get_model("RM1"), "resize")

    def test_op_time_scales_with_features(self, accel):
        spec = get_model("RM5")
        doubled = spec.scaled(2)
        assert accel.op_time(doubled, "log") > accel.op_time(spec, "log")


class TestEndToEndShape:
    def test_speedup_band_across_models(self, accel):
        """End-to-end single-worker speedups should sit in the paper's
        5-12x band with production models near the top."""
        cpu = CpuCoreModel()
        speedups = {}
        for spec in all_models():
            speedups[spec.name] = (
                cpu.batch_latency(spec).total / accel.batch_latency(spec)
            )
        assert 4.0 < speedups["RM1"] < 8.0
        assert 9.0 < speedups["RM5"] < 12.5
        assert speedups["RM5"] > speedups["RM2"]
