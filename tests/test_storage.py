"""Tests for the SmartSSD device model: power envelope and timing."""

import dataclasses

import pytest

from repro.errors import CapacityError
from repro.features.specs import MODEL_NAMES, get_model
from repro.hardware.calibration import CALIBRATION
from repro.storage.smartssd import NVME_POWER_ENVELOPE, SmartSsd


class TestSmartSsd:
    def test_composition(self):
        dev = SmartSsd()
        assert dev.tdp <= 25.0
        assert dev.active_power <= dev.tdp

    def test_throughput_and_latency(self):
        dev = SmartSsd()
        spec = get_model("RM5")
        assert dev.throughput(spec) > 0
        assert dev.preprocess_stages(spec).latency > 0


class TestPowerEnvelope:
    def test_tdp_beyond_nvme_envelope_rejected(self):
        """A card drawing more than an NVMe U.2 slot supplies is not a
        drop-in SSD replacement."""
        hot = dataclasses.replace(CALIBRATION, smartssd_tdp=NVME_POWER_ENVELOPE + 0.5)
        with pytest.raises(CapacityError, match="NVMe envelope"):
            SmartSsd(hot)

    def test_tdp_at_envelope_accepted(self):
        edge = dataclasses.replace(CALIBRATION, smartssd_tdp=NVME_POWER_ENVELOPE)
        assert SmartSsd(edge).tdp == NVME_POWER_ENVELOPE

    def test_power_reads_its_calibration(self):
        cal = dataclasses.replace(
            CALIBRATION, smartssd_active_power=11.0, smartssd_tdp=20.0
        )
        dev = SmartSsd(cal)
        assert (dev.active_power, dev.tdp) == (11.0, 20.0)


class TestPipelinedTiming:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_throughput_is_the_bottleneck_rate(self, model):
        """Double buffering: steady state is one mini-batch per slowest
        stage, never slower than one per end-to-end latency."""
        spec = get_model(model)
        dev = SmartSsd()
        stages = dev.preprocess_stages(spec)
        assert 0 < stages.bottleneck <= stages.latency
        assert dev.throughput(spec) == pytest.approx(spec.batch_size / stages.bottleneck)
        assert dev.throughput(spec) >= spec.batch_size / stages.latency
