"""Tests for the calibration constants, including validation of the
analytic byte model against the real columnar writer."""

from dataclasses import fields

import pytest

from repro.dataio.columnar import write_table
from repro.errors import ConfigurationError
from repro.features.specs import all_models, get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.hardware.calibration import (
    CALIBRATION,
    DOMAINS,
    FIELD_DOMAINS,
    Calibration,
)


class TestByteModel:
    @pytest.mark.parametrize("name", ["RM1", "RM2"])
    def test_encoded_bytes_match_real_writer(self, name):
        """The analytic encoded-bytes model should track the functional
        writer within 25% (it drives every Extract/ingress cost)."""
        spec = get_model(name)
        rows = 512
        data = SyntheticTableGenerator(spec, seed=0).generate(rows)
        buf = write_table(spec.schema(), data, row_group_size=rows)
        real_per_sample = len(buf) / rows
        model_per_sample = CALIBRATION.encoded_bytes_per_sample(spec)
        assert model_per_sample == pytest.approx(real_per_sample, rel=0.25)

    def test_encoded_batch_bytes(self):
        spec = get_model("RM5")
        assert CALIBRATION.encoded_batch_bytes(spec) == pytest.approx(
            spec.batch_size * CALIBRATION.encoded_bytes_per_sample(spec)
        )

    def test_train_ready_bytes(self):
        spec = get_model("RM5")
        per_batch = CALIBRATION.train_ready_batch_bytes(spec)
        assert per_batch == spec.train_ready_bytes_per_sample() * spec.batch_size

    def test_bigger_models_bigger_bytes(self):
        sizes = [CALIBRATION.encoded_bytes_per_sample(s) for s in all_models()]
        assert sizes[0] < sizes[1]  # RM1 << RM2
        assert sizes[1] == sizes[4]  # RM2-5 share raw schema size


class TestDerivedHelpers:
    def test_accel_element_rate(self):
        assert CALIBRATION.accel_element_rate(2) == pytest.approx(
            2 * CALIBRATION.accelerator_clock_hz
        )

    def test_cpu_core_shares(self):
        assert CALIBRATION.cpu_core_power == pytest.approx(350.0 / 32)
        assert CALIBRATION.cpu_core_price == pytest.approx(12_000.0 / 32)

    def test_amortization_hours(self):
        assert CALIBRATION.amortization_hours == pytest.approx(3 * 365 * 24)

    def test_smartssd_within_nvme_envelope(self):
        assert CALIBRATION.smartssd_tdp <= 25.0
        assert CALIBRATION.smartssd_active_power <= CALIBRATION.smartssd_tdp

    def test_custom_calibration_is_independent(self):
        custom = Calibration(cpu_hash_per_element=1e-6)
        assert custom.cpu_hash_per_element != CALIBRATION.cpu_hash_per_element
        assert CALIBRATION.cpu_hash_per_element == 190e-9


#: domain -> (values inside it, values outside it)
DOMAIN_CASES = {
    "positive": ((5e-324, 1e300), (0.0, -1.0)),
    "non-negative": ((0.0, 1e300), (-5e-324, -1.0)),
    "a fraction in (0, 1]": ((5e-324, 1.0), (0.0, 1.0000001, -0.5)),
}


class TestDomains:
    def test_every_field_states_one_domain(self):
        assert list(FIELD_DOMAINS) == [f.name for f in fields(Calibration)]
        assert set(FIELD_DOMAINS.values()) == set(DOMAINS) == set(DOMAIN_CASES)

    @pytest.mark.parametrize("name", list(FIELD_DOMAINS))
    def test_construction_checks_the_domain(self, name):
        domain = FIELD_DOMAINS[name]
        inside, outside = DOMAIN_CASES[domain]
        for value in inside:
            assert getattr(Calibration(**{name: value}), name) == value
        for value in outside + (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=repr(name)):
                Calibration(**{name: value})

    @pytest.mark.parametrize("name", ["network_bandwidth", "cpu_batch_overhead",
                                      "colocation_factor"])
    def test_an_override_reaches_the_same_check(self, name):
        """A ``Scenario`` override and a constructed ``Calibration`` refuse
        an out-of-domain value with one message."""
        from repro.api import Scenario

        value = DOMAIN_CASES[FIELD_DOMAINS[name]][1][-1]
        with pytest.raises(ConfigurationError) as direct:
            Calibration(**{name: value})
        with pytest.raises(ConfigurationError) as override:
            Scenario(model="RM1", system="Disagg", calibration={name: value})
        assert str(override.value) == str(direct.value) == (
            f"calibration field {name!r} must be {FIELD_DOMAINS[name]}, "
            f"got {value!r}"
        )
