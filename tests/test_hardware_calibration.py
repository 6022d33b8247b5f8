"""Tests for the calibration constants, including validation of the
analytic byte model against the real columnar writer."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import REGISTRY
from repro.dataio.columnar import write_table
from repro.errors import ConfigurationError, ReproError
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
    "a positive integer": ((1, 32, 4.0, 1e300), (0, -1, 5e-324, 2.5)),
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

    @pytest.mark.parametrize("name", ["cpu_node_power", "cpu_cores_per_node"])
    def test_an_int_past_the_largest_float_is_not_finite(self, name):
        """``math.isfinite(10**400)`` raises ``OverflowError``; the check
        turns it into the one message a constructor and an override share."""
        from repro.api import Scenario

        with pytest.raises(ConfigurationError) as direct:
            Calibration(**{name: 10**400})
        with pytest.raises(ConfigurationError) as override:
            Scenario(model="RM1", system="Disagg", calibration={name: 10**400})
        assert str(override.value) == str(direct.value) == (
            f"calibration field {name!r} must be finite, got {10**400!r}"
        )


# -- every override prices or raises a typed error ---------------------------

#: value class -> the override it makes of a field whose default is given
VALUE_CLASSES = {
    "zero": lambda default: 0,
    "negative": lambda default: -1,
    "subnormal": lambda default: 5e-324,
    "huge": lambda default: 1e300,
    "+25%": lambda default: default * 1.25,
    "-25%": lambda default: default * 0.75,
}
MODELS = ("RM1", "RM5")


def prices_or_raises_typed(field, value, system, model):
    """A three-batch ``Scenario`` with one override returns finite numbers
    or raises a ``repro.errors`` type; any other exception propagates."""
    from repro.api import Scenario

    try:
        result = Scenario(
            model=model, system=system, calibration={field: value},
            num_batches=3,
        ).run()
    except ReproError:
        return
    numbers = {
        key: value for key, value in result.to_dict().items()
        if isinstance(value, float)
    }
    assert all(map(math.isfinite, numbers.values())), (field, value, numbers)


class TestEveryOverridePricesOrRaises:
    def test_the_value_class_grid(self):
        """Every field x value class x registered system x model: 3,816
        runs, most refused at construction (~0.5 s)."""
        for field in FIELD_DOMAINS:
            default = getattr(CALIBRATION, field)
            for make in VALUE_CLASSES.values():
                for system in REGISTRY:
                    for model in MODELS:
                        prices_or_raises_typed(field, make(default), system, model)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        field=st.sampled_from(list(FIELD_DOMAINS)),
        factor=st.floats(min_value=0.75, max_value=1.25),
        system=st.sampled_from(list(REGISTRY)),
        model=st.sampled_from(MODELS),
    )
    def test_any_override_within_a_quarter_of_the_default(
        self, field, factor, system, model
    ):
        default = getattr(CALIBRATION, field)
        prices_or_raises_typed(field, default * factor, system, model)

    @pytest.mark.parametrize("field, value, systems, models", [
        ("gpu_peak_flops", 5e-324, tuple(REGISTRY), MODELS),
        ("gpu_flops_efficiency", 5e-324, ("Co-located",), MODELS),
        ("gpu_gather_bw", 5e-324, ("Co-located",), MODELS),
        ("gpu_embedding_traffic_multiplier", 1e300, ("Co-located",), ("RM5",)),
        ("colocation_scaling_exponent", 1e300, ("Co-located",), MODELS),
        ("cpu_cores_per_node", 5e-324, ("Disagg",), MODELS),
        # between the grid's value classes: a finite 1.5e308 s iteration
        # whose demand made the headroom infinite
        ("gpu_gather_bw", 1e-298, ("U280",), ("RM5",)),
    ])
    def test_the_overrides_that_escaped_are_typed(
        self, field, value, systems, models
    ):
        """Each of these once ended in ``ZeroDivisionError``,
        ``OverflowError``, an infinite power and capex or an infinite
        headroom."""
        from repro.api import Scenario

        for system in systems:
            for model in models:
                with pytest.raises(ConfigurationError):
                    Scenario(
                        model=model, system=system,
                        calibration={field: value}, num_batches=3,
                    ).run()
