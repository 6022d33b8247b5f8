"""Tests for the cost/energy analysis."""

import pytest

from repro.analysis.cost import cost_breakdown, cost_efficiency, opex
from repro.analysis.energy import energy_efficiency
from repro.errors import ConfigurationError
from repro.hardware.calibration import CALIBRATION


class TestOpex:
    def test_kwh_math(self):
        # 1000 W for 1000 hours = 1000 kWh at $0.0733/kWh
        assert opex(1000.0, 1000.0) == pytest.approx(1000 * 0.0733)

    def test_default_duration_is_3_years(self):
        expected = 100.0 * CALIBRATION.amortization_hours / 1000 * 0.0733
        assert opex(100.0) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            opex(-1.0)
        with pytest.raises(ConfigurationError):
            opex(1.0, duration_hours=-1.0)


class TestCostEfficiency:
    def test_breakdown_total(self):
        breakdown = cost_breakdown(capex=1000.0, power_watts=100.0)
        assert breakdown.total == pytest.approx(breakdown.capex + breakdown.opex)

    def test_ratio_reduces_to_inverse_cost(self):
        """Same throughput/duration: the efficiency ratio must equal the
        inverse total-cost ratio (the paper's observation)."""
        a = cost_efficiency(1e5, capex=10_000.0, power_watts=1000.0)
        b = cost_efficiency(1e5, capex=5_000.0, power_watts=500.0)
        cost_a = cost_breakdown(10_000.0, 1000.0).total
        cost_b = cost_breakdown(5_000.0, 500.0).total
        assert b / a == pytest.approx(cost_a / cost_b)

    def test_higher_throughput_more_efficient(self):
        low = cost_efficiency(1e4, 1000.0, 100.0)
        high = cost_efficiency(1e5, 1000.0, 100.0)
        assert high == pytest.approx(10 * low)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cost_efficiency(-1.0, 1000.0, 100.0)
        with pytest.raises(ConfigurationError):
            cost_efficiency(1.0, 0.0, 0.0)


class TestEnergy:
    def test_energy_efficiency(self):
        assert energy_efficiency(1000.0, 10.0) == pytest.approx(100.0)
        with pytest.raises(ConfigurationError):
            energy_efficiency(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            energy_efficiency(-1.0, 1.0)
