"""Tests for FPGA resource accounting (Table II)."""

import pytest

from repro.errors import CapacityError
from repro.experiments.table2_resources import PAPER_TABLE2
from repro.hardware.fpga import (
    PRESTO_UNITS,
    RESOURCE_KINDS,
    SMARTSSD_FPGA,
    U280_FPGA,
    UNIT_ORDER,
    fits,
    resource_table,
)


class TestTable2Reproduction:
    def test_default_matches_paper_exactly(self):
        """At the default lane configuration the utilization reproduces
        Table II to within rounding (<0.5 percentage points per cell)."""
        table = resource_table(SMARTSSD_FPGA)
        for unit, row in PAPER_TABLE2.items():
            for kind in RESOURCE_KINDS:
                assert table[unit][kind] == pytest.approx(row[kind], abs=0.5), (
                    unit,
                    kind,
                )

    def test_total_is_sum_of_units(self):
        table = resource_table(SMARTSSD_FPGA)
        for kind in RESOURCE_KINDS:
            summed = sum(table[unit][kind] for unit in UNIT_ORDER)
            assert table["Total"][kind] == pytest.approx(summed, abs=0.01)

    def test_only_bucketize_uses_uram(self):
        """Table II: URAM is the Bucketize boundary buffer."""
        table = resource_table(SMARTSSD_FPGA)
        assert table["Bucketize"]["URAM"] > 0
        for unit in ("Decode", "SigridHash", "Log"):
            assert table[unit]["URAM"] == 0

    def test_decode_uses_no_dsp(self):
        table = resource_table(SMARTSSD_FPGA)
        assert table["Decode"]["DSP"] == 0


class TestScaling:
    def test_2x_fits_u280(self):
        assert fits(U280_FPGA, lane_scale=2.0)

    def test_2x_utilization_lower_on_bigger_part(self):
        smart = resource_table(SMARTSSD_FPGA)["Total"]["LUT"]
        u280 = resource_table(U280_FPGA, lane_scale=2.0)["Total"]["LUT"]
        assert u280 < smart  # 2x units on ~2.5x fabric

    def test_oversubscription_raises(self):
        with pytest.raises(CapacityError):
            resource_table(SMARTSSD_FPGA, lane_scale=16.0)

    def test_bad_lane_scale(self):
        with pytest.raises(CapacityError):
            resource_table(SMARTSSD_FPGA, lane_scale=0.0)


class TestUnitResources:
    def test_usage_scales_with_lanes(self):
        unit = PRESTO_UNITS["SigridHash"]
        one = unit.usage(1)
        three = unit.usage(3)
        for kind in RESOURCE_KINDS:
            assert three[kind] >= one[kind]

    def test_zero_lanes_zero_usage(self):
        assert all(v == 0 for v in PRESTO_UNITS["Log"].usage(0).values())

    def test_negative_lanes_rejected(self):
        with pytest.raises(CapacityError):
            PRESTO_UNITS["Log"].usage(-1)

    def test_parts_have_sane_capacities(self):
        assert U280_FPGA.lut > SMARTSSD_FPGA.lut
        assert U280_FPGA.dsp > SMARTSSD_FPGA.dsp
        capacity = SMARTSSD_FPGA.capacity()
        assert set(capacity) == set(RESOURCE_KINDS)
