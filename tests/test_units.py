"""Tests for unit helpers."""

import pytest

from repro import units


class TestConversions:
    def test_gbps(self):
        assert units.gbps(10.0) == pytest.approx(1.25e9)

    def test_year_consistency(self):
        assert units.YEAR == pytest.approx(365 * 24 * 3600.0)


class TestPrettyPrinting:
    def test_pretty_bytes(self):
        assert units.pretty_bytes(512) == "512.0 B"
        assert units.pretty_bytes(2048) == "2.0 KiB"
        assert units.pretty_bytes(5 * units.MIB) == "5.0 MiB"
        assert units.pretty_bytes(3 * units.GIB) == "3.0 GiB"
        assert "TiB" in units.pretty_bytes(5 * 1024 * units.GIB)

    def test_pretty_time_ranges(self):
        assert units.pretty_time(2.0) == "2.000 s"
        assert units.pretty_time(5e-3) == "5.000 ms"
        assert units.pretty_time(5e-6) == "5.000 us"
        assert "ns" in units.pretty_time(5e-9)
