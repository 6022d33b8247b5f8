"""Tests for the ablation/sensitivity experiments."""

import pytest

from repro.experiments import (
    abl_batch_size,
    abl_double_buffering,
    abl_lane_sweep,
    abl_multijob,
    abl_network_sweep,
    abl_row_vs_columnar,
)


class TestRowVsColumnar:
    @pytest.fixture(scope="class")
    def result(self):
        return abl_row_vs_columnar.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims()), [
            c.render() for c in result.claims() if not c.holds
        ]

    def test_columnar_monotone_in_subset(self, result):
        assert all(
            a > b for a, b in zip(result.columnar_bytes, result.columnar_bytes[1:])
        )

    def test_row_bytes_constant(self, result):
        assert len(set(result.row_bytes)) == 1

    def test_overfetch_grows_as_subset_shrinks(self, result):
        factors = [result.overfetch_factor(i) for i in range(len(result.fractions))]
        assert all(b > a for a, b in zip(factors, factors[1:]))

    def test_render(self, result):
        assert "overfetch" in result.render()


class TestDoubleBuffering:
    @pytest.fixture(scope="class")
    def result(self):
        return abl_double_buffering.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims())

    def test_pipelining_always_helps(self, result):
        for model in result.pipelined_throughput:
            assert result.gain(model) > 1.5

    def test_serial_needs_more_units(self, result):
        for model in result.pipelined_units:
            assert result.serial_units[model] > result.pipelined_units[model]


class TestLaneSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return abl_lane_sweep.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims())

    def test_transform_time_halves_per_scale(self, result):
        for before, after in zip(result.transform_ms, result.transform_ms[1:]):
            assert after == pytest.approx(before / 2, rel=0.01)

    def test_big_scales_do_not_fit(self, result):
        assert result.fits_smartssd[0]
        assert not result.fits_smartssd[-1]

    def test_throughput_saturates(self, result):
        assert max(result.throughput) / min(result.throughput) < 1.05


class TestNetworkSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return abl_network_sweep.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims())

    def test_slow_link_hurts_presto_more(self, result):
        """At 1 GbE PreSto's egress throttles its throughput."""
        i1 = result.links.index(1.0)
        i10 = result.links.index(10.0)
        assert result.presto_throughput[i1] < result.presto_throughput[i10] / 2

    def test_read_share_shrinks_with_bandwidth(self, result):
        shares = result.disagg_read_share
        assert all(a > b for a, b in zip(shares, shares[1:]))


class TestBatchSize:
    @pytest.fixture(scope="class")
    def result(self):
        return abl_batch_size.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims())

    def test_presto_cost_monotone_decreasing(self, result):
        costs = result.presto_us_per_sample
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_speedup_monotone_increasing(self, result):
        speedups = [result.speedup(i) for i in range(len(result.batch_sizes))]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))


class TestMultiJob:
    @pytest.fixture(scope="class")
    def result(self):
        return abl_multijob.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims())

    def test_presto_pool_far_smaller(self, result):
        assert result.presto_pool * 10 < result.disagg_pool

    def test_custom_mix(self):
        small = abl_multijob.run(mix=(("RM1", 1), ("RM5", 1)))
        assert small.num_jobs == 2
        assert small.presto_pool == 3 + 9

    def test_half_pool_admits_first_fit_in_mix_order(self):
        # RM1 needs 3 SmartSSDs, RM5 needs 9: half of 12 admits the RM1
        # job (first in the mix) and turns the RM5 job away
        small = abl_multijob.run(mix=(("RM1", 1), ("RM5", 1)))
        assert small.rejected_at_half_presto == 1
        assert small.half_pool_utilization_presto == 3 / 6

    def test_empty_mix_rejected(self):
        from repro.errors import ProvisioningError

        with pytest.raises(ProvisioningError, match="empty"):
            abl_multijob.run(mix=(("RM1", 0),))


class TestNetworkContention:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import abl_network_contention

        return abl_network_contention.run()

    def test_claims_hold(self, result):
        assert all(c.holds for c in result.claims())

    def test_presto_always_moves_fewer_total_bytes(self, result):
        for model in result.disagg_bytes_per_sample:
            assert result.traffic_reduction(model) > 1.0

    def test_rm1_nuance_tensors_exceed_compressed_raw(self, result):
        """For RM1 the train-ready tensors are *larger* than the varint-
        compressed raw data, so PreSto's storage-NIC egress benefit only
        materializes on production models — an honest model finding."""
        assert result.nic_headroom("RM1") < 1.0
        for model in ("RM2", "RM3", "RM4", "RM5"):
            assert result.nic_headroom(model) > 1.4

    def test_render(self, result):
        assert "jobs/NIC" in result.render()
