"""Tests for the system design points, their power and price, and
provisioning."""

import dataclasses

import pytest

from repro.api import available_systems, get_system
from repro.core.provision import ProvisioningPlan, provision, workers_for
from repro.core.systems import (
    A100PoolSystem,
    CoLocatedCpuSystem,
    DisaggCpuSystem,
    PreStoSystem,
    PreStoU280System,
    U280PoolSystem,
)
from repro.errors import ConfigurationError, ProvisioningError
from repro.features.specs import get_model
from repro.hardware.calibration import CALIBRATION

#: the six built-in design points
DESIGNS = (
    DisaggCpuSystem, CoLocatedCpuSystem, PreStoSystem, A100PoolSystem,
    U280PoolSystem, PreStoU280System,
)


class TestProvisioning:
    def test_workers_for_ceiling(self):
        assert workers_for(100.0, 30.0) == 4
        assert workers_for(90.0, 30.0) == 3
        assert workers_for(0.0, 30.0) == 0

    def test_invalid_inputs(self):
        with pytest.raises(ProvisioningError):
            workers_for(10.0, 0.0)
        with pytest.raises(ProvisioningError):
            workers_for(-1.0, 10.0)

    def test_plan_headroom_at_least_one(self):
        plan = provision(get_model("RM5"), worker_throughput=50_000.0, num_gpus=8)
        assert plan.headroom >= 1.0
        assert plan.aggregate_preprocessing_throughput >= plan.training_throughput

    def test_plan_fields(self):
        plan = ProvisioningPlan("RM1", 100.0, 30.0, 4)
        assert plan.aggregate_preprocessing_throughput == pytest.approx(120.0)
        assert plan.headroom == pytest.approx(1.2)


class TestSystemContracts:
    @pytest.mark.parametrize("name", list(available_systems()))
    def test_common_interface(self, name):
        system = get_system(name, get_model("RM2"))
        assert system.worker_throughput() > 0
        assert system.power(2) > 0
        assert system.capex(2) >= 0

    def test_linear_scaling_default(self):
        system = DisaggCpuSystem(get_model("RM3"))
        assert system.aggregate_throughput(10) == pytest.approx(
            10 * system.worker_throughput()
        )
        with pytest.raises(ConfigurationError):
            system.aggregate_throughput(-1)

    @pytest.mark.parametrize("method", ["power", "capex"])
    @pytest.mark.parametrize("design", DESIGNS, ids=lambda cls: cls.name)
    def test_a_negative_worker_count_is_refused(self, design, method):
        system = design(get_model("RM1"))
        with pytest.raises(ConfigurationError, match="num_workers must be non-negative"):
            getattr(system, method)(-1)
        assert getattr(system, method)(0) >= 0


class TestPower:
    def test_per_core_power_is_linear(self):
        system = DisaggCpuSystem(get_model("RM5"))
        assert system.power(64) == pytest.approx(2 * system.power(32))
        assert system.power(32) == pytest.approx(CALIBRATION.cpu_node_power)

    def test_presto_active_power_includes_the_host_share(self):
        expected = 9 * CALIBRATION.smartssd_active_power + CALIBRATION.presto_host_power
        assert PreStoSystem(get_model("RM5")).power(9) == pytest.approx(expected)

    def test_a_pool_adds_one_device_per_worker(self):
        system = A100PoolSystem(get_model("RM1"))
        assert system.power(2) - system.power(1) == pytest.approx(
            CALIBRATION.a100_preproc_active_power
        )

    def test_both_u280_designs_price_the_same_card(self):
        spec = get_model("RM1")
        pool, integrated = U280PoolSystem(spec), PreStoU280System(spec)
        assert (pool.power(3), pool.capex(3)) == (integrated.power(3), integrated.capex(3))
        assert pool.device_power == CALIBRATION.u280_active_power

    def test_device_power_and_price_read_the_calibration(self):
        cal = dataclasses.replace(
            CALIBRATION, smartssd_active_power=11.0, smartssd_price=900.0
        )
        system = PreStoSystem(get_model("RM1"), cal)
        assert (system.device_power, system.device_price) == (11.0, 900.0)


class TestDisaggCpu:
    def test_provision_rm5_367(self):
        plan = DisaggCpuSystem(get_model("RM5")).provision_for(8)
        assert plan.num_workers == 367

    def test_nodes(self):
        system = DisaggCpuSystem(get_model("RM5"))
        assert system.nodes(367) == 12
        assert system.nodes(32) == 1
        assert system.nodes(33) == 2

    def test_cost_per_core(self):
        system = DisaggCpuSystem(get_model("RM1"))
        assert system.capex(64) == pytest.approx(64 * 12_000 / 32)


class TestCoLocated:
    def test_core_cap_enforced(self):
        system = CoLocatedCpuSystem(get_model("RM5"))
        with pytest.raises(ConfigurationError, match="caps at 16"):
            system.aggregate_throughput(17)

    def test_sublinear_scaling(self):
        system = CoLocatedCpuSystem(get_model("RM5"))
        assert system.aggregate_throughput(16) < 16 * system.aggregate_throughput(1)

    def test_no_capex(self):
        assert CoLocatedCpuSystem(get_model("RM1")).capex(16) == 0.0


class TestPreSto:
    def test_provision_max_nine_units(self):
        from repro.features.specs import all_models

        units = [
            PreStoSystem(spec).provision_for(8).num_workers for spec in all_models()
        ]
        assert max(units) == 9

    def test_single_device_beats_32_cores(self):
        for name in ("RM1", "RM3", "RM5"):
            spec = get_model(name)
            presto = PreStoSystem(spec).worker_throughput()
            disagg32 = DisaggCpuSystem(spec).aggregate_throughput(32)
            assert presto > disagg32

    def test_worst_case_power(self):
        """9 units x 25 W = 225 W (Section VI-B), with no host share."""
        system = PreStoSystem(get_model("RM5"))
        assert system.power(9, worst_case=True) == pytest.approx(225.0)

    def test_capex_includes_host_share(self):
        system = PreStoSystem(get_model("RM5"))
        assert system.capex(9) == pytest.approx(9 * 2500 + 3000)


class TestAlternatives:
    def test_presto_faster_than_a100(self):
        spec = get_model("RM5")
        assert (
            PreStoSystem(spec).worker_throughput()
            > 2.0 * A100PoolSystem(spec).worker_throughput()
        )

    def test_u280_slightly_faster_than_smartssd(self):
        spec = get_model("RM5")
        ratio = (
            U280PoolSystem(spec).worker_throughput()
            / PreStoSystem(spec).worker_throughput()
        )
        assert 1.0 < ratio < 1.35

    def test_presto_u280_at_least_u280_pool(self):
        spec = get_model("RM5")
        assert (
            PreStoU280System(spec).worker_throughput()
            >= U280PoolSystem(spec).worker_throughput() * 0.99
        )

    def test_smartssd_best_perf_per_watt(self):
        spec = get_model("RM5")
        designs = {
            "presto": (PreStoSystem(spec).worker_throughput(), 16.0),
            "a100": (A100PoolSystem(spec).worker_throughput(), 100.0),
            "u280": (U280PoolSystem(spec).worker_throughput(), 46.0),
        }
        per_watt = {k: t / p for k, (t, p) in designs.items()}
        assert per_watt["presto"] == max(per_watt.values())
