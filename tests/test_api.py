"""Tests for the declarative Scenario API: registry, Scenario, Sweep,
RunResult, and the deprecation shims over the old entry points."""

import dataclasses
import json
import pickle

import pytest

from repro.api import (
    REGISTRY,
    RunResult,
    Scenario,
    Sweep,
    available_systems,
    calibration_overrides,
    get_system,
    register_system,
)
from repro.core.provision import workers_for
from repro.core.systems import PreStoSystem
from repro.errors import ConfigurationError, ProvisioningError
from repro.features.specs import get_model
from repro.hardware.calibration import CALIBRATION

BUILTIN_SYSTEMS = ("Disagg", "Co-located", "PreSto", "A100", "U280", "PreSto (U280)")


class TestRegistry:
    def test_builtins_registered(self):
        names = available_systems()
        for name in BUILTIN_SYSTEMS:
            assert name in names

    def test_create_by_name(self):
        system = get_system("PreSto", get_model("RM1"))
        assert isinstance(system, PreStoSystem)
        assert system.worker_throughput() > 0

    def test_alias_and_case_insensitive_lookup(self):
        assert REGISTRY.canonical("PreSto (SmartSSD)") == "PreSto"
        assert REGISTRY.canonical("presto") == "PreSto"
        assert "disagg" in REGISTRY

    def test_unknown_system_lists_names(self):
        with pytest.raises(ConfigurationError, match="registered systems"):
            REGISTRY.canonical("NoSuchSystem")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_system("PreSto")(PreStoSystem)

    def test_register_and_unregister_custom(self):
        @register_system("Test-Custom")
        class CustomSystem(PreStoSystem):
            name = "Test-Custom"

        try:
            assert "Test-Custom" in available_systems()
            system = get_system("Test-Custom", get_model("RM1"))
            assert isinstance(system, CustomSystem)
            # and it flows straight into the Scenario front door
            plan = Scenario(model="RM1", system="Test-Custom").provision_plan()
            assert plan.num_workers >= 1
        finally:
            REGISTRY.unregister("Test-Custom")
        assert "Test-Custom" not in available_systems()

    def test_invalid_registrations(self):
        with pytest.raises(ConfigurationError, match="non-empty string"):
            REGISTRY.register("", PreStoSystem)
        with pytest.raises(ConfigurationError, match="callable"):
            REGISTRY.register("Test-NotCallable", object())


class TestScenarioValidation:
    def test_normalizes_model_and_system(self):
        scenario = Scenario(model="rm5", system="presto")
        assert scenario.model == "RM5"
        assert scenario.system == "PreSto"

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            Scenario(model="RM9", system="PreSto")

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError, match="unknown system"):
            Scenario(model="RM1", system="Disco")

    @pytest.mark.parametrize("field", ["num_gpus", "num_batches", "queue_capacity"])
    def test_positive_ints_required(self, field):
        with pytest.raises(ConfigurationError, match=field):
            Scenario(model="RM1", system="PreSto", **{field: 0})

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="num_workers"):
            Scenario(model="RM1", system="PreSto", num_workers=0)

    def test_unknown_calibration_field(self):
        with pytest.raises(ConfigurationError, match="calibration field"):
            Scenario(model="RM1", system="PreSto", calibration={"warp_speed": 9})

    def test_non_numeric_override(self):
        with pytest.raises(ConfigurationError, match="must be a number"):
            Scenario(model="RM1", system="PreSto",
                     calibration={"p2p_bandwidth": "fast"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_override(self, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            Scenario(model="RM1", system="PreSto", num_gpus=1, num_batches=50,
                     calibration={"gpu_preproc_pcie_bw": value})

    def test_zero_copy_bandwidth_is_a_typed_error(self):
        """Refused at construction, by the field's stated domain."""
        with pytest.raises(ConfigurationError, match="must be positive"):
            Scenario(model="RM1", system="PreSto", num_gpus=1, num_batches=50,
                     calibration={"gpu_preproc_pcie_bw": 0.0})

    def test_scenario_is_frozen_and_hashable(self):
        scenario = Scenario(model="RM1", system="PreSto",
                            calibration={"p2p_bandwidth": 4e9})
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.model = "RM2"
        assert scenario == Scenario(model="RM1", system="PreSto",
                                    calibration={"p2p_bandwidth": 4e9})
        assert hash(scenario)


class TestScenarioSerialization:
    def test_dict_round_trip(self):
        scenario = Scenario(model="RM3", system="U280", num_gpus=4,
                            num_batches=50, queue_capacity=8,
                            calibration={"network_bandwidth": 25e9})
        data = scenario.to_dict()
        assert data["calibration"] == {"network_bandwidth": 25e9}
        assert Scenario.from_dict(data) == scenario

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            Scenario.from_dict({"model": "RM1", "system": "PreSto", "gpus": 8})

    @pytest.mark.parametrize("key,value", [("seed", 0), ("provision", "demand")])
    def test_removed_fields_are_refused(self, key, value):
        # neither changed a run: the seed was recorded only, and provision
        # restated whether num_workers is set
        data = Scenario(model="RM1", system="PreSto").to_dict()
        with pytest.raises(ConfigurationError, match=f"unknown scenario keys.*'{key}'"):
            Scenario.from_dict({**data, key: value})

    def test_scenario_pickles(self):
        scenario = Scenario(model="RM1", system="PreSto",
                            calibration={"p2p_bandwidth": 4e9})
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_calibration_overrides_diff(self):
        assert calibration_overrides(CALIBRATION) == {}
        custom = dataclasses.replace(CALIBRATION, p2p_bandwidth=4e9)
        assert calibration_overrides(custom) == {"p2p_bandwidth": 4e9}
        # overrides rebuild the same calibration instance
        scenario = Scenario(model="RM1", system="PreSto",
                            calibration=calibration_overrides(custom))
        assert scenario.build_calibration() == custom


class TestScenarioRun:
    def test_run_returns_uniform_result(self):
        result = Scenario(model="RM1", system="PreSto", num_gpus=1,
                          num_batches=100).run()
        assert isinstance(result, RunResult)
        assert result.num_workers >= 1
        assert 0.0 <= result.gpu_utilization <= 1.0
        assert result.steady_state_utilization > 0.95  # provisioned to demand
        assert result.headroom >= 1.0
        assert result.power_watts > 0
        assert result.capex_dollars > 0
        assert result.to_dict()["scenario"]["model"] == "RM1"
        assert "RM1/PreSto" in result.summary()

    def test_starved_scenario_reports_actual_supply(self):
        """Supply comes from the preprocess manager's production, not a
        copy of the training rate (the old endtoend bug)."""
        result = Scenario(model="RM5", system="Disagg", num_gpus=1,
                          num_workers=1, num_batches=10).run()
        assert result.starved
        assert result.preprocessing_throughput < result.training_demand
        assert result.headroom < 1.0

    def test_provisioned_supply_can_exceed_consumption(self):
        result = Scenario(model="RM1", system="PreSto", num_gpus=1,
                          num_batches=100).run()
        assert result.preprocessing_throughput >= result.training_throughput

    def test_calibration_override_changes_outcome(self):
        base = Scenario(model="RM5", system="Disagg", num_gpus=1,
                        num_workers=8, num_batches=20)
        slow = dataclasses.replace(base, calibration={"cpu_hash_per_element": 1e-6})
        fast = base.run()
        throttled = slow.run()
        assert throttled.preprocessing_throughput < fast.preprocessing_throughput

    def test_explicit_workers_respected(self):
        result = Scenario(model="RM1", system="PreSto", num_gpus=1,
                          num_workers=3, num_batches=30).run()
        assert result.num_workers == 3


class TestSweep:
    def test_grid_order_and_size(self):
        sweep = Sweep.grid(models=("RM1", "RM2"), systems=("Disagg", "PreSto"),
                           num_gpus=(1, 8))
        assert len(sweep) == 8
        assert sweep[0].label == "RM1/Disagg/1gpu"
        assert sweep[-1].label == "RM2/PreSto/8gpu"

    def test_grid_accepts_scalars(self):
        assert len(Sweep.grid(models="RM1", systems="PreSto", num_gpus=1)) == 1

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            Sweep([])

    def test_non_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="Scenario"):
            Sweep(["RM1/PreSto"])

    def test_rerun_matches_exactly_in_scenario_order(self):
        """The acceptance bar: results come back in scenario order, and a
        second run of the same sweep is byte-identical to the first."""
        sweep = Sweep.grid(models=("RM1", "RM2"), systems=("PreSto", "Disagg"),
                           num_gpus=(1,), num_batches=20)
        first = sweep.run()
        again = sweep.run()
        assert [r.scenario for r in first] == list(sweep)
        assert first == again
        first_bytes = json.dumps([r.to_dict() for r in first]).encode()
        again_bytes = json.dumps([r.to_dict() for r in again]).encode()
        assert first_bytes == again_bytes


class TestEndToEndConstruction:
    def test_endtoend_accepts_system_name(self):
        from repro.core.endtoend import EndToEndSimulation

        sim = EndToEndSimulation(get_model("RM1"), "PreSto", num_gpus=1)
        stats = sim.run(num_batches=20)
        assert stats.num_batches == 20
        assert stats.num_workers >= 1

    def test_endtoend_requires_exactly_one_source(self):
        """The system is the simulation's one source of workers: a bare
        worker factory in its place is a typed error, not a second form."""
        from repro.core.cpu_worker import CpuPreprocessingWorker
        from repro.core.endtoend import EndToEndSimulation

        spec = get_model("RM1")
        with pytest.raises(TypeError):
            EndToEndSimulation(spec)
        with pytest.raises(ConfigurationError, match="PreprocessingSystem"):
            EndToEndSimulation(spec, lambda: CpuPreprocessingWorker(spec))
        with pytest.raises(ConfigurationError, match="unknown system"):
            EndToEndSimulation(spec, "no-such-system")


class TestProvisioningBoundary:
    def test_subnormal_demand_gets_a_worker(self):
        # 5e-324 / 2.0 underflows to 0.0; ceil would allocate zero workers
        assert workers_for(5e-324, 2.0) == 1

    def test_zero_demand_stays_zero(self):
        assert workers_for(0.0, 30.0) == 0

    def test_exact_multiple_stays_tight(self):
        assert workers_for(90.0, 30.0) == 3

    @pytest.mark.parametrize("demand, supply", [
        (5e6, 1e-303),  # T / P overflows to infinity
        (2.0**60, 1.0),  # a one-worker step no longer moves count * P
    ])
    def test_a_ratio_with_no_exact_count_is_a_typed_error(self, demand, supply):
        with pytest.raises(ProvisioningError, match="has no exact worker count"):
            workers_for(demand, supply)
