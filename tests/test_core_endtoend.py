"""Tests for the preprocess manager and the end-to-end DES pipeline."""

import dataclasses
import math
import sys
from unittest import mock

import pytest

from repro.api import REGISTRY, Scenario
from repro.core import endtoend
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.endtoend import EndToEndSimulation, _simulate
from repro.core.isp_worker import IspPreprocessingWorker
from repro.core.manager import PreprocessManager
from repro.core.provision import ProvisioningPlan, workers_for
from repro.errors import (
    ConfigurationError,
    ProvisioningError,
    ReproError,
    SimulationError,
)
from repro.features.specs import get_model
from repro.training.gpu import GpuTrainingModel

MODELS = ["RM1", "RM2", "RM3", "RM4", "RM5"]


@pytest.fixture
def breakdowns(monkeypatch):
    """How many times a CPU worker computed its step breakdown."""
    calls = []
    original = CpuPreprocessingWorker.batch_breakdown

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CpuPreprocessingWorker, "batch_breakdown", counting)
    return calls


class TestPreprocessManager:
    def test_plan_matches_provision_math(self):
        """The worker count for a demand ``T`` is the paper's ``ceil(T/P)``
        of the manager's worker."""
        spec = get_model("RM5")
        manager = PreprocessManager(IspPreprocessingWorker(spec))
        worker_throughput = manager.worker.throughput()
        expected = math.ceil(1_000_000.0 / worker_throughput)
        assert workers_for(1_000_000.0, worker_throughput) == expected

    def test_launch_splits_batches_evenly(self):
        spec = get_model("RM1")
        manager = PreprocessManager(IspPreprocessingWorker(spec))
        shares = manager.launch(num_batches=10, num_workers=3)
        assert sorted(shares) == [3, 3, 4]

    def test_launch_gives_workers_past_the_batches_nothing(self):
        spec = get_model("RM1")
        manager = PreprocessManager(IspPreprocessingWorker(spec))
        assert manager.launch(num_batches=2, num_workers=4) == [1, 1]
        assert manager.launch(num_batches=3, num_workers=10**15) == [1, 1, 1]

    def test_an_astronomic_plan_gives_finite_stats(self):
        """``network_bandwidth=1e-3`` plans 4,177,943,862,398 Disagg workers:
        the run reports them all but launches the 3 with a batch."""
        result = Scenario(
            model="RM1", system="Disagg", calibration={"network_bandwidth": 1e-3},
            num_batches=3,
        ).run()
        assert result.num_workers == 4_177_943_862_398
        assert result.num_batches == 3
        values = [v for v in result.to_dict().values() if isinstance(v, float)]
        assert values and all(math.isfinite(v) for v in values)
        assert result.wall_time > 0

    def test_launch_needs_target(self):
        """A launch needs its worker count: the plan is the caller's."""
        spec = get_model("RM1")
        manager = PreprocessManager(IspPreprocessingWorker(spec))
        with pytest.raises(TypeError):
            manager.launch(num_batches=4)
        with pytest.raises(ConfigurationError, match="num_workers"):
            manager.launch(num_batches=4, num_workers=None)

    def test_launch_zero_workers_rejected(self):
        spec = get_model("RM1")
        manager = PreprocessManager(IspPreprocessingWorker(spec))
        with pytest.raises(ProvisioningError):
            manager.launch(num_batches=4, num_workers=0)

    @pytest.mark.parametrize(
        "num_batches, num_workers, name",
        [
            (2.5, 2, "num_batches"),
            (True, 1, "num_batches"),
            (0, 1, "num_batches"),
            (4, 2.0, "num_workers"),
            (4, True, "num_workers"),
        ],
    )
    def test_launch_counts_must_be_positive_ints(
        self, num_batches, num_workers, name
    ):
        spec = get_model("RM1")
        manager = PreprocessManager(IspPreprocessingWorker(spec))
        with pytest.raises(ConfigurationError, match=f"{name} must be a positive int"):
            manager.launch(num_batches=num_batches, num_workers=num_workers)


class TestEndToEnd:
    def test_provisioned_pipeline_keeps_gpu_busy(self):
        """With ceil(T/P) workers, steady-state GPU utilization approaches 1
        (warmup excluded by running enough batches)."""
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=1)
        stats = sim.run(num_batches=300)
        assert stats.gpu_utilization > 0.9
        assert stats.num_batches == 300

    def test_starved_pipeline_low_utilization(self):
        """One CPU core cannot feed a whole GPU (the Fig. 3 problem)."""
        spec = get_model("RM5")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=1)
        stats = sim.run(num_batches=10, num_workers=1)
        assert stats.gpu_utilization < 0.1
        assert stats.wait_time > 0

    def test_presto_provisioning_feeds_8_gpus(self):
        spec = get_model("RM5")
        sim = EndToEndSimulation(spec, "PreSto", num_gpus=8)
        stats = sim.run(num_batches=400)
        assert stats.num_workers == 9  # the Fig. 14 allocation
        assert stats.gpu_utilization > 0.85

    def test_disagg_provisioning_feeds_8_gpus(self):
        spec = get_model("RM5")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=8)
        stats = sim.run(num_batches=200)
        assert stats.num_workers == 367  # the Fig. 4 allocation
        # the one-batch warmup (a full 2.8 s CPU batch latency) dominates a
        # short run, so assert the steady state
        assert stats.steady_state_utilization > 0.8

    def test_colocated_16_cores_starve_one_gpu(self):
        """Sixteen host cores cannot feed one A100 on RM5 (Figure 3)."""
        spec = get_model("RM5")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=1)
        assert sim.run(num_batches=50, num_workers=16).gpu_utilization < 0.35

    def test_more_workers_higher_throughput(self):
        spec = get_model("RM5")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=1)
        few = sim.run(num_batches=40, num_workers=4)
        sim2 = EndToEndSimulation(spec, "Disagg", num_gpus=1)
        many = sim2.run(num_batches=40, num_workers=16)
        assert many.training_throughput > 2 * few.training_throughput

    def test_invalid_runs(self):
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, "Disagg")
        with pytest.raises(ConfigurationError):
            sim.run(num_batches=0, num_workers=1)
        with pytest.raises(ConfigurationError):
            sim.run(num_batches=0)

    @pytest.mark.parametrize(
        "num_batches, num_workers, name",
        [
            (2.5, 1, "num_batches"),  # an IndexError inside the event loop
            (True, 1, "num_batches"),  # a run of ``True`` batches
            (-1.5, 1, "num_batches"),
            (3, 2.0, "num_workers"),  # a TypeError from ``range``
            (3, True, "num_workers"),
        ],
    )
    def test_run_counts_must_be_positive_ints(self, num_batches, num_workers, name):
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, "Disagg")
        with pytest.raises(ConfigurationError, match=f"{name} must be a positive int"):
            sim.run(num_batches=num_batches, num_workers=num_workers)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_queue_rejected_at_construction(self, capacity):
        spec = get_model("RM1")
        with pytest.raises(ConfigurationError, match="input_queue_capacity"):
            EndToEndSimulation(spec, "PreSto", queue_capacity=capacity)

    def test_stats_consistency(self):
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=1)
        stats = sim.run(num_batches=50, num_workers=8)
        assert stats.wall_time > 0
        assert stats.training_time <= stats.wall_time
        assert 0.0 <= stats.gpu_utilization <= 1.0


class TestOnePlannerForASystemBuiltSimulation:
    """A simulation built from a ``system`` plans through
    ``system.provision_for`` — the planner ``repro provision`` and the fleet
    tier use."""

    @pytest.mark.parametrize("num_gpus", [1, 8])
    @pytest.mark.parametrize("model", ["RM1", "RM5"])
    @pytest.mark.parametrize(
        "name", [name for name in REGISTRY.names() if name != "Co-located"]
    )
    def test_elastic_systems_plan_what_the_manager_planned(
        self, name, model, num_gpus
    ):
        """For an elastic system the plan is Fig. 9's ``ceil(T/P)``: ``T``
        measured by the train manager, ``P`` of the preprocess manager's
        worker; a demand-provisioned run launches that many workers."""
        spec = get_model(model)
        system = REGISTRY.create(name, spec)
        sim = EndToEndSimulation(spec, system, num_gpus=num_gpus)
        demand = sim.train_manager.measure_max_throughput()
        worker_throughput = sim.preprocess_manager.worker.throughput()
        manager_plan = ProvisioningPlan(
            spec_name=spec.name,
            training_throughput=demand,
            worker_throughput=worker_throughput,
            num_workers=workers_for(demand, worker_throughput),
        )
        assert system.provision_for(num_gpus) == manager_plan
        assert sim.run(num_batches=1).num_workers == manager_plan.num_workers

    @pytest.mark.parametrize("model, num_gpus", [("RM5", 8), ("RM1", 1)])
    def test_unsustainable_colocated_job_is_the_systems_own_error(
        self, model, num_gpus
    ):
        scenario = Scenario(model=model, system="Co-located", num_gpus=num_gpus)
        message = "co-located cores per GPU supply only"
        with pytest.raises(ConfigurationError, match=message):
            scenario.provision_plan()
        with pytest.raises(ConfigurationError, match=message):
            scenario.run()

    def test_colocated_workers_are_derated_to_figure_3(self):
        """16 host cores beside one A100 on RM5: the simulated steady-state
        utilization is Figure 3's, not the un-derated 40% (2.2x over)."""
        from repro.experiments import fig3_colocated

        result = Scenario(
            model="RM5", system="Co-located", num_gpus=1, num_workers=16,
            num_batches=1000,
        ).run()
        assert result.steady_state_utilization == pytest.approx(
            fig3_colocated.run().utilization_at_16, rel=0.10
        )


class TestOneWorkerIsPricedOnce:
    """The N workers of a launch are the system's one worker, priced once."""

    @pytest.mark.parametrize("num_gpus, num_workers", [(8, 367), (64, 2931)])
    def test_pricing_does_not_grow_with_the_launch(
        self, breakdowns, num_gpus, num_workers
    ):
        result = Scenario(
            model="RM5", system="Disagg", num_gpus=num_gpus, num_batches=200
        ).run()
        assert result.num_workers == num_workers
        # provision_for's throughput probe and the simulation's one pricing,
        # which the result's worker_throughput reads: at 8 GPUs as at 64
        assert len(breakdowns) == 2

    @pytest.mark.parametrize(
        "num_gpus, num_workers, measured", [(8, None, 2), (64, None, 2), (8, 5, 1)]
    )
    def test_the_gpus_are_measured_once(self, num_gpus, num_workers, measured):
        """``T`` is measured once per plan and once by the train manager at
        launch; the iteration, the step and the result read that value."""
        calls = []
        original = GpuTrainingModel.node_throughput

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        with mock.patch.object(GpuTrainingModel, "node_throughput", counting):
            result = Scenario(
                model="RM5", system="Disagg", num_gpus=num_gpus,
                num_workers=num_workers, num_batches=200,
            ).run()
        assert len(calls) == measured
        assert result.training_demand == original(
            GpuTrainingModel(), get_model("RM5"), num_gpus
        )

    def test_system_launch_fills_every_slot_with_one_worker(self, breakdowns):
        spec = get_model("RM5")
        sim = EndToEndSimulation(spec, "Disagg", num_gpus=8)
        stats = sim.run(num_batches=200, num_workers=367)
        assert stats.num_workers == 367
        # 200 producing slots, one worker priced once
        assert breakdowns == [sim.preprocess_manager.worker]

    def test_fresh_workers_are_priced_each(self, breakdowns):
        """Each simulation makes and prices its own worker: no price is
        carried from one simulation of a system to the next."""
        spec = get_model("RM5")
        system = REGISTRY.create("Disagg", spec)
        sims = [EndToEndSimulation(spec, system) for _ in range(2)]
        for sim in sims:
            sim.run(num_batches=10, num_workers=16)
        first, second = (sim.preprocess_manager.worker for sim in sims)
        assert first is not second
        # one breakdown of each simulation's worker
        assert breakdowns == [first, second]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_one_priced_worker_equals_fresh_workers(self, name, model):
        """A demand-provisioned run hands the loop exactly the producers that
        a fresh worker per producing slot, priced each, would give — or
        raises the same typed error as the plan it could not make."""
        spec = get_model(model)
        system = REGISTRY.create(name, spec)

        def outcome(run):
            try:
                return run()
            except ReproError as exc:
                return type(exc), str(exc)

        def fresh_producers(num_gpus, num_batches):
            num_workers = system.provision_for(num_gpus).num_workers
            shares = PreprocessManager(system.make_worker()).launch(
                num_batches, num_workers
            )
            producers = []
            for share in shares:
                if share:
                    worker = system.make_worker()
                    interval = spec.batch_size / worker.throughput()
                    producers.append((worker.batch_latency(), interval, share))
            return producers

        for num_gpus in (1, 8, 64):
            for num_batches in (1, 3, 200, 5000):
                seen = []

                def recording(latency, interval, shares, *rest):
                    seen.append([(latency, interval, share) for share in shares])
                    return _simulate(latency, interval, shares, *rest)

                sim = EndToEndSimulation(spec, system, num_gpus=num_gpus)
                with mock.patch.object(endtoend, "_simulate", recording):
                    one = outcome(lambda: sim.run(num_batches))
                fresh = outcome(lambda: fresh_producers(num_gpus, num_batches))
                if seen:
                    assert seen == [fresh], (num_gpus, num_batches)
                else:
                    assert one == fresh, (num_gpus, num_batches)


class TestOnlyProducingSlotsCostWork:
    """A system-built run costs the same Python work per slot at 367 slots
    as at 2,931 when only 200 of them produce: the workers fill their slots
    without a factory call each, and only the producing slots are priced
    and simulated."""

    @staticmethod
    def counted_run(num_gpus):
        spec = get_model("RM5")
        system = REGISTRY.create("Disagg", spec)
        make_worker = system.make_worker
        made = []
        system.make_worker = lambda: made.append(1) or make_worker()
        sim = EndToEndSimulation(spec, system=system, num_gpus=num_gpus)
        codes = {EndToEndSimulation.run.__code__, PreprocessManager.launch.__code__}
        lines = []

        def count(frame, event, arg):
            if event == "line":
                lines.append(frame.f_code.co_name)
            return count

        def calls(frame, event, arg):
            # run, launch and the comprehensions they call
            if frame.f_code in codes or frame.f_back.f_code in codes:
                return count
            return None

        producers = []
        simulate = endtoend._simulate

        def recording(*args):
            producers.append(len(args[2]))
            return simulate(*args)

        previous = sys.gettrace()
        with mock.patch.object(endtoend, "_simulate", recording):
            sys.settrace(calls)
            try:
                stats = sim.run(num_batches=200)
            finally:
                sys.settrace(previous)
        return stats, len(made), producers, len(lines)

    def test_per_slot_work_does_not_grow_with_the_launch(self):
        small = self.counted_run(8)
        large = self.counted_run(64)
        assert (small[0].num_workers, large[0].num_workers) == (367, 2931)
        # the constructor's worker and provision_for's throughput probe
        assert small[1] == large[1] == 2
        assert small[2] == large[2] == [200]
        assert small[3] == large[3]


class TestNonFiniteDelays:
    @pytest.mark.parametrize(
        "latency, interval",
        [(float("nan"), 1.0), (1.0, float("inf")), (float("inf"), 1.0)],
    )
    def test_non_finite_producer_is_a_typed_error(self, latency, interval):
        with pytest.raises(SimulationError, match="non-finite delay"):
            _simulate(latency, interval, [3], 4, 0.5, 0.5, 3)

    @pytest.mark.parametrize("iteration", [float("nan"), float("inf")])
    def test_non_finite_trainer_is_a_typed_error(self, iteration):
        with pytest.raises(SimulationError, match="non-finite delay"):
            _simulate(1.0, 1.0, [3], 4, iteration, iteration, 3)


def test_provisioned_to_demand_saturates_the_trainer():
    """The Fig. 9 law: ``ceil(T/P)`` workers keep the trainer busy.  Every
    registered system x RM1-RM5 x 1/8/64 GPUs, run long enough that the
    warmup amortises, reads a steady-state utilization of at least 0.99 —
    or raises the typed error of a design that cannot be provisioned
    (Co-located's fixed per-GPU core budget)."""
    unsaturated, unprovisionable = [], set()
    for name in REGISTRY.names():
        for model in MODELS:
            for num_gpus in (1, 8, 64):
                scenario = Scenario(model=model, system=name, num_gpus=num_gpus)
                try:
                    plan = scenario.provision_plan()
                except ConfigurationError:
                    unprovisionable.add(name)
                    with pytest.raises(ConfigurationError):
                        scenario.run()
                    continue
                batches = max(20 * plan.num_workers, 200)
                result = dataclasses.replace(scenario, num_batches=batches).run()
                if result.steady_state_utilization < 0.99:
                    unsaturated.append(
                        (name, model, num_gpus, result.steady_state_utilization)
                    )
    assert unsaturated == []
    assert unprovisionable <= {"Co-located"}


def test_one_worker_short_of_demand_supplies_its_share():
    """The law's other side: an explicit ``ceil(T/P) - 1`` workers supply
    ``n P`` of the ``T`` the trainer asks for, so the steady state reads
    ``n P / T``.  Every provisionable system x RM1/RM3/RM5 x 1/8 GPUs
    whose plan needs two or more workers; the largest gap reads 0.0026
    (Disagg RM1 on one GPU)."""
    gaps = {}
    for name in REGISTRY.names():
        for model in ("RM1", "RM3", "RM5"):
            for num_gpus in (1, 8):
                scenario = Scenario(model=model, system=name, num_gpus=num_gpus)
                try:
                    plan = scenario.provision_plan()
                except ConfigurationError:
                    continue
                workers = plan.num_workers - 1
                if workers < 1:
                    continue
                result = dataclasses.replace(
                    scenario, num_workers=workers,
                    num_batches=max(20 * workers, 200),
                ).run()
                share = (
                    workers * plan.worker_throughput / plan.training_throughput
                )
                gaps[name, model, num_gpus] = abs(
                    result.steady_state_utilization - share
                )
    assert len(gaps) >= 20
    assert max(gaps.values()) < 0.005, max(gaps.items(), key=lambda kv: kv[1])
