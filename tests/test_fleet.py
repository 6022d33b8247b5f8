"""Tests for the trace-driven fleet simulation tier: seeded arrival
traces replay byte-identically, the simulator is deterministic under
every placement-policy x autoscaler combination (with and without fault
injection), and results round-trip losslessly through their dicts."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.experiment import canonical_digest
from repro.cli import main as cli_main
from repro.errors import ConfigurationError, FleetError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleet import (
    AUTOSCALERS,
    POLICIES,
    TRACE_KINDS,
    FleetResult,
    FleetSimulator,
    JobArrival,
    PlacementPolicy,
    PoolSnapshot,
    PoolSpec,
    Trace,
    generate_trace,
    run_fleet,
)
from repro.fleet.autoscale import _snapshot
from repro.fleet.result import FleetJobRecord, _job_record
from repro.fleet.simulator import CHECKPOINT_S

#: a small heterogeneous fleet that keeps simulator tests fast
SMALL_POOLS = (
    PoolSpec(
        name="disagg-cpu",
        system="Disagg",
        nodes=48,
        workers_per_node=32,
        min_nodes=16,
        max_nodes=96,
        scaleup_latency_s=120.0,
    ),
    PoolSpec(
        name="presto-ssd",
        system="PreSto",
        nodes=8,
        workers_per_node=8,
        min_nodes=4,
        max_nodes=32,
        scaleup_latency_s=120.0,
    ),
)


def small_trace(num_jobs=40, seed=5, kind="diurnal"):
    return generate_trace(
        kind,
        num_jobs=num_jobs,
        seed=seed,
        horizon_s=6 * 3600.0,
        mean_duration_s=1200.0,
    )


class _Stopped(Exception):
    """Ends :func:`run_until`'s ``Engine.run``."""


def run_until(engine, t_s):
    """Run ``engine`` through every event due by ``t_s``, then stop with
    the clock at ``t_s`` and every later event still pending."""
    heap = engine._heap

    def stop():
        if heap and heap[0][0] <= t_s:
            engine.schedule(0.0, stop)  # the rest of this instant first
        else:
            raise _Stopped

    engine.schedule(t_s - engine.now, stop)
    try:
        engine.run()
    except _Stopped:
        pass


class TestTraceGeneration:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_same_seed_same_trace(self, kind):
        a = generate_trace(kind, num_jobs=30, seed=9)
        b = generate_trace(kind, num_jobs=30, seed=9)
        assert a == b
        assert a.to_jsonl() == b.to_jsonl()

    def test_different_seeds_differ(self):
        a = generate_trace("diurnal", num_jobs=30, seed=1)
        b = generate_trace("diurnal", num_jobs=30, seed=2)
        assert a != b

    def test_kinds_differ(self):
        traces = {
            kind: generate_trace(kind, num_jobs=30, seed=4)
            for kind in TRACE_KINDS
        }
        jsonls = {t.to_jsonl() for t in traces.values()}
        assert len(jsonls) == len(TRACE_KINDS)

    def test_arrivals_sorted_and_unique(self):
        trace = generate_trace("bursty", num_jobs=50, seed=3)
        times = [a.submit_s for a in trace.arrivals]
        assert times == sorted(times)
        ids = [a.job_id for a in trace.arrivals]
        assert len(ids) == len(set(ids)) == 50

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            generate_trace("weibull", num_jobs=10, seed=0)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_jobs_draw_from_the_fixed_mix(self, kind):
        """Every kind draws the same job mix: all five models, weighted
        toward RM5; 8 to 32 GPUs; priorities 0 to 2; durations of at least
        five minutes."""
        trace = generate_trace(kind, num_jobs=600, seed=5)
        models = [a.model for a in trace.arrivals]
        assert set(models) == {"RM1", "RM2", "RM3", "RM4", "RM5"}
        assert models.count("RM5") > models.count("RM1")
        assert {a.num_gpus for a in trace.arrivals} <= {8, 16, 32}
        assert {a.priority for a in trace.arrivals} <= {0, 1, 2}
        assert min(a.duration_s for a in trace.arrivals) >= 300.0

    def test_jsonl_round_trip_byte_identical(self):
        trace = generate_trace("poisson", num_jobs=25, seed=7)
        text = trace.to_jsonl()
        assert Trace.from_jsonl(text).to_jsonl() == text

    def test_save_load(self, tmp_path):
        trace = generate_trace("diurnal", num_jobs=20, seed=2)
        path = str(tmp_path / "trace.jsonl")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded == trace
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header["format"] == "repro-fleet-trace"


class TestTables:
    def test_builtin_policies(self):
        assert tuple(POLICIES) == ("first-fit", "best-fit", "priority")

    def test_builtin_autoscalers(self):
        assert tuple(AUTOSCALERS) == ("fixed", "target-utilization", "queue-depth")

    def test_unknown_policy_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="unknown placement policy 'round-robin'; "
                  "known: first-fit, best-fit, priority$",
        ):
            FleetSimulator(small_trace(), policy="round-robin")

    def test_unknown_autoscaler_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="unknown autoscaler 'predictive'; "
                  "known: fixed, target-utilization, queue-depth$",
        ):
            FleetSimulator(small_trace(), autoscaler="predictive")

    @pytest.mark.parametrize("field, name", [
        ("policy", "First-Fit"), ("policy", "first_fit"), ("policy", " best-fit"),
        ("policy", ""), ("autoscaler", "Fixed"),
        ("autoscaler", "target_utilization"), ("autoscaler", "queue-depth "),
    ])
    def test_names_are_exact(self, field, name):
        """No case folding or alias: a near miss is an unknown name."""
        with pytest.raises(ConfigurationError, match=f"unknown .*{name!r}"):
            FleetSimulator(small_trace(), **{field: name})

    def test_each_simulator_gets_its_own_instances(self):
        first, second = (
            FleetSimulator(small_trace(), policy="best-fit",
                           autoscaler="queue-depth")
            for _ in range(2)
        )
        assert type(first.policy) is POLICIES["best-fit"]
        assert type(first.autoscaler) is AUTOSCALERS["queue-depth"]
        assert first.policy is not second.policy
        assert first.autoscaler is not second.autoscaler

    def test_the_result_carries_the_names_it_was_given(self):
        result = run_fleet(
            small_trace(num_jobs=3), pools=SMALL_POOLS, policy="priority",
            autoscaler="queue-depth",
        )
        assert (result.policy, result.autoscaler) == ("priority", "queue-depth")

    def test_a_choice_outside_the_candidates_names_the_policy(self, monkeypatch):
        class Elsewhere(PlacementPolicy):
            def choose_pool(self, job, candidates):
                return "no-such-pool"

        monkeypatch.setitem(POLICIES, "test-elsewhere", Elsewhere)
        with pytest.raises(
            FleetError,
            match="policy 'test-elsewhere' chose 'no-such-pool' which is not "
                  "a candidate for",
        ):
            run_fleet(
                small_trace(num_jobs=3), pools=SMALL_POOLS,
                policy="test-elsewhere",
            )


class TestAutoscalers:
    def snapshot(self, **kwargs):
        defaults = dict(
            nodes=8,
            workers_per_node=4,
            busy_workers=16,
            queued_workers=0,
            min_nodes=2,
            max_nodes=32,
        )
        defaults.update(kwargs)
        return PoolSnapshot(**defaults)

    def test_fixed_holds(self):
        scaler = AUTOSCALERS["fixed"]()
        assert scaler.target_nodes(self.snapshot()) == 8

    def test_target_utilization_grows_under_load(self):
        scaler = AUTOSCALERS["target-utilization"]()
        snap = self.snapshot(busy_workers=30, queued_workers=20)
        # ceil(50 / (0.7 * 4)) = 18 nodes
        assert scaler.target_nodes(snap) == 18

    def test_target_utilization_shrinks_when_idle(self):
        scaler = AUTOSCALERS["target-utilization"]()
        snap = self.snapshot(busy_workers=0, queued_workers=0)
        assert scaler.target_nodes(snap) == 2  # min_nodes

    def test_queue_depth_sizes_to_demand(self):
        scaler = AUTOSCALERS["queue-depth"]()
        snap = self.snapshot(queued_workers=9)
        # ceil((16 busy + 9 queued) / 4) — absolute, not added to nodes
        assert scaler.target_nodes(snap) == 7

    def test_queue_depth_does_not_compound_backlog(self):
        """The same backlog must not be re-added on top of capacity
        already on the way: once committed nodes cover busy + queued
        demand, the target stops growing."""
        scaler = AUTOSCALERS["queue-depth"]()
        grown = self.snapshot(nodes=20, busy_workers=16, queued_workers=9)
        assert scaler.target_nodes(grown) == 7
        assert scaler.target_nodes(grown) <= grown.nodes

    def test_queue_depth_sheds_when_idle(self):
        scaler = AUTOSCALERS["queue-depth"]()
        snap = self.snapshot(busy_workers=0, queued_workers=0)
        assert scaler.target_nodes(snap) == 2  # min_nodes

    def test_clamped_to_max(self):
        scaler = AUTOSCALERS["queue-depth"]()
        snap = self.snapshot(queued_workers=10_000)
        assert scaler.target_nodes(snap) == 32

    def test_can_grow_flags(self):
        assert AUTOSCALERS["fixed"]().can_grow is False
        assert AUTOSCALERS["target-utilization"]().can_grow is True
        assert AUTOSCALERS["queue-depth"]().can_grow is True


#: arrivals as traces hold them (only the fields a policy may read vary)
arrivals = st.builds(
    JobArrival,
    job_id=st.just("job"),
    model=st.sampled_from(("RM1", "RM5")),
    num_gpus=st.integers(1, 64),
    duration_s=st.floats(1.0, 1e4),
    submit_s=st.floats(0.0, 1e5),
    priority=st.integers(0, 3),
)

#: candidate lists as the simulator builds them: distinct pool names in
#: declaration order, each with at least the workers the job needs free
candidate_lists = st.lists(
    st.tuples(st.integers(1, 64), st.integers(0, 64)), min_size=1, max_size=6,
).map(lambda rows: [
    (f"pool-{index}", need + spare, need)
    for index, (need, spare) in enumerate(rows)
])


@pytest.mark.parametrize("name", tuple(POLICIES))
class TestPolicyContract:
    """What the simulator relies on from every entry of ``POLICIES``."""

    @settings(max_examples=50, deadline=None)
    @given(job=arrivals, candidates=candidate_lists)
    def test_choose_pool_returns_one_of_the_candidates(self, name, job, candidates):
        choice = POLICIES[name]().choose_pool(job, candidates)
        assert choice in [pool for pool, _, _ in candidates]

    @settings(max_examples=50, deadline=None)
    @given(jobs=st.lists(arrivals, min_size=1, max_size=8))
    def test_order_key_is_a_pure_comparable_function_of_the_arrival(
        self, name, jobs
    ):
        first, second = POLICIES[name](), POLICIES[name]()
        keys = [first.order_key(job) for job in jobs]
        assert keys == [first.order_key(job) for job in jobs]
        assert keys == [second.order_key(job) for job in jobs]
        sorted(keys)  # mutually comparable: the queue is a heap on them


class TestPolicyChoices:
    @settings(max_examples=50, deadline=None)
    @given(job=arrivals, candidates=candidate_lists)
    def test_first_fit_and_priority_take_the_first_candidate(self, job, candidates):
        for name in ("first-fit", "priority"):
            assert POLICIES[name]().choose_pool(job, candidates) == candidates[0][0]

    @settings(max_examples=50, deadline=None)
    @given(job=arrivals, candidates=candidate_lists)
    def test_best_fit_takes_the_tightest_fit_first_on_ties(self, job, candidates):
        leftover = [free - need for _, free, need in candidates]
        tightest = candidates[leftover.index(min(leftover))][0]
        assert POLICIES["best-fit"]().choose_pool(job, candidates) == tightest

    @settings(max_examples=50, deadline=None)
    @given(a=arrivals, b=arrivals)
    def test_priority_offers_capacity_to_the_higher_priority_first(self, a, b):
        policy = POLICIES["priority"]()
        if a.priority > b.priority:
            assert policy.order_key(a) < policy.order_key(b)
        elif a.priority == b.priority:
            assert policy.order_key(a) == policy.order_key(b)


@st.composite
def snapshots(draw):
    """Pool snapshots the simulator can build: committed nodes within the
    bounds, no more busy workers than the pool has."""
    min_nodes = draw(st.integers(0, 8))
    max_nodes = draw(st.integers(max(min_nodes, 1), 64))
    nodes = draw(st.integers(min_nodes, max_nodes))
    workers_per_node = draw(st.integers(1, 16))
    return PoolSnapshot(
        nodes=nodes,
        workers_per_node=workers_per_node,
        busy_workers=draw(st.integers(0, nodes * workers_per_node)),
        queued_workers=draw(st.integers(0, 2000)),
        min_nodes=min_nodes,
        max_nodes=max_nodes,
    )


@pytest.mark.parametrize("name", tuple(AUTOSCALERS))
class TestAutoscalerContract:
    """What the simulator relies on from every entry of ``AUTOSCALERS``."""

    @settings(max_examples=60, deadline=None)
    @given(pool=snapshots())
    def test_target_stays_within_the_pool_bounds(self, name, pool):
        target = AUTOSCALERS[name]().target_nodes(pool)
        assert isinstance(target, int)
        assert pool.min_nodes <= target <= pool.max_nodes

    @settings(max_examples=60, deadline=None)
    @given(pool=snapshots())
    def test_target_is_a_pure_function_of_the_snapshot(self, name, pool):
        """A pool told to hold is not asked again until its snapshot
        moves, so no answer may depend on a previous call."""
        scaler = AUTOSCALERS[name]()
        target = scaler.target_nodes(pool)
        assert scaler.target_nodes(pool) == target
        assert AUTOSCALERS[name]().target_nodes(pool) == target

    @settings(max_examples=60, deadline=None)
    @given(pool=snapshots())
    def test_a_scaler_that_cannot_grow_never_asks_to(self, name, pool):
        """``can_grow`` decides whether an oversized job waits or is
        rejected, so a scaler that says False must never add nodes."""
        scaler = AUTOSCALERS[name]()
        if not scaler.can_grow:
            assert scaler.target_nodes(pool) <= pool.nodes

    @settings(max_examples=60, deadline=None)
    @given(pool=snapshots())
    def test_a_growing_scaler_covers_the_demand(self, name, pool):
        scaler = AUTOSCALERS[name]()
        demand = pool.busy_workers + pool.queued_workers
        if scaler.can_grow:
            target = scaler.target_nodes(pool)
            assert target * pool.workers_per_node >= min(
                demand, pool.max_nodes * pool.workers_per_node
            )

    @settings(max_examples=60, deadline=None)
    @given(pool=snapshots())
    def test_an_idle_pool_is_never_grown(self, name, pool):
        idle = dataclasses.replace(pool, busy_workers=0, queued_workers=0)
        assert AUTOSCALERS[name]().target_nodes(idle) <= idle.nodes


class TestPoolSnapshot:
    def snapshot(self, **kwargs):
        return PoolSnapshot(**{**dict(
            nodes=8, workers_per_node=4, busy_workers=16, queued_workers=3,
            min_nodes=2, max_nodes=32,
        ), **kwargs})

    def test_capacity_and_utilization_count_workers(self):
        pool = self.snapshot()
        assert pool.capacity == 32
        assert pool.utilization == 0.5  # queued demand is not busy

    def test_a_pool_without_nodes_has_zero_utilization(self):
        pool = self.snapshot(nodes=0, busy_workers=0, min_nodes=0)
        assert pool.capacity == 0
        assert pool.utilization == 0.0

    @pytest.mark.parametrize(
        "nodes, clamped", [(0, 2), (2, 2), (9, 9), (32, 32), (99, 32)]
    )
    def test_clamp_keeps_a_count_within_the_bounds(self, nodes, clamped):
        assert self.snapshot().clamp(nodes) == clamped

    def test_the_simulators_snapshots_are_ordinary_frozen_snapshots(self):
        """``_autoscale`` builds snapshots without the generated
        ``__init__``; nothing may tell them from constructed ones."""
        built = self.snapshot()
        fast = _snapshot(*(
            getattr(built, f.name) for f in dataclasses.fields(built)
        ))
        assert fast == built and type(fast) is PoolSnapshot
        assert list(vars(fast).items()) == list(vars(built).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.nodes = 9
        assert dataclasses.replace(fast, nodes=9) == self.snapshot(nodes=9)


class TestSimulatorDeterminism:
    @pytest.mark.parametrize("policy", ("first-fit", "best-fit", "priority"))
    @pytest.mark.parametrize("autoscaler", tuple(AUTOSCALERS))
    def test_rerun_identical(self, policy, autoscaler):
        trace = small_trace(num_jobs=25, seed=13)
        runs = [
            run_fleet(
                trace, pools=SMALL_POOLS, policy=policy, autoscaler=autoscaler
            )
            for _ in range(2)
        ]
        assert runs[0].to_dict() == runs[1].to_dict()
        assert runs[0].digest == runs[1].digest
        assert runs[0].all_terminal()
        assert runs[0].completed + runs[0].rejected == runs[0].num_jobs

    def test_policies_change_outcomes_not_invariants(self):
        trace = small_trace(num_jobs=30, seed=21)
        results = {
            policy: run_fleet(trace, pools=SMALL_POOLS, policy=policy)
            for policy in ("first-fit", "best-fit", "priority")
        }
        for result in results.values():
            assert result.all_terminal()
            assert result.completed == 30

    def test_never_fitting_job_rejected(self):
        arrival = JobArrival(
            job_id="too-big",
            model="RM5",
            num_gpus=4096,
            duration_s=100.0,
            submit_s=0.0,
        )
        trace = Trace(kind="manual", seed=0, arrivals=(arrival,))
        result = run_fleet(trace, pools=SMALL_POOLS)
        assert result.rejected == 1
        assert result.jobs[0].state == "rejected"
        assert result.all_terminal()

    def test_thousand_job_acceptance(self):
        """The acceptance bar: a 1,000-job diurnal day on the default
        pools is byte-identical across two serial runs."""
        trace = generate_trace("diurnal", num_jobs=1000, seed=0)
        first = run_fleet(trace)
        second = run_fleet(trace)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
        assert first.all_terminal()
        assert first.completed + first.rejected == first.num_jobs


class TestGrowShrinkLedger:
    def empty_sim(self):
        from repro.fleet.simulator import FleetSimulator

        trace = Trace(kind="manual", seed=0, arrivals=())
        return FleetSimulator(trace, pools=SMALL_POOLS)

    def test_shrink_cancels_in_flight_growth(self):
        """grow(3) then shrink(3): the already-scheduled activate
        callback must not add phantom nodes or drive pending negative."""
        sim = self.empty_sim()
        pool = sim.pools["presto-ssd"]
        before = len(pool.nodes)
        sim._grow(pool, 3)
        sim._shrink(pool, 3)
        assert pool.pending == 0
        sim.engine.run(max_events=10)  # fire the activate callback
        assert pool.pending == 0
        assert len(pool.nodes) == before
        assert pool.committed_nodes == before

    def test_partial_cancel_activates_only_the_remainder(self):
        sim = self.empty_sim()
        pool = sim.pools["presto-ssd"]
        before = len(pool.nodes)
        sim._grow(pool, 2)
        sim._grow(pool, 3)
        sim._shrink(pool, 4)  # cancels newest growth first: all 3, then 1
        assert pool.pending == 1
        sim.engine.run(max_events=10)
        assert pool.pending == 0
        assert len(pool.nodes) == before + 1


class TestReachableCapacity:
    #: Disagg/RM5 at 8 GPUs needs 367 workers — more than the 200 this
    #: pool starts with, less than the 800 it can grow to
    TINY = (
        PoolSpec(
            name="tiny",
            system="Disagg",
            nodes=2,
            workers_per_node=100,
            min_nodes=1,
            max_nodes=8,
            scaleup_latency_s=60.0,
        ),
    )

    def trace(self):
        arrival = JobArrival(
            job_id="needs-growth",
            model="RM5",
            num_gpus=8,
            duration_s=600.0,
            submit_s=0.0,
        )
        return Trace(kind="manual", seed=0, arrivals=(arrival,))

    def test_fixed_pool_rejects_unreachable_job(self):
        """Under the non-growing autoscaler a job larger than committed
        capacity can never be placed — it must be rejected up front, not
        queue forever and hang the run."""
        result = run_fleet(self.trace(), pools=self.TINY, autoscaler="fixed")
        assert result.rejected == 1
        assert result.all_terminal()

    def test_growing_pool_serves_the_same_job(self):
        result = run_fleet(
            self.trace(), pools=self.TINY, autoscaler="target-utilization"
        )
        assert result.completed == 1
        assert result.all_terminal()


class TestFaultInjection:
    def plan(self, seed=17):
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule(point="node-down", rate=0.02),
                FaultRule(point="slow-node", rate=0.05, delay_s=300.0),
                FaultRule(point="arrival-burst", rate=0.05),
            ),
        )

    def run_faulted(self, seed=17):
        return run_fleet(
            small_trace(num_jobs=40, seed=seed),
            pools=SMALL_POOLS,
            injector=FaultInjector(self.plan(seed)),
        )

    def test_replay_identical(self):
        a = self.run_faulted()
        b = self.run_faulted()
        assert a.to_dict() == b.to_dict()

    def test_faults_fire_and_recover(self):
        result = self.run_faulted()
        assert result.fault_fires  # the plan actually did something
        assert result.all_terminal()
        assert result.reschedules == result.displacements
        # displacement (eviction) and reschedule (winning capacity again)
        # are counted on independent code paths; they must agree per job,
        # and a displaced job must finish — never strand or get rejected
        for job in result.jobs:
            assert job.reschedules == job.displacements
            if job.displacements:
                assert job.state == "completed"
        assert sum(p.node_failures for p in result.pools) == (
            result.fault_fires.get("node-down:down", 0)
        )

    def test_burst_clones_arrivals(self):
        result = self.run_faulted()
        bursts = result.fault_fires.get("arrival-burst:burst", 0)
        if bursts:
            assert result.num_jobs > 40
            assert any("+burst" in j.job_id for j in result.jobs)

    def test_burst_clone_ids_never_collide_with_trace_ids(self):
        """A recorded trace may legitimately hold an id shaped like a
        burst clone; the minted clone must skip it, not overwrite the
        real job's state."""
        arrivals = (
            JobArrival(job_id="job-x", model="RM1", num_gpus=8,
                       duration_s=300.0, submit_s=0.0),
            JobArrival(job_id="job-x+burst0", model="RM1", num_gpus=8,
                       duration_s=300.0, submit_s=100.0),
        )
        trace = Trace(kind="manual", seed=0, arrivals=arrivals)
        plan = FaultPlan(
            seed=1, rules=(FaultRule(point="arrival-burst", rate=1.0),)
        )
        result = run_fleet(
            trace, pools=SMALL_POOLS, injector=FaultInjector(plan)
        )
        ids = [job.job_id for job in result.jobs]
        assert len(ids) == len(set(ids))
        assert result.num_jobs == 6  # 2 trace arrivals + 2 clones each
        trace_job = result.jobs[
            ids.index("job-x+burst0")
        ]
        assert trace_job.submit_s == 100.0  # the real job, not a clone
        assert result.all_terminal()
        assert result.completed + result.rejected == result.num_jobs

    def test_clean_run_has_no_fires(self):
        result = run_fleet(small_trace(num_jobs=20, seed=3), pools=SMALL_POOLS)
        assert result.fault_fires == {}
        assert result.displacements == 0


class TestCheckpointedRestart:
    """A displaced job keeps the whole ``CHECKPOINT_S`` intervals of its
    run's progress (time placed minus that run's slow-node penalties) and
    loses the rest."""

    DURATION_S = 10_000.0

    def running(self):
        arrival = JobArrival(job_id="j", model="RM1", num_gpus=8,
                             duration_s=self.DURATION_S, submit_s=0.0)
        sim = FleetSimulator(Trace(kind="manual", seed=0, arrivals=(arrival,)),
                             pools=SMALL_POOLS)
        sim.engine.schedule(0.0, lambda: sim._on_arrival(arrival))
        run_until(sim.engine, 0.0)
        job = sim._jobs["j"]
        assert job.state == "running"
        return sim, job

    def displace_at(self, sim, job, t_s):
        run_until(sim.engine, t_s)
        sim._fail_node(sim.pools[job.pool], job.alloc[0])
        assert job.state == "queued"

    @pytest.mark.parametrize("progress_s, kept_s", [
        (1799.0, 0.0), (1800.0, 1800.0), (3601.0, 3600.0),
    ])
    def test_keeps_whole_checkpoints_of_its_progress(self, progress_s, kept_s):
        sim, job = self.running()
        self.displace_at(sim, job, progress_s)
        assert job.remaining_s == self.DURATION_S - kept_s
        assert job.lost_s == progress_s - kept_s

    def test_slow_node_penalties_are_not_progress(self):
        sim, job = self.running()
        run_until(sim.engine, 100.0)
        sim._slow_job(job, 300.0)
        self.displace_at(sim, job, 2000.0)  # 1,700 s of progress
        assert job.remaining_s == self.DURATION_S
        assert job.lost_s == 1700.0

    def test_the_next_run_schedules_only_the_remaining_work(self):
        sim, job = self.running()
        self.displace_at(sim, job, 3601.0)
        sim._drain()
        assert job.state == "running" and job.remaining_s == 6400.0
        self.displace_at(sim, job, 3601.0 + 1800.0)  # a checkpoint exactly
        sim._drain()
        sim.engine.run()
        assert job.state == "completed"
        assert job.finish_s == 3601.0 + 1800.0 + 4600.0
        assert job.lost_s == 1.0
        assert job.reschedules == job.displacements == 2

    def test_clean_run_loses_nothing(self):
        result = run_fleet(small_trace(num_jobs=30, seed=4), pools=SMALL_POOLS)
        assert result.lost_work_hours == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**16),
        fault_seed=st.integers(min_value=0, max_value=2**16),
        down_rate=st.sampled_from((0.01, 0.05, 0.2)),
        slow_rate=st.sampled_from((0.0, 0.1)),
        policy=st.sampled_from(("first-fit", "best-fit", "priority")),
    )
    def test_lost_work_is_the_per_job_sum_and_under_a_checkpoint_each(
        self, trace_seed, fault_seed, down_rate, slow_rate, policy
    ):
        plan = FaultPlan(seed=fault_seed, rules=(
            FaultRule(point="node-down", rate=down_rate),
            FaultRule(point="slow-node", rate=slow_rate, delay_s=300.0),
        ))
        sim = FleetSimulator(
            small_trace(num_jobs=40, seed=trace_seed), pools=SMALL_POOLS,
            policy=policy, autoscaler="target-utilization",
            injector=FaultInjector(plan),
        )
        result = sim.run()
        jobs = list(sim._jobs.values())
        assert result.lost_work_hours == round(
            sum(job.lost_s for job in jobs) / 3600.0, 6
        )
        for job in jobs:
            assert job.reschedules == job.displacements
            assert 0.0 <= job.lost_s <= CHECKPOINT_S * job.displacements
            assert 0.0 <= job.remaining_s <= job.arrival.duration_s


class TestFleetResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fleet(small_trace(num_jobs=20, seed=8), pools=SMALL_POOLS)

    def test_dict_round_trip(self, result):
        clone = FleetResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.digest == result.digest

    def test_pool_lookup(self, result):
        assert result.pool("disagg-cpu").system == "Disagg"
        with pytest.raises(ConfigurationError):
            result.pool("nonexistent")

    def test_headline_counts_match_the_job_records(self, result):
        states = [job.state for job in result.jobs]
        assert result.num_jobs == len(result.jobs) == 20
        assert result.completed == states.count("completed") > 0
        assert result.rejected == states.count("rejected")
        assert result.completed == sum(p.jobs_completed for p in result.pools)
        assert result.displacements == sum(j.displacements for j in result.jobs)
        assert result.reschedules == sum(j.reschedules for j in result.jobs)

    def test_queue_statistics_follow_completed_waits(self, result):
        waits = sorted(j.queue_s for j in result.jobs if j.state == "completed")
        assert result.mean_queue_s == pytest.approx(
            sum(waits) / len(waits), abs=1e-3)
        assert waits[0] <= result.p95_queue_s <= waits[-1]
        attained = sum(1 for wait in waits if wait <= result.slo_queue_s)
        assert result.slo_attainment == pytest.approx(attained / len(waits))

    def test_round_trip_through_a_json_file(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(result.to_dict()))
        clone = FleetResult.from_dict(json.loads(path.read_text()))
        assert clone == result
        assert clone.digest == result.digest

    def test_digest_leaves_out_zero_lost_work(self, result):
        assert result.lost_work_hours == 0.0
        payload = result.to_dict()
        del payload["lost_work_hours"]
        assert result.digest == canonical_digest(payload)
        lossy = dataclasses.replace(result, lost_work_hours=0.5)
        assert lossy.digest == canonical_digest(lossy.to_dict())
        assert lossy.digest != result.digest

    def test_all_terminal_flags_an_unfinished_job(self, result):
        assert result.all_terminal()
        queued = dataclasses.replace(result.jobs[0], state="queued")
        unfinished = dataclasses.replace(
            result, jobs=(queued,) + result.jobs[1:])
        assert not unfinished.all_terminal()

    def test_job_record_rejects_an_unknown_state(self, result):
        with pytest.raises(ConfigurationError, match="state must be one of"):
            dataclasses.replace(result.jobs[0], state="paused")

    def test_simulator_records_are_ordinary_frozen_records(self, result):
        """The simulator builds its job records without the generated
        ``__init__``; nothing may tell them from constructed ones."""
        record = result.jobs[0]
        values = [getattr(record, f.name) for f in dataclasses.fields(record)]
        built = FleetJobRecord(*values)
        assert built == record and type(record) is FleetJobRecord
        assert list(vars(built).items()) == list(vars(record).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.state = "queued"
        with pytest.raises(ConfigurationError, match="state must be one of"):
            _job_record(*values[:4], "paused", *values[5:])

    def test_pool_utilization_and_cost_views(self, result):
        usage = result.pool("disagg-cpu")
        assert usage.utilization == pytest.approx(
            usage.busy_worker_hours / usage.capacity_worker_hours)
        assert usage.total_cost == usage.capex + usage.opex
        idle = dataclasses.replace(usage, capacity_worker_hours=0.0)
        assert idle.utilization == 0.0


class TestFleetCli:
    def test_trace_gen_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert cli_main(
            ["fleet", "trace", "gen", "--jobs", "15", "--seed", "4",
             "--out", path]
        ) == 0
        capsys.readouterr()
        assert cli_main(["fleet", "trace", "replay", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["byte_identical"] is True
        assert payload["jobs"] == 15

    def test_replay_detects_tampering(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        cli_main(
            ["fleet", "trace", "gen", "--jobs", "5", "--seed", "1",
             "--out", path]
        )
        with open(path) as handle:
            lines = handle.readlines()
        # reformat the last arrival: same record, different bytes
        loose = json.dumps(json.loads(lines[-1]), indent=1)
        lines[-1] = loose.replace("\n", "") + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        capsys.readouterr()
        assert cli_main(["fleet", "trace", "replay", path]) == 1
        # a truncated file (header/count mismatch) fails loudly at load
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="header declares"):
            cli_main(["fleet", "trace", "replay", path])

    def test_run_json_deterministic(self, tmp_path, capsys):
        argv = [
            "fleet", "run", "--kind", "poisson", "--jobs", "12",
            "--seed", "6", "--policy", "best-fit",
            "--autoscale", "queue-depth", "--faults", "node-down",
            "--json",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["completed"] + payload["rejected"] == (
            payload["num_jobs"]
        )

    def test_run_writes_result_file(self, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        assert cli_main(
            ["fleet", "run", "--jobs", "10", "--seed", "2", "--out", out]
        ) == 0
        capsys.readouterr()
        with open(out) as handle:
            payload = json.load(handle)
        assert FleetResult.from_dict(payload).to_dict() == payload
        assert payload["policy"] == "first-fit"

    def test_unknown_policy_is_one_line_on_stderr(self):
        import os
        import subprocess
        import sys

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "run", "--jobs", "5",
             "--policy", "round-robin"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "unknown placement policy 'round-robin'; "
            "known: first-fit, best-fit, priority\n"
        )

    def test_unknown_autoscaler_is_one_line_and_no_output(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["fleet", "run", "--jobs", "5", "--autoscale", "predictive"])
        assert str(info.value) == (
            "unknown autoscaler 'predictive'; "
            "known: fixed, target-utilization, queue-depth"
        )
        assert capsys.readouterr().out == ""

    def test_run_help_lists_every_table_name(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no wrap inside a name
        with pytest.raises(SystemExit) as info:
            cli_main(["fleet", "run", "--help"])
        assert info.value.code == 0
        help_text = capsys.readouterr().out
        assert f"placement policy: {', '.join(POLICIES)}" in help_text
        assert f"autoscaling policy: {', '.join(AUTOSCALERS)}" in help_text

    @pytest.mark.parametrize("flag, message", [
        ("--policy", "unknown placement policy 'nope'; "
                     "known: first-fit, best-fit, priority"),
        ("--autoscale", "unknown autoscaler 'nope'; "
                        "known: fixed, target-utilization, queue-depth"),
        ("--faults", "unknown fleet fault 'nope'; "
                     "known: arrival-burst, node-down, slow-node"),
    ], ids=["policy", "autoscale", "faults"])
    def test_a_bad_name_is_refused_before_the_trace(
        self, flag, message, capsys, monkeypatch
    ):
        """No trace is generated for a run that cannot start."""
        def generate_trace(*args, **kwargs):
            raise AssertionError("the trace was generated")

        monkeypatch.setattr("repro.fleet.generate_trace", generate_trace)
        with pytest.raises(SystemExit) as info:
            cli_main(["fleet", "run", "--jobs", "200000", flag, "nope"])
        assert str(info.value) == message
        assert capsys.readouterr().out == ""

    def test_unknown_fault_rejected(self, capsys):
        with pytest.raises(SystemExit, match="unknown fleet fault"):
            cli_main(
                ["fleet", "run", "--jobs", "5", "--faults", "meteor-strike"]
            )


class TestNonFiniteInputs:
    """A NaN or infinite time, or a fractional count, is refused where it
    enters the fleet, never run into a hang or a silently wrong result."""

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    @pytest.mark.parametrize("horizon_s", [math.nan, math.inf])
    def test_trace_horizon(self, kind, horizon_s):
        with pytest.raises(ConfigurationError, match="horizon_s must be"):
            generate_trace(kind, num_jobs=10, seed=1, horizon_s=horizon_s)

    @pytest.mark.parametrize("mean_duration_s", [math.nan, math.inf])
    def test_trace_mean_duration(self, mean_duration_s):
        with pytest.raises(ConfigurationError, match="mean_duration_s must be"):
            generate_trace("diurnal", num_jobs=10, seed=1,
                           mean_duration_s=mean_duration_s)

    @pytest.mark.parametrize("field, value", [
        ("submit_s", math.nan), ("submit_s", math.inf),
        ("duration_s", math.nan), ("duration_s", math.inf),
    ])
    def test_arrival_times(self, field, value):
        fields = dict(job_id="j", model="RM1", num_gpus=8,
                      duration_s=600.0, submit_s=0.0)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            JobArrival(**fields)

    def test_replayed_nan_duration_is_refused_at_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        generate_trace("diurnal", num_jobs=3, seed=1).save(str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["duration_s"] = math.nan
        lines[2] = json.dumps(record)  # writes a bare NaN, as json allows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit, match="trace line 3: .*duration_s"):
            cli_main(["fleet", "run", "--trace", str(path)])

    @pytest.mark.parametrize("latency_s", [math.nan, math.inf])
    def test_pool_scaleup_latency(self, latency_s):
        with pytest.raises(ConfigurationError, match="scaleup_latency_s"):
            dataclasses.replace(SMALL_POOLS[1], scaleup_latency_s=latency_s)

    @pytest.mark.parametrize("field, value", [
        ("workers_per_node", 2.5), ("max_nodes", 64.5), ("nodes", True),
    ])
    def test_pool_counts_are_ints(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an int"):
            dataclasses.replace(SMALL_POOLS[1], **{field: value})
