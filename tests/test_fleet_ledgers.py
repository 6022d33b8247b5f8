"""The fleet step loop's incremental ledgers and the contracts they rest
on: ``check_ledgers`` recounts every counter (and catches planted drift),
the placement policy's ``order_key`` is the one definition of queue
order, a re-registered system is provisioned afresh, and the
conservation laws hold after every tick of random small traces under
random fault plans."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import REGISTRY, register_system
from repro.core.systems import PreStoSystem
from repro.errors import FleetError, ProvisioningError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleet import (
    AUTOSCALERS,
    POLICIES,
    FleetSimulator,
    JobArrival,
    PlacementPolicy,
    PoolSpec,
    Trace,
    run_fleet,
)
from repro.fleet.simulator import REPAIR_S, STEP_S, _Job
from test_fleet import SMALL_POOLS as POOLS, run_until


def arrival(job_id, submit_s=0.0, priority=0, duration_s=600.0, **fields):
    fields.setdefault("model", "RM1")
    fields.setdefault("num_gpus", 16)  # 5 PreSto workers: one per 8-worker node
    return JobArrival(
        job_id=job_id, duration_s=duration_s, submit_s=submit_s,
        priority=priority, **fields,
    )


def manual_trace(*arrivals):
    return Trace(kind="manual", seed=0, arrivals=tuple(arrivals))


def one_pool(system="PreSto", nodes=1, workers_per_node=8, **fields):
    return (PoolSpec(
        name="only", system=system, nodes=nodes,
        workers_per_node=workers_per_node, min_nodes=nodes,
        max_nodes=fields.pop("max_nodes", nodes), **fields,
    ),)


def start_order(result):
    return [job.job_id for job in sorted(result.jobs, key=lambda j: j.start_s)]


class TestCheckLedgers:
    def mid_run(self):
        """A simulator stopped mid-day with jobs running and queued."""
        trace = manual_trace(*(
            arrival(f"job-{i}", submit_s=10.0 * i, model="RM5", duration_s=3000.0)
            for i in range(12)
        ))
        sim = FleetSimulator(trace, pools=POOLS, policy="priority")
        for entry in trace.arrivals:
            sim.engine.schedule(
                entry.submit_s, lambda entry=entry: sim._on_arrival(entry)
            )
        sim.engine.schedule(0.0, lambda: sim.engine.schedule(STEP_S, sim._tick))
        run_until(sim.engine, 600.0)
        assert sim._queue and any(pool.busy for pool in sim.pools.values())
        return sim

    def test_clean_run_passes(self):
        self.mid_run().check_ledgers()

    @pytest.mark.parametrize("field", ("up", "busy", "queued"))
    def test_pool_counter_drift_is_caught(self, field):
        sim = self.mid_run()
        pool = sim.pools["disagg-cpu"]
        setattr(pool, field, getattr(pool, field) + 1)
        with pytest.raises(FleetError, match=f"{field}="):
            sim.check_ledgers()

    def test_node_used_drift_is_caught(self):
        sim = self.mid_run()
        node = next(
            n for n in sim.pools["disagg-cpu"].nodes.values() if n.allocations
        )
        node.used -= 1
        with pytest.raises(FleetError, match="node.used"):
            sim.check_ledgers()

    def test_byte_cleared_on_an_open_node_is_caught(self):
        sim = self.mid_run()
        pool = sim.pools["presto-ssd"]
        node = next(n for n in pool.nodes.values() if n.up and n.used < 8)
        pool.open[node.id] = 0  # an up, non-full node the placer can't see
        with pytest.raises(FleetError, match="open map"):
            sim.check_ledgers()

    @pytest.mark.parametrize("case", ("full", "down", "retired"))
    def test_byte_left_set_on_a_closed_id_is_caught(self, case):
        sim = self.mid_run()
        pool = sim.pools["disagg-cpu"]
        if case == "full":
            node_id = next(n.id for n in pool.nodes.values() if n.used == pool.wpn)
        else:
            node_id = max(n.id for n in pool.nodes.values() if not n.allocations)
            if case == "down":
                sim._fail_node(pool, pool.nodes[node_id])
            else:
                sim._shrink(pool, 1)  # retires the highest idle id
                assert node_id not in pool.nodes
        sim.check_ledgers()  # every ledger agrees before the byte is planted
        pool.open[node_id] = 1  # the placer would hand this id work
        with pytest.raises(FleetError, match="open map"):
            sim.check_ledgers()

    def test_pending_drift_is_caught(self):
        sim = self.mid_run()
        sim.pools["presto-ssd"].pending += 1
        with pytest.raises(FleetError, match="pending"):
            sim.check_ledgers()

    def test_run_checks_at_the_end(self, monkeypatch):
        calls = []
        original = FleetSimulator.check_ledgers
        monkeypatch.setattr(
            FleetSimulator, "check_ledgers",
            lambda self: (calls.append(1), original(self)),
        )
        run_fleet(manual_trace(arrival("a")), pools=POOLS)
        assert calls == [1]


class TestOpenMapAcrossRetireAndRepair:
    """``pool.open`` holds one byte per node id: a retired id and a down
    node read 0, and a repaired node reads 1 again."""

    def test_place_skips_an_id_shrink_retired_while_it_was_open(self):
        trace = manual_trace(arrival("a"), arrival("b"), arrival("c"))
        sim = FleetSimulator(trace, pools=one_pool(nodes=2))
        pool = sim.pools["only"]
        a, b, c = (_Job(entry, ()) for entry in trace.arrivals)
        sim._place(a, "only", 8)  # fills node 0: its byte clears
        sim._place(b, "only", 5)  # node 1, still open
        assert pool.open == b"\x00\x01"
        sim._free(a)  # node 0 idle again: open, below node 1
        assert pool.open == b"\x01\x01"
        retired = pool.nodes[0]
        sim._shrink(pool, 1)  # node 0 is the only idle node
        assert 0 not in pool.nodes and pool.open == b"\x00\x01"

        sim._place(c, "only", 3)
        assert retired.allocations == {} and retired.used == 0
        assert c.alloc == [pool.nodes[1]]
        assert pool.nodes[1].allocations == {"b": 5, "c": 3}
        assert pool.open == b"\x00\x00"  # node 1 filled
        sim.check_ledgers()

    @pytest.mark.parametrize("case", ("open", "placed-while-down", "full"))
    def test_a_failed_then_repaired_node_is_open_again(self, case):
        # 5-worker nodes: one RM1/16-GPU job fills a node exactly
        trace = manual_trace(arrival("a"))
        sim = FleetSimulator(trace, pools=one_pool(nodes=2, workers_per_node=5))
        pool = sim.pools["only"]
        job = _Job(trace.arrivals[0], sim._needs(trace.arrivals[0]))
        sim._jobs["a"] = job
        if case == "full":  # node 0 is closed when it fails
            sim._enqueue(job)
            sim._drain()
            assert job.alloc == [pool.nodes[0]] and pool.open == b"\x00\x01"
        sim._fail_node(pool, pool.nodes[0])  # "full": displaces the job
        assert pool.open[0] == 0
        if case != "open":  # the job lands on node 1, past down node 0
            if case == "placed-while-down":
                sim._enqueue(job)
            sim._drain()
            assert job.alloc == [pool.nodes[1]] and pool.open == b"\x00\x00"
        run_until(sim.engine, REPAIR_S)  # the job ends at 600 s, repair at 900 s
        assert pool.nodes[0].up and pool.open == b"\x01\x01"
        sim.check_ledgers()


def test_first_tick_runs_behind_what_the_arrivals_at_zero_scheduled():
    """The first tick draws its sequence number at t=0, after the t=0
    arrivals ran: a job placed at t=0 that ends exactly on that tick has
    ended when the tick looks."""
    sim = FleetSimulator(manual_trace(arrival("a", duration_s=60.0)),
                         pools=one_pool())
    seen = []
    autoscale = sim._autoscale
    sim._autoscale = lambda: (
        seen.append((sim.engine.now, sim.pools["only"].busy)), autoscale()
    )
    assert sim.run().completed == 1
    assert seen == [(60.0, 0)]


class TestOrderKeyContract:
    def test_builtin_keys(self):
        job = arrival("a", priority=3)
        assert POLICIES["first-fit"]().order_key(job) == 0
        assert POLICIES["best-fit"]().order_key(job) == 0
        assert POLICIES["priority"]().order_key(job) == -3

    def test_queue_order_is_sorted_by_order_key(self):
        """One definition of order: the simulator's queue serves jobs by
        the policy's key, and equal keys keep their enqueue order."""
        trace = manual_trace(
            arrival("blocker", submit_s=0.0),
            arrival("low-0", submit_s=1.0, priority=0),
            arrival("high-0", submit_s=2.0, priority=2),
            arrival("low-1", submit_s=3.0, priority=0),
            arrival("high-1", submit_s=4.0, priority=2),
        )
        fifo = run_fleet(trace, pools=one_pool(), policy="first-fit")
        assert start_order(fifo) == [
            "blocker", "low-0", "high-0", "low-1", "high-1",
        ]
        ranked = run_fleet(trace, pools=one_pool(), policy="priority")
        assert start_order(ranked) == [
            "blocker", "high-0", "high-1", "low-0", "low-1",
        ]

    def test_equal_keys_are_served_in_enqueue_order(self):
        # one 8-worker node, every RM1/16-GPU job needs 5 of them: strictly
        # one at a time, so start order is queue order
        trace = manual_trace(
            arrival("blocker", submit_s=0.0),
            *(arrival(f"job-{i}", submit_s=1.0 + i) for i in range(5)),
        )
        for policy in ("first-fit", "priority"):
            result = run_fleet(trace, pools=one_pool(), policy=policy)
            assert result.completed == 6
            assert start_order(result) == ["blocker"] + [
                f"job-{i}" for i in range(5)
            ]

    def test_user_registered_key_is_honoured(self, monkeypatch):
        class ShortestFirst(PlacementPolicy):
            def order_key(self, job):
                return job.duration_s

        monkeypatch.setitem(POLICIES, "test-shortest-first", ShortestFirst)
        trace = manual_trace(
            arrival("blocker", submit_s=0.0, duration_s=500.0),
            arrival("long", submit_s=1.0, duration_s=900.0),
            arrival("short", submit_s=2.0, duration_s=100.0),
            arrival("medium", submit_s=3.0, duration_s=400.0),
        )
        result = run_fleet(trace, pools=one_pool(), policy="test-shortest-first")
        assert start_order(result) == ["blocker", "short", "medium", "long"]
        assert result.policy == "test-shortest-first"

    def test_displaced_job_rejoins_behind_its_class(self):
        """A displaced job re-enters the queue behind the already-queued
        jobs of the same order key, and ahead of lower classes."""
        trace = manual_trace(
            arrival("victim", submit_s=0.0, priority=1, duration_s=5000.0),
            arrival("peer", submit_s=10.0, priority=1),
            arrival("lowly", submit_s=20.0, priority=0),
        )
        # node-down fires exactly once: on the only node, in the first
        # epoch probed (t = 60 s, the victim running, peer and lowly queued)
        plan = FaultPlan(seed=0, rules=(FaultRule(
            point="node-down", rate=1.0, max_fires=1,
        ),))
        result = run_fleet(
            trace, pools=one_pool(), policy="priority",
            injector=FaultInjector(plan),
        )
        assert result.fault_fires == {"node-down:down": 1}
        by_id = {job.job_id: job for job in result.jobs}
        assert by_id["victim"].displacements == 1
        assert result.completed == 3
        # after the repair: peer (queued first), then the victim's second
        # run, then the lower class
        assert by_id["peer"].start_s < by_id["victim"].finish_s - 5000.0 + 1e-6
        assert by_id["victim"].finish_s <= by_id["lowly"].start_s


class TestSharedNeedMemo:
    def test_reregistered_system_is_not_served_a_stale_need(self):
        """The memo keys on the factory object, not the registry name:
        replacing a system between two runs changes the need, and a
        memoized "cannot run here" (None) does not outlive it either."""

        @register_system("Test-Swapped")
        class Unable(PreStoSystem):
            def provision_for(self, num_gpus=8):
                raise ProvisioningError("cannot sustain anything")

        try:
            trace = manual_trace(arrival("a"))
            pools = one_pool(system="Test-Swapped", nodes=4, model="RM1")
            assert run_fleet(trace, pools=pools).rejected == 1

            register_system("Test-Swapped", replace=True)(PreStoSystem)
            plain = run_fleet(trace, pools=pools)
            assert plain.completed == 1

            @register_system("Test-Swapped", replace=True)
            class Doubled(PreStoSystem):
                def provision_for(self, num_gpus=8):
                    plan = super().provision_for(num_gpus)
                    return dataclasses.replace(
                        plan, num_workers=2 * plan.num_workers
                    )

            doubled = run_fleet(trace, pools=pools)
            assert doubled.completed == 1
            assert doubled.pool("only").busy_worker_hours == pytest.approx(
                2 * plain.pool("only").busy_worker_hours
            )
        finally:
            REGISTRY.unregister("Test-Swapped")


# -- conservation laws as properties ----------------------------------------

arrival_fields = st.tuples(
    st.sampled_from(("RM1", "RM2", "RM3", "RM5")),  # model
    st.sampled_from((1, 2, 4, 8, 16)),  # num_gpus
    st.floats(min_value=30.0, max_value=1800.0),  # duration_s
    st.floats(min_value=0.0, max_value=5400.0),  # submit_s
    st.integers(min_value=0, max_value=2),  # priority
)

fault_rates = st.fixed_dictionaries({
    "node-down": st.sampled_from((0.0, 0.01, 0.04)),
    "slow-node": st.sampled_from((0.0, 0.05, 0.2)),
    "arrival-burst": st.sampled_from((0.0, 0.1, 0.5)),
})


@settings(max_examples=40, deadline=None)
@given(
    jobs=st.lists(arrival_fields, min_size=1, max_size=25),
    policy=st.sampled_from(tuple(POLICIES)),
    autoscaler=st.sampled_from(tuple(AUTOSCALERS)),
    rates=fault_rates,
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_ledgers_and_conservation_hold_every_tick(
    jobs, policy, autoscaler, rates, fault_seed
):
    ordered = sorted(jobs, key=lambda fields: fields[3])
    trace = manual_trace(*(
        JobArrival(
            job_id=f"job-{i}", model=model, num_gpus=gpus,
            duration_s=duration, submit_s=submit, priority=priority,
        )
        for i, (model, gpus, duration, submit, priority) in enumerate(ordered)
    ))
    rules = tuple(
        FaultRule(point=point, rate=rate) for point, rate in rates.items() if rate
    )
    sim = FleetSimulator(
        trace, pools=POOLS, policy=policy, autoscaler=autoscaler,
        injector=FaultInjector(FaultPlan(seed=fault_seed, rules=rules)),
    )

    # where each job's time went, witnessed from outside the ledgers
    placed_at, ran_s = {}, {}
    place, displace, sample = sim._place, sim._displace, sim._sample

    def watched_place(job, pool_name, need):
        placed_at[job.arrival.job_id] = sim.engine.now
        place(job, pool_name, need)

    def watched_displace(job):
        job_id = job.arrival.job_id
        ran_s[job_id] = ran_s.get(job_id, 0.0) + sim.engine.now - placed_at[job_id]
        displace(job)

    def watched_sample():  # the last thing every tick does
        sample()
        sim.check_ledgers()
        for pool in sim.pools.values():
            wpn = pool.spec.workers_per_node
            assert 0 <= pool.busy <= pool.up * wpn
            assert all(0 <= node.used <= wpn for node in pool.nodes.values())
            assert pool.spec.min_nodes <= pool.committed_nodes <= pool.spec.max_nodes

    sim._place, sim._displace, sim._sample = (
        watched_place, watched_displace, watched_sample
    )
    result = sim.run()

    assert result.all_terminal()
    assert result.completed + result.rejected == result.num_jobs
    for job in result.jobs:
        assert job.reschedules == job.displacements
        if job.state != "completed":
            continue
        final_run_s = job.finish_s - placed_at[job.job_id]
        accounted = job.queue_s + ran_s.get(job.job_id, 0.0) + final_run_s
        assert accounted == pytest.approx(job.finish_s - job.submit_s, abs=0.01)
