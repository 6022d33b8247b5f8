"""The fleet step loop against its pay-for-everything reference.

``FleetSimulator`` pays per tick and per placement only for what changed:
the autoscaler is asked only when a pool's snapshot moved since its last
"hold", ``_place`` jumps through the open map (one byte per node id)
to the lowest up non-full node, ``_free`` releases a job's workers in
one ledger update, ``reference.power()`` is called only when a pool's
capacity changes, and a job's needs are memoized per ``(model name,
num_gpus)``.  :class:`ReferenceFleetSimulator` keeps the bodies those
replaced (ask every pool every tick, scan every node in id order for
room, release node by node, call ``power()`` per pool per tick,
provision every arrival afresh), writing the open map only so that
``check_ledgers`` still holds.  A
derandomized hypothesis search over trace kind x policy x autoscaler x
fault plan asserts that both produce the same digest and the same fault
audit, with ``check_ledgers()`` green after every tick on both sides.

The autoscaler half of that rests on a contract stated in
``Autoscaler.target_nodes``: the answer is a pure function of the
``PoolSnapshot``.  A counting autoscaler below shows what the contract
buys: a settled pool is asked once, not once per tick.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FleetError, ProvisioningError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.features.specs import get_model
from repro.fleet import (
    AUTOSCALERS,
    POLICIES,
    TRACE_KINDS,
    FleetResult,
    FleetSimulator,
    JobArrival,
    PoolSpec,
    Trace,
)
from repro.fleet.autoscale import PoolSnapshot, TargetUtilizationAutoscaler
from test_fleet import SMALL_POOLS, small_trace


class ReferenceFleetSimulator(FleetSimulator):
    """The step loop before it skipped unchanged work.  ``_place`` and
    ``_free`` find room by scanning ``pool.nodes`` and only write the open
    map; every other body below is kept as it was."""

    def _needs(self, arrival):
        model = get_model(arrival.model)
        needs = []
        for pool in self.pools.values():
            system = pool.factory(model, self.calibration)
            try:
                need = system.provision_for(arrival.num_gpus).num_workers
            except (ConfigurationError, ProvisioningError):
                continue  # this technology cannot sustain the job
            if need <= pool.spec.max_workers:
                needs.append((pool, need))
        return tuple(needs)

    def _place(self, job, pool_name, need):
        pool = self.pools[pool_name]
        now = self.engine.now
        remaining = need
        wpn = pool.spec.workers_per_node
        for node in sorted(pool.nodes.values(), key=lambda node: node.id):
            if remaining <= 0:
                break
            free = wpn - node.used
            if free <= 0 or not node.up:
                continue
            take = min(free, remaining)
            node.allocations[job.arrival.job_id] = take
            node.used += take
            job.alloc.append(node)
            remaining -= take
            pool.open[node.id] = node.used < wpn
        if remaining > 0:  # _drain said it fits; this is a bug
            raise FleetError(
                f"pool {pool_name!r} lost capacity while placing "
                f"{job.arrival.job_id!r}"
            )
        pool.busy += need
        for other, queued_need in job.needs:
            other.queued -= queued_need
        job.state = "running"
        job.pool = pool_name
        job.waited_s += now - job.enqueued_s
        if job.start_s is None:
            job.start_s = now
        else:
            # a previously-displaced job won capacity again; counted here
            # (not at displacement time) so reschedules independently
            # witnesses the requeue->replace path the chaos tier gates
            job.reschedules += 1
        job.token += 1
        token = job.token
        job.run_origin_s = now
        job.finish_s = now + job.remaining_s
        self.engine.schedule(
            job.remaining_s, lambda: self._complete(job, token)
        )

    def _free(self, job):
        pool = self.pools[job.pool]
        for node in job.alloc:
            released = node.allocations.pop(job.arrival.job_id)
            node.used -= released
            pool.busy -= released
            pool.open[node.id] = node.up
        job.alloc = []

    def _integrate(self):
        now = self.engine.now
        dt_h = (now - self._last_integrate_s) / 3600.0
        if dt_h <= 0:
            return
        for pool in self.pools.values():
            capacity = pool.up * pool.spec.workers_per_node
            pool.capacity_worker_hours += capacity * dt_h
            pool.busy_worker_hours += pool.busy * dt_h
            watts = pool.reference.power(capacity) if capacity else 0.0
            pool.energy_kwh += watts * dt_h / 1000.0
        self._last_integrate_s = now

    def _autoscale(self):
        for pool in self.pools.values():
            spec = pool.spec
            snapshot = PoolSnapshot(
                nodes=pool.committed_nodes, workers_per_node=spec.workers_per_node,
                busy_workers=pool.busy, queued_workers=pool.queued,
                min_nodes=spec.min_nodes, max_nodes=spec.max_nodes,
            )
            target = snapshot.clamp(int(self.autoscaler.target_nodes(snapshot)))
            delta = target - pool.committed_nodes
            if delta > 0:
                self._grow(pool, delta)
            elif delta < 0:
                self._shrink(pool, -delta)
            pool.peak_nodes = max(pool.peak_nodes, pool.committed_nodes)


def checked_run(cls, trace, plan=None, **kwargs):
    """Run ``trace`` on a ``cls`` simulator, recounting every ledger after
    every tick; returns the result and the injector's fire audit."""
    injector = FaultInjector(plan) if plan is not None else None
    sim = cls(trace, pools=SMALL_POOLS, injector=injector, **kwargs)
    sample = sim._sample

    def checked_sample():  # the last thing every tick does
        sample()
        sim.check_ledgers()

    sim._sample = checked_sample
    result = sim.run()
    return result, (injector.fired() if injector is not None else [])


#: the fault plans each cell runs under: none, or one of the three points
FAULT_POINTS = (None, "node-down", "slow-node", "arrival-burst")
POINT_RATES = {
    "node-down": (0.005, 0.02, 0.08),
    "slow-node": (0.05, 0.2),
    "arrival-burst": (0.1, 0.5),
}


@pytest.mark.parametrize("point", FAULT_POINTS)
@pytest.mark.parametrize("autoscaler", tuple(AUTOSCALERS))
@pytest.mark.parametrize("policy", tuple(POLICIES))
@pytest.mark.parametrize("kind", TRACE_KINDS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_step_loop_matches_reference(kind, policy, autoscaler, point, data):
    trace = small_trace(
        num_jobs=data.draw(st.integers(min_value=1, max_value=30), label="jobs"),
        seed=data.draw(st.integers(min_value=0, max_value=2**16), label="seed"),
        kind=kind,
    )
    plan = None
    if point is not None:
        plan = FaultPlan(
            seed=data.draw(st.integers(min_value=0, max_value=2**16), label="fault"),
            rules=(FaultRule(
                point=point,
                rate=data.draw(st.sampled_from(POINT_RATES[point]), label="rate"),
            ),),
        )
    fast, fast_fired = checked_run(
        FleetSimulator, trace, plan, policy=policy, autoscaler=autoscaler
    )
    slow, slow_fired = checked_run(
        ReferenceFleetSimulator, trace, plan, policy=policy, autoscaler=autoscaler
    )
    assert fast.digest == slow.digest
    assert fast.fault_fires == slow.fault_fires
    assert fast_fired == slow_fired


# -- the autoscaler contract ------------------------------------------------


def idle_gap_trace():
    """Two short jobs 100 minutes apart on one PreSto node: the pool
    settles between them for about 90 idle ticks."""
    return Trace(kind="manual", seed=0, arrivals=tuple(
        JobArrival(
            job_id=job_id, model="RM1", num_gpus=16, duration_s=600.0,
            submit_s=submit_s, priority=0,
        )
        for job_id, submit_s in (("a", 0.0), ("b", 6000.0))
    ))


ONE_POOL = (PoolSpec(
    name="only", system="PreSto", nodes=1, workers_per_node=8,
    min_nodes=1, max_nodes=4, scaleup_latency_s=120.0,
),)


class TestAutoscalerContract:
    @pytest.fixture
    def counting(self, monkeypatch):
        """``target-utilization``'s answers, with every question logged."""
        asked = []

        class Counting(TargetUtilizationAutoscaler):
            def target_nodes(self, pool):
                asked.append(pool)
                return super().target_nodes(pool)

        monkeypatch.setitem(AUTOSCALERS, "test-counting", Counting)
        return asked

    def run(self, cls, autoscaler):
        sim = cls(idle_gap_trace(), pools=ONE_POOL, autoscaler=autoscaler)
        ticks = []
        autoscale = sim._autoscale
        sim._autoscale = lambda: (ticks.append(sim.engine.now), autoscale())
        return sim.run(), ticks

    def test_settled_pool_is_asked_once(self, counting):
        result, ticks = self.run(FleetSimulator, "test-counting")
        idle = PoolSnapshot(
            nodes=1, workers_per_node=8, busy_workers=0, queued_workers=0,
            min_nodes=1, max_nodes=4,
        )
        idle_ticks = [t for t in ticks if 600.0 < t < 6000.0]
        assert len(idle_ticks) >= 80
        # once when job a leaves, once when job b does; never per idle tick
        assert counting.count(idle) == 2
        asked = len(counting)
        assert asked <= 4 < len(ticks)

        reference, reference_ticks = self.run(
            ReferenceFleetSimulator, "test-counting"
        )
        assert reference_ticks == ticks
        assert len(counting) - asked == len(ticks)  # asked every tick
        assert reference.digest == result.digest

    def test_digest_equals_target_utilization(self, counting):
        counted, _ = self.run(FleetSimulator, "test-counting")
        plain, _ = self.run(FleetSimulator, "target-utilization")
        assert dataclasses.replace(
            counted, autoscaler="target-utilization"
        ).digest == plain.digest


# -- one run per simulator ---------------------------------------------------


def test_second_run_raises():
    sim = FleetSimulator(small_trace(num_jobs=10, seed=3), pools=SMALL_POOLS)
    first = sim.run()
    assert first.all_terminal()
    with pytest.raises(FleetError, match="runs once; build a new one"):
        sim.run()
    again = FleetSimulator(small_trace(num_jobs=10, seed=3), pools=SMALL_POOLS)
    assert again.run().digest == first.digest


def test_faulted_result_round_trips():
    plan = FaultPlan(seed=7, rules=(
        FaultRule(point="node-down", rate=0.02),
        FaultRule(point="slow-node", rate=0.1, delay_s=300.0),
        FaultRule(point="arrival-burst", rate=0.2),
    ))
    result, _ = checked_run(
        FleetSimulator, small_trace(num_jobs=30, seed=4), plan,
        policy="best-fit", autoscaler="target-utilization",
    )
    assert result.displacements and result.lost_work_hours and result.fault_fires
    clone = FleetResult.from_dict(result.to_dict())
    assert clone == result
    assert clone.digest == result.digest
