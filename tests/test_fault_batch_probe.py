"""The batch fault probe is the per-item probe, and the fleet simulator
that uses it did not change its mind.

``FaultInjector.check_each`` must be indistinguishable from a loop of
``check(point, item=item, ...)`` — same fires, same ``max_fires`` budgets,
same audit trail — and its byte-threshold compare must be exactly
``hash01 < rate``.  ``FleetSimulator._probe_nodes`` is compared against the
interleaved per-node loop it replaced, kept here as the reference, and two
counting guards pin what the rewrite is for: no per-node ``check()`` calls,
and no per-node work at all under a plan with nothing to say to the nodes.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fleet_resilience
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule, fire_threshold
from repro.fleet import (
    AUTOSCALE_KINDS,
    TRACE_KINDS,
    FleetSimulator,
    generate_trace,
    run_fleet,
)
from repro.fleet import simulator as fleet_simulator
from repro.hardware.calibration import CALIBRATION
from test_fleet import SMALL_POOLS, small_trace

POINT = "slow-node"  # any catalogued point: check_each is not fleet-specific


# -- the coin: digest bytes against fire_threshold(rate) ---------------------


def near(value, step):
    """``value`` moved ``step`` ulps (-1, 0, +1), kept inside [0, 1]."""
    if step:
        value = math.nextafter(value, math.inf if step > 0 else -math.inf)
    return min(1.0, max(0.0, value))


def coin_digest(plan, point, key):
    return hashlib.sha256(f"{plan.seed}:{point}:{key}".encode("utf-8")).digest()


class TestFireThreshold:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=-5, max_value=2**32),
        key=st.text(max_size=24),
        rate=st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from((-1, 0, 1)),  # ulps away from this key's own draw
        ),
    )
    def test_digest_below_threshold_iff_hash01_below_rate(self, seed, key, rate):
        plan = FaultPlan(seed=seed)
        draw = plan.hash01(POINT, key)
        if isinstance(rate, int):
            rate = near(draw, rate)
        digest = coin_digest(plan, POINT, key)
        assert (digest[:8] < fire_threshold(rate)) == (draw < rate)
        assert (digest < fire_threshold(rate)) == (draw < rate)  # unsliced

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=2**64 - 4096, max_value=2**64 - 1),
            st.integers(min_value=0, max_value=4096),
        ),
        step=st.sampled_from((-1, 0, 1)),
        tail=st.binary(min_size=24, max_size=24),
    )
    def test_every_first_eight_bytes_within_an_ulp_of_the_rate(self, n, step, tail):
        rate = near(n / 2.0**64, step)
        digest = n.to_bytes(8, "big") + tail
        assert (digest < fire_threshold(rate)) == (n / 2.0**64 < rate)

    def test_rate_zero_never_fires(self):
        assert fire_threshold(0.0) == bytes(8)
        assert not bytes(32) < fire_threshold(0.0)  # even the all-zero digest

    def test_rate_one_fires_every_key_whose_hash01_is_below_one(self):
        # the top 1024 integers round to 2.0**64, so their hash01 is 1.0
        cut = 2**64 - 1024
        assert fire_threshold(1.0) == cut.to_bytes(8, "big")
        assert (cut - 1) / 2.0**64 < 1.0 and cut / 2.0**64 == 1.0
        assert (cut - 1).to_bytes(8, "big") + bytes(24) < fire_threshold(1.0)
        assert not b"\xff" * 32 < fire_threshold(1.0)

    def test_tiny_rate_admits_only_zero(self):
        assert fire_threshold(1e-300) == (1).to_bytes(8, "big")


# -- check_each is a loop of check ------------------------------------------

ITEMS = tuple(f"k{i}" for i in range(6))

rule_specs = st.fixed_dictionaries({
    "rate": st.one_of(
        st.sampled_from((0.0, 1.0, 1e-300, 0.5)),
        st.floats(min_value=0.0, max_value=1.0),
        # within an ulp of the draw of (item index, ulps)
        st.tuples(st.integers(0, len(ITEMS) - 1), st.sampled_from((-1, 0, 1))),
    ),
    "match": st.sampled_from((
        {}, {"pool": "a"}, {"pool": "b"}, {"item": "k1"}, {"absent": 1},
    )),
    "key": st.sampled_from((None, "item", "pool", "missing")),
    "max_fires": st.sampled_from((None, 0, 1, 3)),
})

item_lists = st.one_of(
    st.lists(st.sampled_from(ITEMS), max_size=12),
    # not all strings: the batch must fall back to the loop, unchanged
    st.lists(st.sampled_from(ITEMS + (None, 7)), max_size=6),
)


def build_plan(seed, specs, duplicate):
    bare = FaultPlan(seed=seed)
    rules = []
    for spec in specs:
        rate = spec["rate"]
        if isinstance(rate, tuple):
            rate = near(bare.hash01(POINT, ITEMS[rate[0]]), rate[1])
        rules.append(FaultRule(
            point=POINT, rate=rate, match=spec["match"], key=spec["key"],
            max_fires=spec["max_fires"],
        ))
    if duplicate == "equal":  # a second, equal rule: its own budget
        rules.append(FaultRule.from_dict(rules[0].to_dict()))
    elif duplicate == "same":  # the same object twice: one shared budget
        rules.append(rules[0])
    return FaultPlan(seed=seed, rules=tuple(rules))


def looped(injector, point, items, **context):
    """What ``check_each`` must equal, written out."""
    return [
        (i, rule) for i, item in enumerate(items)
        if (rule := injector.check(point, item=item, **context)) is not None
    ]


def no_hashing(data=b""):
    raise AssertionError(f"hashed {data!r}")


def audit(injector):
    return (
        injector.fire_counts(), injector.fired(),
        dict(injector._rule_fires), dict(injector._counters),
    )


class TestCheckEachIsCheck:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        specs=st.lists(rule_specs, min_size=1, max_size=4),
        duplicate=st.sampled_from((None, None, "equal", "same")),
        batches=st.lists(item_lists, min_size=1, max_size=3),
        context=st.sampled_from((
            {"pool": "a"}, {"pool": "b"}, {}, {"pool": "a", "job_id": "j1"},
            {"pool": "a", "job_id": None, "seed": 3},
        )),
    )
    def test_same_fires_budgets_and_audit(
        self, seed, specs, duplicate, batches, context
    ):
        # one plan object for both injectors: budgets are keyed by rule id
        plan = build_plan(seed, specs, duplicate)
        batch, loop = FaultInjector(plan), FaultInjector(plan)
        for items in batches:  # later batches inherit the spent budgets
            got = batch.check_each(POINT, items, **context)
            want = looped(loop, POINT, items, **context)
            assert [(i, id(rule)) for i, rule in got] == [
                (i, id(rule)) for i, rule in want
            ]
            assert audit(batch) == audit(loop)

    def test_point_without_rules_is_empty_and_free(self, monkeypatch):
        injector = FaultInjector(FaultPlan(seed=1, rules=(
            FaultRule(point="node-down", rate=1.0),
        )))
        monkeypatch.setattr(hashlib, "sha256", no_hashing)
        assert injector.check_each("slow-node", ["a", "b"], pool="p") == []
        assert injector.fired() == []

    def test_rules_matched_to_another_context_hash_nothing(self, monkeypatch):
        injector = FaultInjector(FaultPlan(seed=1, rules=(
            FaultRule(point="slow-node", rate=1.0, match={"pool": "other"}),
        )))
        monkeypatch.setattr(hashlib, "sha256", no_hashing)
        assert injector.check_each("slow-node", ["a", "b"], pool="p") == []

    def test_fast_path_makes_one_hash_per_item_for_any_number_of_rules(
        self, monkeypatch
    ):
        hashed = []
        real = hashlib.sha256

        def counting(data=b""):
            hashed.append(data)
            return real(data)

        injector = FaultInjector(FaultPlan(seed=9, rules=(
            FaultRule(point="slow-node", rate=0.2),
            FaultRule(point="slow-node", rate=0.6, max_fires=2),
            FaultRule(point="slow-node", rate=1.0, key="item"),
        )))
        monkeypatch.setattr(hashlib, "sha256", counting)
        fired = injector.check_each("slow-node", list(ITEMS), pool="p")
        assert hashed == [f"9:slow-node:{item}".encode() for item in ITEMS]
        assert [position for position, _ in fired] == list(range(len(ITEMS)))


# -- the simulator: reference loop vs shipped batch probes -------------------


class InterleavedSimulator(FleetSimulator):
    """The per-node interleaved probe loop ``_probe_nodes`` replaced (the
    parent commit's body, verbatim): every up node is asked ``node-down``
    and then, if it survived, ``slow-node``, one ``check()`` each."""

    def _probe_nodes(self, epoch):
        if self._injector is None:
            return
        slowed = {}
        for name, pool in self.pools.items():
            for node in [node for node in pool.nodes if node.up]:
                item = f"{name}:node-{node.id}:epoch-{epoch}"
                if self._probe("node-down", item=item, pool=name) is not None:
                    for job_id in node.allocations:
                        slowed.pop(job_id, None)
                    self._fail_node(pool, node)
                    continue
                rule = self._probe("slow-node", item=item, pool=name)
                if rule is not None:
                    penalty = (
                        self.slow_penalty_s if rule.delay_s is None else rule.delay_s
                    )
                    for job_id in node.allocations:
                        slowed[job_id] = max(slowed.get(job_id, 0.0), penalty)
        for job_id in sorted(slowed):
            self._slow_job(self._jobs[job_id], slowed[job_id])


#: rule shapes the issue names, per point; a plan below draws 0-2 of each
#: point's in plan order, so most examples have the two points interacting
down_rules = st.one_of(
    st.builds(
        FaultRule, point=st.just("node-down"),
        rate=st.sampled_from((0.005, 0.01)),  # uncapped: keep jobs finishable
    ),
    st.builds(  # a budget: must land on the same nodes in both orders
        FaultRule, point=st.just("node-down"),
        rate=st.sampled_from((0.1, 0.5)), max_fires=st.sampled_from((1, 4)),
    ),
    st.builds(  # one coin per pool, not per node: the per-item fallback
        FaultRule, point=st.just("node-down"), rate=st.just(0.5),
        key=st.just("pool"), max_fires=st.just(3),
    ),
)
slow_rules = st.one_of(
    st.builds(
        FaultRule, point=st.just("slow-node"),
        rate=st.sampled_from((0.05, 0.3, 1.0)),
        # under one fault epoch (600 s), or a job slowed every epoch never ends
        delay_s=st.sampled_from((None, 120.0, 450.0)),
    ),
    st.builds(  # resolves for one pool only
        FaultRule, point=st.just("slow-node"), rate=st.sampled_from((0.2, 1.0)),
        match=st.sampled_from(({"pool": "presto-ssd"}, {"pool": "disagg-cpu"})),
        max_fires=st.sampled_from((None, 7)),
    ),
    st.builds(
        FaultRule, point=st.just("slow-node"), rate=st.just(0.5),
        key=st.just("pool"), max_fires=st.just(3),
    ),
)
node_plans = st.builds(
    lambda down, slow, burst: tuple(down + slow + burst),
    st.lists(down_rules, max_size=2),
    st.lists(slow_rules, max_size=2),
    st.lists(st.just(FaultRule(point="arrival-burst", rate=0.1)), max_size=1),
)

small_fleets = dict(
    kind=st.sampled_from(TRACE_KINDS),
    num_jobs=st.integers(min_value=20, max_value=60),
    trace_seed=st.integers(min_value=0, max_value=2**16),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(("first-fit", "best-fit", "priority")),
    autoscaler=st.sampled_from(AUTOSCALE_KINDS),
)


def state_at(simulator_class, until_s, trace, plan, **kwargs):
    """Run ``until_s`` simulated seconds; everything a probe can move."""
    injector = FaultInjector(plan)
    sim = simulator_class(trace, pools=SMALL_POOLS, injector=injector, **kwargs)
    for entry in trace.arrivals:
        sim.engine.schedule(
            entry.submit_s, lambda entry=entry: sim._on_arrival(entry)
        )
    sim.engine.spawn("fleet-step", sim._step_process())
    sim.engine.run(until=until_s)
    sim.check_ledgers()
    return (
        {
            job_id: (job.state, job.pool, job.finish_s, job.displacements,
                     job.reschedules, job.token)
            for job_id, job in sim._jobs.items()
        },
        {
            name: (pool.node_failures,
                   [(node.id, node.up, node.used) for node in pool.nodes])
            for name, pool in sim.pools.items()
        },
        injector.fire_counts(),
        sorted(map(repr, injector.fired())),  # same fires, regrouped
    )


class TestSimulatorDidNotChangeItsMind:
    @settings(max_examples=60, deadline=None)
    @given(rules=node_plans, **small_fleets)
    def test_digest_and_fires_equal_the_interleaved_reference(
        self, rules, kind, num_jobs, trace_seed, fault_seed, policy, autoscaler
    ):
        trace = small_trace(num_jobs, trace_seed, kind)
        plan = FaultPlan(seed=fault_seed, rules=rules)
        reference, shipped = (
            simulator_class(
                trace, pools=SMALL_POOLS, policy=policy, autoscaler=autoscaler,
                injector=FaultInjector(plan),
            ).run(max_events=500_000)  # run() ends on check_ledgers()
            for simulator_class in (InterleavedSimulator, FleetSimulator)
        )
        assert shipped.digest == reference.digest
        assert shipped.fault_fires == reference.fault_fires
        assert shipped.to_dict() == reference.to_dict()

    @settings(max_examples=10, deadline=None)
    @given(
        slow=st.builds(
            FaultRule, point=st.just("slow-node"), rate=st.just(1.0),
            max_fires=st.sampled_from((None, 5)),
        ),
        **small_fleets,
    )
    def test_every_node_down_every_epoch_never_asks_slow_node(
        self, slow, kind, num_jobs, trace_seed, fault_seed, policy, autoscaler
    ):
        # nothing longer than the repair window ever finishes under this
        # plan, so both sides stop at the same simulated hour instead
        trace = small_trace(num_jobs, trace_seed, kind)
        plan = FaultPlan(seed=fault_seed, rules=(
            FaultRule(point="node-down", rate=1.0), slow,
        ))
        reference, shipped = (
            state_at(simulator_class, 2 * 3600.0, trace, plan,
                     policy=policy, autoscaler=autoscaler)
            for simulator_class in (InterleavedSimulator, FleetSimulator)
        )
        assert shipped == reference
        fires = shipped[2]
        assert fires.get("node-down:down", 0) > 0
        assert "slow-node:slow" not in fires

    def test_audit_order_is_grouped_by_pool_and_point(self):
        trace = small_trace(40, 5)
        plan = FaultPlan(seed=3, rules=(
            FaultRule(point="node-down", rate=0.04),
            FaultRule(point="slow-node", rate=0.3),
        ))
        injector = FaultInjector(plan)
        run_fleet(trace, pools=SMALL_POOLS, injector=injector)
        groups = []  # (epoch, pool, point) in first-seen order
        for entry in injector.fired():
            pool, _, epoch = entry["key"].split(":")
            group = (epoch, pool, entry["point"])
            if not groups or groups[-1] != group:
                groups.append(group)
        assert len(groups) == len(set(groups))  # each group is contiguous
        assert any(point == "node-down" for _, _, point in groups)


# -- what the rewrite is for, as counts --------------------------------------


def resilience_run(injector):
    trace = generate_trace(
        "diurnal", num_jobs=240, seed=11,
        horizon_s=12 * 3600.0, mean_duration_s=3600.0,
    )
    result = run_fleet(
        trace, pools=fleet_resilience._pools(CALIBRATION), policy="priority",
        autoscaler="target-utilization", injector=injector,
    )
    return trace, result


class TestProbeCounts:
    def test_check_is_entered_at_most_once_per_arrival(self, monkeypatch):
        entered = []
        check = FaultInjector.check

        def counting(self, point, **context):
            entered.append(point)
            return check(self, point, **context)

        monkeypatch.setattr(FaultInjector, "check", counting)
        plan = FaultPlan(seed=11, rules=(
            FaultRule(point="node-down",
                      rate=fleet_resilience.DEFAULT_DOWN_RATE),
            FaultRule(point="slow-node",
                      rate=fleet_resilience.DEFAULT_SLOW_RATE, delay_s=300.0),
        ))
        trace, result = resilience_run(FaultInjector(plan))
        assert result.fault_fires["slow-node:slow"] > 1000  # it was probing
        assert set(entered) == {"arrival-burst"}
        assert len(entered) <= len(trace)

    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=11),
        FaultPlan(seed=11, rules=(FaultRule(point="arrival-burst", rate=0.0),)),
        FaultPlan(seed=11, rules=(FaultRule(point="conn-drop", rate=1.0),)),
    ], ids=["empty", "arrival-burst-only", "serve-tier-plan"])
    def test_plan_with_nothing_for_the_nodes_costs_no_node_work(
        self, plan, monkeypatch
    ):
        _, clean = resilience_run(None)

        keyed, hashed = [], []
        node_keys, sha256 = fleet_simulator._node_keys, hashlib.sha256

        def counting_keys(pool, nodes, epoch):
            keyed.append(len(nodes))
            return node_keys(pool, nodes, epoch)

        def counting_sha256(data=b""):
            if data.startswith((b"11:node-down:", b"11:slow-node:")):
                hashed.append(data)
            return sha256(data)

        monkeypatch.setattr(fleet_simulator, "_node_keys", counting_keys)
        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        _, result = resilience_run(FaultInjector(plan))
        assert keyed == [] and hashed == []
        assert result.digest == clean.digest
