"""The fleet's node coin, checked against a reference, and the simulator
that draws it did not change its mind.

``FaultInjector.check_nodes`` draws node ``id``'s coin from word ``id`` of
one ``shake_256`` stream per (pool, point, epoch).  A reference written
here from the standard library alone — the word, then ``hash01``'s float
predicate ``word / 2**64 < rate`` — must give the same fires, budgets and
audit trail over random plans and node-id sets; a node's fate must not
depend on which other nodes exist; and ``FleetSimulator._probe_nodes`` is
compared against the interleaved per-node loop drawing that reference.
Counting guards pin what the stream is for: one stream per (pool, point,
epoch) whatever the node count, no per-node ``check()`` calls, and no
node work at all under a plan with nothing to say to the nodes.  The
per-key coin (``hash01``, every job, stage and arrival point) and its
byte threshold are checked first.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import fleet_resilience
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule, fire_threshold
from repro.fleet import (
    AUTOSCALERS,
    TRACE_KINDS,
    FleetSimulator,
    generate_trace,
    run_fleet,
)
from repro.fleet.simulator import SLOW_PENALTY_S, STEP_S, _Node
from repro.hardware.calibration import CALIBRATION
from test_count_laws import count_calls
from test_fleet import SMALL_POOLS, run_until, small_trace

POINT = "slow-node"  # any catalogued point


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


# -- the node coin: one stream per (pool, point, epoch) -----------------------


def stream_word(seed, point, pool, epoch, node_id):
    """Word ``node_id`` of the (pool, point, epoch) stream, stdlib only."""
    data = f"{seed}:{point}:{pool}:epoch-{epoch}".encode("utf-8")
    stream = hashlib.shake_256(data).digest(8 * (node_id + 1))
    return int.from_bytes(stream[8 * node_id:], "big")


def reference_draw(injector, point, pool, epoch, node_id):
    """One node's probe, written out: the point's rules matching the pool,
    in plan order; the first whose ``word / 2**64 < rate`` and whose budget
    is not spent fires (and is audited through the injector)."""
    word = stream_word(injector.plan.seed, point, pool, epoch, node_id)
    for rule in injector.plan.rules_for(point):
        if (rule.matches({"pool": pool}) and word / 2.0**64 < rule.rate
                and injector._record(
                    rule, point, f"{pool}:node-{node_id}:epoch-{epoch}")):
            return rule
    return None


def reference_fires(injector, point, pool, epoch, node_ids):
    """What ``check_nodes`` must return."""
    return [
        (node_id, rule) for node_id in sorted(node_ids)
        if (rule := reference_draw(injector, point, pool, epoch, node_id))
        is not None
    ]


def up_nodes(node_ids, down=()):
    """The id -> node map ``check_nodes`` takes, in id order; the ``down``
    ids are present but not up."""
    nodes = {node_id: _Node(node_id) for node_id in sorted(node_ids)}
    for node_id in down:
        nodes[node_id].up = False
    return nodes


def audit(injector):
    return (
        injector.fire_counts(), injector.fired(),
        dict(injector._rule_fires), dict(injector._counters),
    )


node_id_sets = st.lists(
    st.integers(min_value=0, max_value=3000), unique=True, max_size=40
)

rule_specs = st.fixed_dictionaries({
    "rate": st.one_of(
        st.sampled_from((0.0, 1.0, 1e-300, 0.5)),
        st.floats(min_value=0.0, max_value=1.0),
        # within an ulp of some drawn node's word: (node index, ulps)
        st.tuples(st.integers(0, 39), st.sampled_from((-1, 0, 1))),
    ),
    "match": st.sampled_from(({}, {"pool": "a"}, {"pool": "b"}, {"absent": 1})),
    "max_fires": st.sampled_from((None, 0, 1, 3)),
})


def build_plan(seed, specs, duplicate, pool, epoch, node_ids):
    rules = []
    for spec in specs:
        rate = spec["rate"]
        if isinstance(rate, tuple):
            index, step = rate
            node_id = node_ids[index % len(node_ids)] if node_ids else index
            rate = near(stream_word(seed, POINT, pool, epoch, node_id) / 2.0**64,
                        step)
        rules.append(FaultRule(
            point=POINT, rate=rate, match=spec["match"],
            max_fires=spec["max_fires"],
        ))
    if duplicate == "equal":  # a second, equal rule: its own budget
        rules.append(FaultRule.from_dict(rules[0].to_dict()))
    elif duplicate == "same":  # the same object twice: one shared budget
        rules.append(rules[0])
    return FaultPlan(seed=seed, rules=tuple(rules))


class TestNodeCoinIsTheStreamWord:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(min_value=-5, max_value=2**32),
        specs=st.lists(rule_specs, min_size=1, max_size=4),
        duplicate=st.sampled_from((None, None, "equal", "same")),
        pool=st.sampled_from(("a", "b")),
        epoch=st.integers(min_value=0, max_value=500),
        batches=st.lists(node_id_sets, min_size=1, max_size=3),
    )
    def test_same_fires_budgets_and_audit_as_the_reference(
        self, seed, specs, duplicate, pool, epoch, batches
    ):
        # one plan object for both injectors: budgets are keyed by rule id
        plan = build_plan(seed, specs, duplicate, pool, epoch, batches[0])
        shipped, reference = FaultInjector(plan), FaultInjector(plan)
        for node_ids in batches:  # later batches inherit the spent budgets
            got = shipped.check_nodes(POINT, pool, epoch, up_nodes(node_ids))
            want = reference_fires(reference, POINT, pool, epoch, node_ids)
            assert [(i, id(rule)) for i, rule in got] == [
                (i, id(rule)) for i, rule in want
            ]
            assert audit(shipped) == audit(reference)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(min_value=0.0, max_value=1.0),
        epoch=st.integers(min_value=0, max_value=500),
        node_ids=node_id_sets,
        dropped=st.sets(st.integers(min_value=0, max_value=39)),
    )
    def test_dropping_other_nodes_never_changes_a_nodes_fate(
        self, seed, rate, epoch, node_ids, dropped
    ):
        plan = FaultPlan(seed=seed, rules=(FaultRule(point=POINT, rate=rate),))

        def fired(nodes):
            return {
                node_id for node_id, _ in
                FaultInjector(plan).check_nodes(POINT, "a", epoch, nodes)
            }

        kept = [n for i, n in enumerate(node_ids) if i not in dropped]
        assert fired(up_nodes(kept)) == fired(up_nodes(node_ids)) & set(kept)
        # a node that is down is not asked, and costs no other node its coin
        downed = [n for i, n in enumerate(node_ids) if i in dropped]
        assert fired(up_nodes(node_ids, down=downed)) == fired(up_nodes(kept))

    def test_rate_zero_never_fires_and_rate_one_fires_below_the_cut(self):
        ids = list(range(2000))
        never = FaultInjector(FaultPlan(seed=4, rules=(
            FaultRule(point=POINT, rate=0.0),
        )))
        always = FaultInjector(FaultPlan(seed=4, rules=(
            FaultRule(point=POINT, rate=1.0),
        )))
        assert never.check_nodes(POINT, "a", 3, up_nodes(ids)) == []
        assert [p for p, _ in always.check_nodes(POINT, "a", 3, up_nodes(ids))] == [
            p for p in ids if stream_word(4, POINT, "a", 3, p) < 2**64 - 1024
        ]

    @pytest.mark.parametrize("rule", [
        FaultRule(point=POINT, rate=0.5, key="item"),
        FaultRule(point=POINT, rate=0.5, key="pool", max_fires=3),
        FaultRule(point=POINT, rate=0.5, match={"item": "a:node-1:epoch-0"}),
    ], ids=["key-item", "key-pool", "match-item"])
    def test_a_rule_the_stream_cannot_honour_is_refused_by_name(self, rule):
        plan = FaultPlan(seed=1, rules=(FaultRule(point=POINT, rate=0.1), rule))
        with pytest.raises(ConfigurationError, match="cannot be drawn") as info:
            FaultInjector(plan).check_nodes(POINT, "a", 0, up_nodes([0, 1]))
        assert repr(rule.to_dict()) in str(info.value)
        with pytest.raises(ConfigurationError, match="cannot be drawn"):
            run_fleet(small_trace(10, 1), pools=SMALL_POOLS,
                      injector=FaultInjector(plan))


# -- the simulator: interleaved reference loop vs shipped stream probes ------


class InterleavedSimulator(FleetSimulator):
    """The per-node interleaved probe loop, drawing the reference coin:
    every up node is asked ``node-down`` and then, if it survived,
    ``slow-node``, one node at a time."""

    def _probe_nodes(self, epoch):
        injector = self._injector
        if injector is None:
            return
        slowed = {}
        for name, pool in self.pools.items():
            for node in [node for node in pool.nodes.values() if node.up]:
                if reference_draw(injector, "node-down", name, epoch,
                                  node.id) is not None:
                    for job_id in node.allocations:
                        slowed.pop(job_id, None)
                    self._fail_node(pool, node)
                    continue
                rule = reference_draw(injector, "slow-node", name, epoch, node.id)
                if rule is not None:
                    penalty = SLOW_PENALTY_S if rule.delay_s is None else rule.delay_s
                    for job_id in node.allocations:
                        slowed[job_id] = max(slowed.get(job_id, 0.0), penalty)
        for job_id in sorted(slowed):
            self._slow_job(self._jobs[job_id], slowed[job_id])


#: rule shapes per point; a plan below draws 0-2 of each point's in plan
#: order, so most examples have the two points interacting
down_rules = st.one_of(
    st.builds(
        FaultRule, point=st.just("node-down"),
        rate=st.sampled_from((0.005, 0.01, 0.05)),
    ),
    st.builds(  # a budget: must land on the same nodes in both orders
        FaultRule, point=st.just("node-down"),
        rate=st.sampled_from((0.1, 0.5)), max_fires=st.sampled_from((1, 4)),
    ),
    st.builds(  # resolves for one pool only
        FaultRule, point=st.just("node-down"), rate=st.just(0.02),
        match=st.sampled_from(({"pool": "presto-ssd"}, {"pool": "disagg-cpu"})),
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
    autoscaler=st.sampled_from(tuple(AUTOSCALERS)),
)


def state_at(simulator_class, until_s, trace, plan, **kwargs):
    """Run ``until_s`` simulated seconds; everything a probe can move."""
    injector = FaultInjector(plan)
    sim = simulator_class(trace, pools=SMALL_POOLS, injector=injector, **kwargs)
    for entry in trace.arrivals:
        sim.engine.schedule(
            entry.submit_s, lambda entry=entry: sim._on_arrival(entry)
        )
    sim.engine.schedule(0.0, lambda: sim.engine.schedule(STEP_S, sim._tick))
    run_until(sim.engine, until_s)
    sim.check_ledgers()
    return (
        {
            job_id: (job.state, job.pool, job.finish_s, job.displacements,
                     job.reschedules, job.token, job.remaining_s, job.lost_s)
            for job_id, job in sim._jobs.items()
        },
        {
            name: (pool.node_failures,
                   [(node.id, node.up, node.used)
                    for node in pool.nodes.values()])
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
        # no job that outlives an epoch ever finishes under this plan, so
        # both sides stop at the same simulated hour instead
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


# -- what the stream is for, as counts ---------------------------------------


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


RESILIENCE_PLAN = FaultPlan(seed=11, rules=(
    FaultRule(point="node-down", rate=fleet_resilience.DEFAULT_DOWN_RATE),
    FaultRule(point="slow-node", rate=fleet_resilience.DEFAULT_SLOW_RATE,
              delay_s=300.0),
))


def count_node_work(monkeypatch):
    """Patch in counters: every ``check_nodes`` call as (point, pool,
    epoch, up nodes asked), every stream built as (point, stream key)."""
    calls, streams = [], []
    check_nodes, stream_words = FaultInjector.check_nodes, FaultPlan.stream_words

    def counting_check(self, point, pool, epoch, nodes):
        asked = sum(node.up for node in nodes.values())
        calls.append((point, pool, epoch, asked))
        return check_nodes(self, point, pool, epoch, nodes)

    def counting_stream(self, point, stream, count):
        streams.append((point, stream))
        return stream_words(self, point, stream, count)

    monkeypatch.setattr(FaultInjector, "check_nodes", counting_check)
    monkeypatch.setattr(FaultPlan, "stream_words", counting_stream)
    return calls, streams


class TestProbeCounts:
    def test_check_is_entered_at_most_once_per_arrival(self, monkeypatch):
        entered = []
        check = FaultInjector.check

        def counting(self, point, **context):
            entered.append(point)
            return check(self, point, **context)

        monkeypatch.setattr(FaultInjector, "check", counting)
        trace, result = resilience_run(FaultInjector(RESILIENCE_PLAN))
        assert result.fault_fires["slow-node:slow"] > 1000  # it was probing
        assert set(entered) == {"arrival-burst"}
        assert len(entered) <= len(trace)

    def test_one_stream_per_pool_point_and_epoch_whatever_the_node_count(
        self, monkeypatch
    ):
        calls, streams = count_node_work(monkeypatch)
        resilience_run(FaultInjector(RESILIENCE_PLAN))
        asked = [(point, f"{pool}:epoch-{epoch}")
                 for point, pool, epoch, nodes in calls if nodes]
        assert streams == asked
        assert len(set(streams)) == len(streams)
        epochs = {epoch for _, _, epoch, _ in calls}
        assert len(streams) == 2 * 2 * len(epochs)  # no pool was ever all down
        node_epochs = sum(nodes for *_, nodes in calls)
        assert node_epochs > 100 * len(streams)

    def test_rules_matched_to_no_pool_build_no_stream(self, monkeypatch):
        calls, streams = count_node_work(monkeypatch)
        _, clean = resilience_run(None)
        _, result = resilience_run(FaultInjector(FaultPlan(seed=11, rules=(
            FaultRule(point="node-down", rate=1.0, match={"pool": "elsewhere"}),
        ))))
        assert calls and streams == []
        assert result.digest == clean.digest

    def test_retired_ids_below_the_live_nodes_cost_no_calls(self):
        """Node ids are never reused, so a long day leaves its live nodes
        far above id 0.  One ``check_nodes`` on ten live nodes makes the
        same Python calls whether 0 or 10,000 lower ids were retired: it
        reads the live ids' words, never the retired ones' (at rate 1.0
        each of those was a hit and one ``dict.get``)."""
        plan = FaultPlan(seed=11, rules=(FaultRule(point=POINT, rate=1.0),))

        def probe(first):
            nodes = up_nodes(range(first, first + 10))
            fired = FaultInjector(plan).check_nodes(POINT, "a", 3, nodes)
            assert [node_id for node_id, _ in fired] == list(nodes)

        probe(0)  # warm-up: the rule's threshold, the stream's hasher
        calls = [count_calls(lambda: probe(first)) for first in (0, 10_000)]
        assert calls[0] == calls[1]

    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=11),
        FaultPlan(seed=11, rules=(FaultRule(point="arrival-burst", rate=0.0),)),
        FaultPlan(seed=11, rules=(FaultRule(point="conn-drop", rate=1.0),)),
    ], ids=["empty", "arrival-burst-only", "serve-tier-plan"])
    def test_plan_with_nothing_for_the_nodes_costs_no_node_work(
        self, plan, monkeypatch
    ):
        _, clean = resilience_run(None)
        calls, streams = count_node_work(monkeypatch)
        _, result = resilience_run(FaultInjector(plan))
        assert calls == [] and streams == []
        assert result.digest == clean.digest
