"""Tests for DES servers and stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine, Timeout
from repro.sim.resources import Server, Store


class TestServer:
    def test_single_slot_serializes(self):
        engine = Engine()
        server = Server("s", capacity=1)
        finish = []

        def proc():
            yield server.request(2.0)
            finish.append(engine.now)

        engine.spawn("a", proc())
        engine.spawn("b", proc())
        engine.run()
        assert finish == [2.0, 4.0]

    def test_multi_slot_parallelism(self):
        engine = Engine()
        server = Server("s", capacity=2)
        finish = []

        def proc():
            yield server.request(2.0)
            finish.append(engine.now)

        for _ in range(4):
            engine.spawn("p", proc())
        engine.run()
        assert finish == [2.0, 2.0, 4.0, 4.0]

    def test_utilization(self):
        engine = Engine()
        server = Server("s", capacity=2)

        def proc():
            yield server.request(1.0)

        engine.spawn("a", proc())
        engine.run()
        # one slot busy for 1s out of 2 slots x 1s
        assert server.utilization(engine.now) == pytest.approx(0.5)
        assert server.completed == 1

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Server("s", capacity=0)

    def test_negative_service_time(self):
        server = Server("s")
        with pytest.raises(SimulationError):
            server.request(-1.0)


class TestStore:
    def test_fifo_order(self):
        engine = Engine()
        store = Store("q")
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)
                yield Timeout(1.0)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        engine.spawn("p", producer())
        engine.spawn("c", consumer())
        engine.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        engine = Engine()
        store = Store("q")
        times = []

        def consumer():
            item = yield store.get()
            times.append((engine.now, item))

        def producer():
            yield Timeout(5.0)
            yield store.put("x")

        engine.spawn("c", consumer())
        engine.spawn("p", producer())
        engine.run()
        assert times == [(5.0, "x")]

    def test_put_blocks_when_full(self):
        engine = Engine()
        store = Store("q", capacity=1)
        events = []

        def producer():
            yield store.put(1)
            events.append(("put1", engine.now))
            yield store.put(2)  # blocks until the consumer drains
            events.append(("put2", engine.now))

        def consumer():
            yield Timeout(3.0)
            yield store.get()

        engine.spawn("p", producer())
        engine.spawn("c", consumer())
        engine.run()
        assert events[0] == ("put1", 0.0)
        assert events[1][1] == 3.0  # second put completed when space freed

    def test_counters(self):
        engine = Engine()
        store = Store("q")

        def producer():
            yield store.put("a")
            yield store.put("b")

        def consumer():
            yield store.get()

        engine.spawn("p", producer())
        engine.spawn("c", consumer())
        engine.run()
        assert store.total_put == 2
        assert store.total_got == 1
        assert len(store) == 1

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store("q", capacity=0)


class TestConservationProperty:
    @given(
        num_items=st.integers(min_value=1, max_value=50),
        capacity=st.integers(min_value=1, max_value=8),
        produce_gap=st.floats(min_value=0.0, max_value=2.0),
        consume_gap=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_items_conserved(self, num_items, capacity, produce_gap, consume_gap):
        """Everything produced is consumed exactly once, in order."""
        engine = Engine()
        store = Store("q", capacity=capacity)
        got = []

        def producer():
            for i in range(num_items):
                yield store.put(i)
                yield Timeout(produce_gap)

        def consumer():
            for _ in range(num_items):
                item = yield store.get()
                got.append(item)
                yield Timeout(consume_gap)

        engine.spawn("p", producer())
        engine.spawn("c", consumer())
        engine.run()
        assert got == list(range(num_items))
        assert store.total_put == store.total_got == num_items
        assert len(store) == 0
