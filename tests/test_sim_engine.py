"""Tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine, Timeout


class TestTimeouts:
    def test_clock_advances(self):
        engine = Engine()
        log = []

        def proc():
            yield Timeout(1.5)
            log.append(engine.now)
            yield Timeout(0.5)
            log.append(engine.now)

        engine.spawn("p", proc())
        engine.run()
        assert log == [1.5, 2.0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_zero_timeout_ok(self):
        engine = Engine()

        def proc():
            yield Timeout(0.0)

        p = engine.spawn("p", proc())
        engine.run()
        assert p.finished


class TestProcessLifecycle:
    def test_unknown_event_rejected(self):
        engine = Engine()

        def proc():
            yield "not-an-event"

        engine.spawn("p", proc())
        with pytest.raises(SimulationError, match="unknown event"):
            engine.run()

    def test_interleaving_deterministic(self):
        engine = Engine()
        log = []

        def proc(name, delay):
            yield Timeout(delay)
            log.append(name)

        engine.spawn("first", proc("first", 1.0))
        engine.spawn("second", proc("second", 1.0))
        engine.run()
        # simultaneous events fire in spawn order
        assert log == ["first", "second"]

    def test_max_events_guard(self):
        engine = Engine()

        def forever():
            while True:
                yield Timeout(0.0)

        engine.spawn("loop", forever())
        with pytest.raises(SimulationError, match="runaway"):
            engine.run(max_events=100)

    def test_schedule_into_past_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        engine = Engine()
        with pytest.raises(SimulationError, match="non-negative and finite"):
            engine.schedule(delay, lambda: None)
        with pytest.raises(SimulationError, match="non-negative and finite"):
            Timeout(delay)
        assert engine.run() == 0.0  # nothing was queued


class TestHeapEntryFastPath:
    """Tuple heap entries: callbacks and process steps interleave in
    (time, sequence) order exactly as the closure-based engine did."""

    def test_callbacks_and_processes_interleave_fifo(self):
        engine = Engine()
        log = []

        def proc(name):
            yield Timeout(1.0)
            log.append(name)

        engine.spawn("p1", proc("p1"))
        engine.schedule(1.0, lambda: log.append("cb1"))
        engine.spawn("p2", proc("p2"))
        engine.schedule(1.0, lambda: log.append("cb2"))
        engine.run()
        # callbacks were enqueued for t=1.0 up front; the processes reach
        # their own t=1.0 timeouts only after stepping at t=0, so they get
        # later sequence numbers and fire after the callbacks, FIFO
        assert log == ["cb1", "cb2", "p1", "p2"]

    def test_slots_reject_stray_attributes(self):
        engine = Engine()
        with pytest.raises(AttributeError):
            engine.unknown_attribute = 1

        def proc():
            yield Timeout(0.0)

        process = engine.spawn("p", proc())
        with pytest.raises(AttributeError):
            process.unknown_attribute = 1


class TestOrderingProperty:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []

        def proc(delay):
            yield Timeout(delay)
            fired.append(engine.now)

        for delay in delays:
            engine.spawn("p", proc(delay))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
