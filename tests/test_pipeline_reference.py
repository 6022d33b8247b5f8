"""The Figure 9 pipeline loop, checked against the two models it replaced.

``EndToEndSimulation.run`` simulates producer -> bounded input queue ->
trainer as one loop over one producer timing: every launched slot is the
system's one worker, so each producer's first batch is ``READY`` after the
same latency and the rest one interval apart.  The ``READY`` events wait
in a FIFO of ``(time, producer)``; the trainer is one scalar, the time its
batch finishes.  Two references are kept here unchanged:

* the process graph: one generator per worker putting batch tokens into a
  blocking :class:`Store`, one trainer generator taking them, on an engine
  that still speaks the ``resume`` / ``_subscribe`` protocol;
* :func:`heap_loop`, the loop that put every ``READY`` / ``PUT`` / ``GOT``
  / ``TRAINED`` event on a ``(time, seq, kind, producer)`` heap.

All three must give ``==`` equal :class:`PipelineStats` over every
registered system, RM1-RM5, 1 and 8 GPUs, queue capacities 1-32, fewer
batches than workers, and starved, balanced and over-fed worker counts.
``_simulate`` and the process graph must also agree on dyadic timings that
make simultaneous events the rule, and ``_simulate`` must always return
exactly what :func:`heap_loop` returns.  Producers that differ from one
another are outside ``_simulate``'s domain: nothing builds them.

With one trainer, the order of a trainer event and a producer event at the
same instant never moves a statistic, so the stats alone cannot see every
ordering draw.  The loop's only draws are its ``READY`` appends, so it
records each ``(time, producer)`` it schedules, in order, and that trace
must equal the process graph's producer timeouts in the order the engine
scheduled them.  The appended times must never decrease: that is why a
FIFO can stand in for the heap.
"""

import collections
import heapq
import itertools
import re
from types import SimpleNamespace
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import REGISTRY
from repro.core import endtoend
from repro.core.endtoend import EndToEndSimulation, PipelineStats, _simulate
from repro.core.manager import PreprocessManager
from repro.core.provision import workers_for
from repro.core.systems import PreStoSystem
from repro.core.worker import PreprocessingWorker
from repro.errors import ConfigurationError, SimulationError
from repro.features.specs import get_model
from repro.sim.engine import Engine, Timeout

MODELS = ("RM1", "RM2", "RM3", "RM4", "RM5")


# -- the reference: the process graph as it ran on the engine ----------------


class ReferenceEngine(Engine):
    """The engine plus ``resume`` and the ``_subscribe`` protocol: a process
    may yield any object with ``_subscribe(engine, process)``, which resumes
    it later, sending a value back into the generator.  ``trace`` lists
    every timeout and resume scheduled, as ``(time, how, process)``;
    ``finish_times`` maps each finished process to when it finished."""

    __slots__ = ("trace", "finish_times")

    def __init__(self):
        super().__init__()
        self.trace = []
        self.finish_times = {}

    def _step(self, process, send_value=None):
        if process.finished:
            raise SimulationError(f"stepping finished process {process.name!r}")
        try:
            event = process.generator.send(send_value)
        except StopIteration:
            process.finished = True
            self.finish_times[process] = self.now
            return
        if isinstance(event, Timeout):
            self.trace.append((self.now + event.delay, "timeout", process))
            self.schedule(event.delay, lambda: self._step(process))
        elif hasattr(event, "_subscribe"):
            event._subscribe(self, process)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unknown event {event!r}"
            )

    def resume(self, process, value=None):
        """Resume a process blocked on a store, now, sending ``value``."""
        self.trace.append((self.now, "resume", process))
        self.schedule(0.0, lambda: self._step(process, value))


class _StorePut:
    __slots__ = ("store", "item")

    def __init__(self, store, item):
        self.store = store
        self.item = item

    def _subscribe(self, engine, process):
        self.store._put(engine, process, self.item)


class _StoreGet:
    __slots__ = ("store",)

    def __init__(self, store):
        self.store = store

    def _subscribe(self, engine, process):
        self.store._get(engine, process)


class Store:
    """Bounded FIFO queue with blocking put/get; ``capacity=None`` is
    unbounded.  Tracks put/get totals."""

    def __init__(self, name, capacity=None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive or None")
        self.name = name
        self.capacity = capacity
        self.items = collections.deque()
        self.total_put = 0
        self.total_got = 0
        self._blocked_puts = collections.deque()
        self._blocked_gets = collections.deque()

    def put(self, item):
        """Yieldable: enqueue ``item``, blocking while the store is full."""
        return _StorePut(self, item)

    def get(self):
        """Yieldable: dequeue the oldest item, blocking while empty."""
        return _StoreGet(self)

    def _put(self, engine, process, item):
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._blocked_puts.append((process, item))
            return
        self.items.append(item)
        self.total_put += 1
        engine.resume(process, None)
        self._drain_gets(engine)

    def _get(self, engine, process):
        if not self.items:
            self._blocked_gets.append(process)
            return
        item = self.items.popleft()
        self.total_got += 1
        engine.resume(process, item)
        self._drain_puts(engine)

    def _drain_gets(self, engine):
        while self._blocked_gets and self.items:
            waiter = self._blocked_gets.popleft()
            item = self.items.popleft()
            self.total_got += 1
            engine.resume(waiter, item)
            self._drain_puts(engine)

    def _drain_puts(self, engine):
        while self._blocked_puts and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            producer, item = self._blocked_puts.popleft()
            self.items.append(item)
            self.total_put += 1
            engine.resume(producer, None)
            self._drain_gets(engine)

    def __len__(self):
        return len(self.items)


def produce(latency, interval, queue, num_batches):
    """Process: emit ``num_batches`` batch tokens into ``queue``, the first
    after ``latency``, the rest ``interval`` apart."""
    for index in range(num_batches):
        yield Timeout(latency if index == 0 else interval)
        yield queue.put(index)


def train(engine, queue, iteration, step, num_batches, stats):
    """Process: train ``num_batches`` mini-batches taken from ``queue``."""
    for index in range(num_batches):
        wait_start = engine.now
        yield queue.get()
        if index == 0:
            stats["first_batch_time"] = engine.now
        stats["wait_time"] += engine.now - wait_start
        yield Timeout(step)
        stats["training_time"] += iteration
    stats["finish_time"] = engine.now


def reference_pipeline(producers, capacity, iteration, step, num_batches):
    """``_simulate`` as the process graph computed it, and the ``(time,
    producer)`` of each producer timeout it scheduled."""
    engine = ReferenceEngine()
    queue = Store("input-queue", capacity=capacity)
    processes = [
        engine.spawn(f"worker-{k}", produce(latency, interval, queue, share))
        for k, (latency, interval, share) in enumerate(producers)
    ]
    stats = {"training_time": 0.0, "wait_time": 0.0, "first_batch_time": 0.0}
    trainer = engine.spawn(
        "train-manager",
        train(engine, queue, iteration, step, num_batches, stats),
    )
    engine.run()
    assert trainer.finished and queue.total_put == queue.total_got == num_batches
    position = {process: k for k, process in enumerate(processes)}
    trace = [
        (time, position[process])
        for time, how, process in engine.trace
        if how == "timeout" and process is not trainer
    ]
    return trace, (
        stats["finish_time"],
        stats["training_time"],
        stats["wait_time"],
        stats["first_batch_time"],
        max(engine.finish_times[process] for process in processes),
    )


def reference_run(sim, num_batches, num_workers=None):
    """``EndToEndSimulation.run`` as the process graph computed it, and the
    ``(time, producer)`` of each producer timeout it scheduled."""
    if num_batches <= 0:
        raise ConfigurationError("num_batches must be positive")
    manager = sim.train_manager
    if num_workers is None:
        num_workers = sim.system.provision_for(manager.num_gpus).num_workers
    shares = sim.preprocess_manager.launch(num_batches, num_workers)
    worker = sim.preprocess_manager.worker
    interval = worker.spec.batch_size / worker.throughput()
    producers = [
        (worker.batch_latency(), interval, share) for share in shares if share
    ]
    iteration = manager.iteration_time()
    cal = manager.cal
    h2d = cal.train_ready_batch_bytes(manager.spec) / (
        manager.num_gpus * cal.gpu_preproc_pcie_bw
    )
    trace, (wall, training, wait, first, production_span) = reference_pipeline(
        producers,
        manager.input_queue_capacity,
        iteration,
        max(h2d, iteration),
        num_batches,
    )
    samples = num_batches * sim.spec.batch_size
    consumed_time = wall if wall > 0 else 1.0
    if production_span <= 0:
        production_span = consumed_time
    return trace, PipelineStats(
        spec_name=sim.spec.name,
        num_workers=num_workers,
        num_batches=num_batches,
        wall_time=wall,
        training_time=training,
        wait_time=wait,
        preprocessing_throughput=samples / production_span,
        training_throughput=samples / consumed_time,
        first_batch_time=first,
    )


# -- the reference's own semantics -------------------------------------------


class TestReferenceStore:
    def test_fifo_order(self):
        engine = ReferenceEngine()
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
        engine = ReferenceEngine()
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
        engine = ReferenceEngine()
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
        assert events == [("put1", 0.0), ("put2", 3.0)]
        assert store.total_put == 2 and store.total_got == 1 and len(store) == 1

    def test_resume_value_delivered(self):
        engine = ReferenceEngine()
        seen = []

        class Token:
            def _subscribe(self, eng, process):
                eng.resume(process, "payload")

        def proc():
            value = yield Token()
            seen.append(value)

        engine.spawn("p", proc())
        engine.run()
        assert seen == ["payload"]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store("q", capacity=0)

    @given(
        num_items=st.integers(min_value=1, max_value=50),
        capacity=st.integers(min_value=1, max_value=8),
        produce_gap=st.floats(min_value=0.0, max_value=2.0),
        consume_gap=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_items_conserved(self, num_items, capacity, produce_gap, consume_gap):
        """Everything produced is consumed exactly once, in order."""
        engine = ReferenceEngine()
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


# -- the second reference: the loop with every event on its heap -------------


# ``_simulate`` as it was while the trainer's events shared the heap with
# the producers', kept verbatim

#: event kinds of :func:`heap_loop`
READY, PUT, GOT, TRAINED = range(4)


def heap_loop(
    producers: List[Tuple[float, float, int]],
    capacity: int,
    iteration: float,
    step: float,
    num_batches: int,
) -> Tuple[float, float, float, float, float]:
    """Run the Figure 9 pipeline to the last trained batch.

    ``producers`` holds one ``(latency, interval, share)`` per worker with a
    non-zero share.  Returns ``(wall, training, wait, first_batch,
    production_end)`` in simulated seconds.
    """
    latencies, intervals, shares = zip(*producers)
    if min(latencies + intervals + (iteration, step)) < 0:
        raise SimulationError("negative delay in the pipeline model")
    seq = itertools.count()
    # every time is ``now + delay``, this one included (``now`` is 0.0)
    heap = [(0.0 + delay, next(seq), READY, k) for k, delay in enumerate(latencies)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    left = list(shares)
    blocked: collections.deque = collections.deque()
    queued = trained = 0
    trainer_waiting = True  # its first take, at time 0, finds the queue empty
    training = wait = first = wait_start = production_end = 0.0
    while True:
        now, _, kind, k = pop(heap)
        if kind == READY:
            if queued == capacity:
                blocked.append(k)
                continue
            queued += 1
            push(heap, (now, next(seq), PUT, k))
            # the trainer waits only on an empty queue, so nobody is blocked
            if trainer_waiting:
                trainer_waiting = False
                queued -= 1
                push(heap, (now, next(seq), GOT, -1))
        elif kind == PUT:
            left[k] -= 1
            if left[k]:
                push(heap, (now + intervals[k], next(seq), READY, k))
            else:
                production_end = now
        elif kind == GOT:
            if trained == 0:
                first = now
            wait += now - wait_start
            push(heap, (now + step, next(seq), TRAINED, -1))
        else:
            training += iteration
            trained += 1
            if trained == num_batches:
                return now, training, wait, first, production_end
            wait_start = now
            if not queued:
                trainer_waiting = True
                continue
            queued -= 1
            push(heap, (now, next(seq), GOT, -1))
            # producers block only on a full queue: the one freed slot
            # admits at most one of them
            if blocked:
                queued += 1
                push(heap, (now, next(seq), PUT, blocked.popleft()))


# -- the loop against the reference ------------------------------------------


#: worker count as a multiple of the T/P plan; None provisions to demand
REGIMES = {"starved": 0.25, "balanced": 1.0, "over-fed": 3.0, "provisioned": None}

#: dyadic seconds: sums of them are exact, so events coincide
LATENCIES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
INTERVALS = (0.0, 0.25, 0.5, 1.0, 1.5, 3.0)
ITERATIONS = (0.0, 0.25, 0.5, 1.0, 2.0)
COPIES = (0.0, 0.5, 1.0, 3.0)


def loop_simulate(latency, interval, shares, *rest):
    """``_simulate`` and the ``(time, producer)`` of each ``READY`` event it
    scheduled, in order.  It must return exactly what :func:`heap_loop`
    returns on the same producers, and schedule in time order."""
    scheduled = []

    class RecordingDeque(collections.deque):
        """``collections.deque`` for the loop, noting each ``(time,
        producer)`` entry; the blocked FIFO's producer indices are not
        events."""

        def __init__(self, entries=()):
            super().__init__(entries)
            scheduled.extend(entry for entry in self if isinstance(entry, tuple))

        def append(self, entry):
            if isinstance(entry, tuple):
                scheduled.append(entry)
            super().append(entry)

    recording = SimpleNamespace(deque=RecordingDeque)
    with mock.patch.object(endtoend, "collections", recording):
        result = _simulate(latency, interval, shares, *rest)
    producers = [(latency, interval, share) for share in shares]
    assert result == heap_loop(producers, *rest)
    times = [time for time, _ in scheduled]
    assert times == sorted(times)
    return scheduled, result


def loop_run(sim, num_batches, num_workers=None):
    """``sim.run`` and the trace of the loop behind it."""
    traces = []

    def traced(*args):
        trace, result = loop_simulate(*args)
        traces.append(trace)
        return result

    with mock.patch.object(endtoend, "_simulate", traced):
        stats = sim.run(num_batches, num_workers)
    [trace] = traces
    return trace, stats


def assert_loop_is_reference(make_sim, num_batches, num_workers=None):
    """Same stats and the same trace on two fresh simulations."""
    new = loop_run(make_sim(), num_batches, num_workers)
    ref = reference_run(make_sim(), num_batches, num_workers)
    assert new[1] == ref[1]
    assert new[0] == ref[0]


class FixedWorker(PreprocessingWorker):
    """A producer with the given first-batch latency and interval."""

    kind = "fixed"

    def __init__(self, spec, latency, interval):
        super().__init__(spec)
        self.latency = latency
        self.interval = interval

    def batch_breakdown(self):
        return {"else_time": self.latency}

    def batch_latency(self):
        return self.latency

    def throughput(self):
        return self.spec.batch_size / self.interval if self.interval else float("inf")


def launch(num_batches, num_workers):
    """The non-zero shares a launch of ``num_workers`` gives its producers."""
    worker = FixedWorker(get_model("RM1"), 0.0, 0.0)
    shares = PreprocessManager(worker).launch(num_batches, num_workers)
    return [share for share in shares if share]


class FixedSystem(PreStoSystem):
    """A design point whose one worker is a :class:`FixedWorker`."""

    def __init__(self, spec, latency, interval):
        super().__init__(spec)
        self.latency = latency
        self.interval = interval

    def make_worker(self):
        return FixedWorker(self.spec, self.latency, self.interval)


class TestLoopEqualsTheProcessGraph:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        system=st.sampled_from(REGISTRY.names()),
        model=st.sampled_from(MODELS),
        num_gpus=st.sampled_from([1, 8]),
        capacity=st.integers(min_value=1, max_value=32),
        num_batches=st.integers(min_value=1, max_value=400),
        regime=st.sampled_from(sorted(REGIMES)),
    )
    def test_registered_systems(
        self, system, model, num_gpus, capacity, num_batches, regime
    ):
        spec = get_model(model)

        def make_sim():
            return EndToEndSimulation(
                spec, system, num_gpus=num_gpus, queue_capacity=capacity
            )

        factor = REGIMES[regime]
        num_workers = None
        if factor is not None:
            sim = make_sim()
            # T/P without co-location's core budget: a scale, not a plan
            planned = workers_for(
                sim.train_manager.measure_max_throughput(),
                sim.system.worker_throughput(),
            )
            num_workers = max(1, round(planned * factor))
        try:
            make_sim().run(1, num_workers)
        except ConfigurationError as exc:  # a co-located plan that cannot keep up
            with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                reference_run(make_sim(), 1, num_workers)
            return
        assert_loop_is_reference(make_sim, num_batches, num_workers)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        latency=st.sampled_from(LATENCIES),
        interval=st.sampled_from(INTERVALS),
        iteration=st.sampled_from(ITERATIONS),
        h2d=st.sampled_from(COPIES),
        num_workers=st.integers(min_value=1, max_value=12),
        capacity=st.integers(min_value=1, max_value=6),
        num_batches=st.integers(min_value=1, max_value=60),
    )
    def test_simultaneous_events(
        self, latency, interval, iteration, h2d, num_workers, capacity, num_batches
    ):
        """Dyadic timings put producers and the trainer on the same instants,
        so a reordered draw changes who waits for whom."""
        shares = launch(num_batches, num_workers)
        producers = [(latency, interval, share) for share in shares]
        rest = (capacity, iteration, max(h2d, iteration), num_batches)
        new = loop_simulate(latency, interval, shares, *rest)
        ref = reference_pipeline(producers, *rest)
        assert new[1] == ref[1]
        assert new[0] == ref[0]

    @pytest.mark.parametrize("latency, interval", [(-1.0, 1.0), (1.0, -0.5)])
    def test_negative_delay_is_a_typed_error(self, latency, interval):
        spec = get_model("RM1")
        sim = EndToEndSimulation(spec, FixedSystem(spec, latency, interval))
        with pytest.raises(SimulationError, match="negative delay"):
            sim.run(num_batches=3, num_workers=1)


class TestTheFifoIsTheHeap:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        latency=st.sampled_from(LATENCIES),
        interval=st.sampled_from(INTERVALS),
        iteration=st.sampled_from(ITERATIONS),
        h2d=st.sampled_from(COPIES),
        num_workers=st.integers(min_value=1, max_value=48),
        capacity=st.integers(min_value=1, max_value=32),
        num_batches=st.integers(min_value=1, max_value=400),
    )
    def test_one_timing_loop_equals_the_heap_loop(
        self, latency, interval, iteration, h2d, num_workers, capacity, num_batches
    ):
        """``_simulate`` returns ``==`` what the all-events heap loop returns
        on one timing, ties included: zero latencies and intervals put every
        event of a launch on one instant."""
        shares = launch(num_batches, num_workers)
        producers = [(latency, interval, share) for share in shares]
        rest = (capacity, iteration, max(h2d, iteration), num_batches)
        assert _simulate(latency, interval, shares, *rest) == heap_loop(
            producers, *rest
        )
