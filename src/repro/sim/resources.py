"""Resource primitives for the discrete-event engine.

* :class:`Server` — an FCFS resource with ``capacity`` parallel slots and a
  per-request service time; models CPU cores, accelerator engines, NICs.
* :class:`Store`  — a bounded producer/consumer queue; models the train
  manager's mini-batch input queue (Figure 9) and any staging buffer.

Both expose *yieldable request objects* implementing the engine's
``_subscribe`` protocol.
"""

from __future__ import annotations

import collections
from typing import Any, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Engine, Process


class _ServerRequest:
    """Yieldable: occupy one slot of a Server for ``service_time`` seconds."""

    __slots__ = ("server", "service_time")

    def __init__(self, server: "Server", service_time: float) -> None:
        if service_time < 0:
            raise SimulationError("service_time must be non-negative")
        self.server = server
        self.service_time = service_time

    def _subscribe(self, engine: Engine, process: Process) -> None:
        self.server._enqueue(engine, process, self.service_time)


class Server:
    """FCFS multi-slot resource.

    Statistics: ``busy_time`` integrates slot-seconds of service, so
    utilization over a run of length T is ``busy_time / (capacity * T)``.
    """

    def __init__(self, name: str, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError("server capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.in_service = 0
        self.busy_time = 0.0
        self.completed = 0
        self._waiting: Deque[Tuple[Process, float]] = collections.deque()

    def request(self, service_time: float) -> _ServerRequest:
        """Build a yieldable request for ``service_time`` seconds of service."""
        return _ServerRequest(self, service_time)

    def _enqueue(self, engine: Engine, process: Process, service_time: float) -> None:
        self._waiting.append((process, service_time))
        self._dispatch(engine)

    def _dispatch(self, engine: Engine) -> None:
        while self._waiting and self.in_service < self.capacity:
            process, service_time = self._waiting.popleft()
            self.in_service += 1
            self.busy_time += service_time

            def _finish(p: Process = process, st: float = service_time) -> None:
                self.in_service -= 1
                self.completed += 1
                engine.resume(p, st)
                self._dispatch(engine)

            engine.schedule(service_time, _finish)

    def utilization(self, elapsed: float) -> float:
        """Mean slot utilization over ``elapsed`` simulated seconds."""
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time / (self.capacity * elapsed), 1.0)


class _StorePut:
    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        self.store = store
        self.item = item

    def _subscribe(self, engine: Engine, process: Process) -> None:
        self.store._put(engine, process, self.item)


class _StoreGet:
    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        self.store = store

    def _subscribe(self, engine: Engine, process: Process) -> None:
        self.store._get(engine, process)


class Store:
    """Bounded FIFO queue with blocking put/get.

    ``capacity=None`` means unbounded.  Tracks put/get totals.
    """

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive or None")
        self.name = name
        self.capacity = capacity
        self.items: Deque[Any] = collections.deque()
        self.total_put = 0
        self.total_got = 0
        self._blocked_puts: Deque[Tuple[Process, Any]] = collections.deque()
        self._blocked_gets: Deque[Process] = collections.deque()

    # -- yieldable API -----------------------------------------------------

    def put(self, item: Any) -> _StorePut:
        """Yieldable: enqueue ``item``, blocking while the store is full."""
        return _StorePut(self, item)

    def get(self) -> _StoreGet:
        """Yieldable: dequeue the oldest item, blocking while empty."""
        return _StoreGet(self)

    # -- internals -----------------------------------------------------------

    def _put(self, engine: Engine, process: Process, item: Any) -> None:
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._blocked_puts.append((process, item))
            return
        self.items.append(item)
        self.total_put += 1
        engine.resume(process, None)
        self._drain_gets(engine)

    def _get(self, engine: Engine, process: Process) -> None:
        if not self.items:
            self._blocked_gets.append(process)
            return
        item = self.items.popleft()
        self.total_got += 1
        engine.resume(process, item)
        self._drain_puts(engine)

    def _drain_gets(self, engine: Engine) -> None:
        while self._blocked_gets and self.items:
            waiter = self._blocked_gets.popleft()
            item = self.items.popleft()
            self.total_got += 1
            engine.resume(waiter, item)
            self._drain_puts(engine)

    def _drain_puts(self, engine: Engine) -> None:
        while self._blocked_puts and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            producer, item = self._blocked_puts.popleft()
            self.items.append(item)
            self.total_put += 1
            engine.resume(producer, None)
            self._drain_gets(engine)

    def __len__(self) -> int:
        return len(self.items)
