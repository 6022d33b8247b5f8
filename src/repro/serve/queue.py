"""Bounded FIFO work queue with explicit backpressure.

The streaming service never buffers unboundedly: the queue holds at most
``capacity`` jobs, and a submission against a full queue either *blocks*
until a worker frees a slot (``policy="block"``, the default — optionally
bounded by a timeout) or is *rejected* immediately (``policy="reject"``).
Both outcomes surface as a typed :class:`~repro.errors.QueueFullError`, so
producers always learn about backpressure explicitly instead of stalling
silently or dropping work.

``close()`` starts the drain: no further puts are accepted, getters consume
whatever is queued, and once empty every waiter is released with
:class:`~repro.errors.QueueClosedError` — the worker pool's shutdown signal.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, List, Optional, TypeVar

from repro.errors import QueueClosedError, QueueFullError, ServeError, is_int
from repro.faults.injector import fault_point

T = TypeVar("T")

#: how a full queue treats a new submission
QUEUE_POLICIES = ("block", "reject")


class BoundedJobQueue:
    """Thread-safe bounded FIFO with block-or-reject backpressure."""

    def __init__(self, capacity: int = 16, policy: str = "block") -> None:
        if not is_int(capacity) or capacity <= 0:
            raise ServeError(
                f"queue capacity must be a positive int, got {capacity!r}"
            )
        if policy not in QUEUE_POLICIES:
            raise ServeError(
                f"queue policy must be one of {QUEUE_POLICIES}, got {policy!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._closed = False
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def free(self) -> int:
        """Open slots right now (0 once closed — nothing may enter)."""
        with self._lock:
            if self._closed:
                return 0
            return self.capacity - len(self._items)

    # -- producer side -------------------------------------------------------

    def put(self, item: T, timeout: Optional[float] = None) -> None:
        """Enqueue ``item``, honoring the backpressure policy.

        Raises :class:`QueueFullError` when the queue stays full (instantly
        under ``reject``; after ``timeout`` seconds under ``block`` — no
        timeout means wait indefinitely) and :class:`QueueClosedError` once
        the queue has been closed.
        """
        # fault point: producer-side turbulence — a delayed put, outside
        # the lock so injected stalls never block consumers
        fault_point("queue-stall", item=item)
        with self._not_full:
            if self._closed:
                raise QueueClosedError("queue is closed to new work")
            if len(self._items) >= self.capacity:
                if self.policy == "reject":
                    raise QueueFullError(
                        f"queue is full ({self.capacity} jobs) and policy "
                        "is 'reject'"
                    )
                if not self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self.capacity,
                    timeout=timeout,
                ):
                    raise QueueFullError(
                        f"queue stayed full ({self.capacity} jobs) for "
                        f"{timeout}s"
                    )
                if self._closed:
                    raise QueueClosedError("queue closed while waiting")
            self._items.append(item)
            self._not_empty.notify()

    def restore(self, items: List[T]) -> int:
        """Re-enqueue recovered jobs, bypassing the capacity bound.

        The crash-recovery path: a restarted service may find more
        interrupted jobs in its index than the queue's capacity, and
        blocking here before the pool starts would deadlock the daemon.
        Capacity bounds *new* submissions; recovered work is owed.  Items
        land ahead of nothing (the queue is empty at recovery time) in the
        given order.  Returns how many were enqueued.
        """
        with self._lock:
            if self._closed:
                raise QueueClosedError("queue is closed to new work")
            for item in items:
                self._items.append(item)
            if items:
                self._not_empty.notify_all()
            return len(items)

    # -- consumer side -------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> T:
        """Dequeue the oldest item; block until one arrives.

        Raises :class:`QueueClosedError` once the queue is closed *and*
        drained (the consumer's signal to exit), and :class:`QueueFullError`
        never — only :class:`QueueClosedError` or a ``TimeoutError`` when a
        ``timeout`` is given and nothing arrives.
        """
        with self._not_empty:
            if not self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout=timeout
            ):
                raise TimeoutError(f"no work arrived within {timeout}s")
            if not self._items:
                raise QueueClosedError("queue is closed and drained")
            item = self._items.popleft()
            self._not_full.notify()
            return item

    # -- lifecycle -----------------------------------------------------------

    def cancel(self, predicate: Callable[[T], bool]) -> List[T]:
        """Remove and return every queued item matching ``predicate``."""
        with self._lock:
            kept, removed = deque(), []
            for item in self._items:
                if predicate(item):
                    removed.append(item)
                else:
                    kept.append(item)
            self._items = kept
            if removed:
                self._not_full.notify_all()
            return removed

    def snapshot(self) -> List[T]:
        """The queued items, oldest first (for status displays)."""
        with self._lock:
            return list(self._items)

    def close(self) -> None:
        """Refuse new work; release all waiters once drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
