"""Discrete-event engine.

Two kinds of work share one clock:

* callbacks — zero-argument functions scheduled ``delay`` seconds ahead with
  :meth:`Engine.schedule`: the fleet simulator's steps, job completions,
  repairs and scale-ups;
* processes — Python generators that yield :class:`Timeout` events and are
  resumed after the simulated delay.  Only tests and the e2e benchmark's
  engine-dispatch probe run them.

The event queue is a heap ordered by (time, sequence) so simultaneous events
fire in FIFO order, which keeps runs fully deterministic.

Heap entries are plain ``(time, seq, process, callback)`` tuples: stepping a
process pushes the process handle itself (no closure allocated per event),
while a callback rides in the last slot.  The (time, seq) prefix is unique,
so tuple comparison never reaches the non-comparable payload.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError

ProcessGenerator = Generator[Any, Any, None]

#: one scheduled event: (time, seq, process, callback)
_Event = Tuple[float, int, Optional["Process"], Optional[Callable[[], None]]]


class Timeout:
    """Yieldable event: resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not 0.0 <= delay < inf:
            raise SimulationError(f"timeout {delay} must be non-negative and finite")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Process:
    """Handle for one running process; usable for completion queries."""

    __slots__ = ("name", "generator", "finished")

    def __init__(self, name: str, generator: ProcessGenerator) -> None:
        self.name = name
        self.generator = generator
        self.finished = False

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


class Engine:
    """The simulation kernel: clock, event heap, process scheduler."""

    __slots__ = ("now", "_heap", "_sequence")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[_Event] = []
        self._sequence = itertools.count()

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if not 0.0 <= delay < inf:
            raise SimulationError(f"delay {delay} must be non-negative and finite")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._sequence), None, callback)
        )

    def spawn(self, name: str, generator: ProcessGenerator) -> Process:
        """Register a process and schedule its first step at the current time."""
        process = Process(name, generator)
        heapq.heappush(self._heap, (self.now, next(self._sequence), process, None))
        return process

    def _step(self, process: Process) -> None:
        """Advance one process by one yield."""
        if process.finished:
            raise SimulationError(f"stepping finished process {process.name!r}")
        try:
            event = process.generator.send(None)
        except StopIteration:
            process.finished = True
            return
        if type(event) is Timeout or isinstance(event, Timeout):
            # exact-type check first: the common case skips isinstance, and
            # no closure is allocated per event either way
            heapq.heappush(
                self._heap,
                (self.now + event.delay, next(self._sequence), process, None),
            )
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unknown event {event!r}"
            )

    # -- running -------------------------------------------------------------

    def run(self, max_events: int = 50_000_000) -> float:
        """Execute events until the heap drains.

        Returns the final simulated time.  ``max_events`` guards against
        accidental infinite loops in model code.
        """
        events = 0
        # hoisted out of the hot loop: the heap list, heappop, and the
        # process-step bound method are all stable for the engine's lifetime
        heap = self._heap
        heappop = heapq.heappop
        step = self._step
        now = self.now
        while heap:
            time, _, process, callback = heappop(heap)
            if time < now - 1e-12:
                raise SimulationError("event heap went backwards in time")
            self.now = now = time
            if process is not None:
                step(process)
            else:
                callback()
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway model?")
        return now
