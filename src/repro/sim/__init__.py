"""Minimal discrete-event simulation engine.

Sized to what the fleet simulator needs: a simulated clock and callbacks
on one (time, sequence)-ordered heap.  Generator processes that ``yield``
timeouts share that heap; only tests and the benchmark probe use them.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Engine", "Process", "Timeout"),
})

__all__ = ["Engine", "Process", "Timeout"]
