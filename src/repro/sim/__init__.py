"""Minimal discrete-event simulation engine.

A generator-based DES in the style of SimPy, sized to what the fleet
simulator needs: a simulated clock, processes that ``yield`` timeouts, and
callbacks scheduled on the same (time, sequence)-ordered heap.
"""

from repro.sim.engine import Engine, Process, Timeout

__all__ = ["Engine", "Process", "Timeout"]
