"""Cost/energy analysis: the Section V-C cost-efficiency metric (CapEx +
OpEx over a 3-year duration) and energy-efficiency (performance/Watt)."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.cost": ("CostBreakdown", "cost_efficiency", "opex"),
    "repro.analysis.energy": ("energy_efficiency",),
})

__all__ = [
    "CostBreakdown",
    "cost_efficiency",
    "opex",
    "energy_efficiency",
]
