"""Cost/energy analysis: the Section V-C cost-efficiency metric (CapEx +
OpEx over a 3-year duration) and energy-efficiency (performance/Watt)."""

from repro.analysis.cost import CostBreakdown, cost_efficiency, opex
from repro.analysis.energy import energy_efficiency

__all__ = [
    "CostBreakdown",
    "cost_efficiency",
    "opex",
    "energy_efficiency",
]
