"""Cost-efficiency metric from Section V-C.

::

    Cost-efficiency = (Throughput x Duration) / (CapEx + OpEx)
    OpEx            = sum(Power x Duration x Electricity)

Throughput and Duration are identical for every design that sustains the
training job (both baseline and PreSto supply exactly the GPUs' demand), so
relative cost-efficiency reduces to the inverse of ``CapEx + OpEx`` — the
paper makes the same observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.units import HOUR


@dataclass(frozen=True)
class CostBreakdown:
    """CapEx/OpEx of one preprocessing deployment over the duration."""

    capex: float  # dollars
    opex: float  # dollars
    power: float  # watts
    duration_hours: float

    @property
    def total(self) -> float:
        """CapEx + OpEx (dollars)."""
        return self.capex + self.opex


def opex(
    power_watts: float,
    duration_hours: float = None,
    calibration: Calibration = CALIBRATION,
) -> float:
    """Electricity cost of running ``power_watts`` for the duration."""
    if power_watts < 0:
        raise ConfigurationError("power must be non-negative")
    hours = duration_hours if duration_hours is not None else calibration.amortization_hours
    if hours < 0:
        raise ConfigurationError("duration must be non-negative")
    kwh = power_watts * hours / 1000.0
    return kwh * calibration.electricity_per_kwh


def cost_breakdown(
    capex: float,
    power_watts: float,
    calibration: Calibration = CALIBRATION,
) -> CostBreakdown:
    """Assemble the CapEx/OpEx record for one deployment over the
    calibration's amortization window."""
    hours = calibration.amortization_hours
    return CostBreakdown(
        capex=capex,
        opex=opex(power_watts, hours, calibration),
        power=power_watts,
        duration_hours=hours,
    )


@dataclass(frozen=True)
class CapacityCost:
    """Cost of an *elastic* deployment: capex at peak, opex by the ledger.

    The static :class:`CostBreakdown` prices a fixed worker count over a
    fixed window.  A fleet pool instead grows and shrinks, so its opex
    follows the *measured* energy (the simulator integrates
    ``power(capacity) x dt`` step by step) while its capex is the peak
    capacity it ever had to own.  ``capacity_hours`` (worker-hours
    provisioned) is the denominator for per-capacity-hour rates.
    """

    capex: float  # dollars, priced at peak capacity
    opex: float  # dollars, electricity for the metered energy
    energy_kwh: float
    capacity_hours: float  # worker-hours provisioned over the run

    @property
    def total(self) -> float:
        """CapEx + OpEx (dollars)."""
        return self.capex + self.opex


def capacity_cost(
    peak_capex: float,
    energy_kwh: float,
    capacity_hours: float,
    calibration: Calibration = CALIBRATION,
) -> CapacityCost:
    """Price one pool's capacity ledger (fleet-simulation accounting)."""
    if peak_capex < 0:
        raise ConfigurationError("peak capex must be non-negative")
    if energy_kwh < 0:
        raise ConfigurationError("energy must be non-negative")
    if capacity_hours < 0:
        raise ConfigurationError("capacity hours must be non-negative")
    return CapacityCost(
        capex=peak_capex,
        opex=energy_kwh * calibration.electricity_per_kwh,
        energy_kwh=energy_kwh,
        capacity_hours=capacity_hours,
    )


def cost_efficiency(
    throughput: float,
    capex: float,
    power_watts: float,
    calibration: Calibration = CALIBRATION,
) -> float:
    """Section V-C metric: useful work per dollar.

    Units: samples processed over the amortization window per dollar of
    (CapEx + OpEx).  Only *ratios* of this metric are meaningful, matching
    the paper's normalized Figure 15(b).
    """
    if throughput < 0:
        raise ConfigurationError("throughput must be non-negative")
    breakdown = cost_breakdown(capex, power_watts, calibration)
    if breakdown.total <= 0:
        raise ConfigurationError("total cost must be positive")
    samples = throughput * breakdown.duration_hours * HOUR
    return samples / breakdown.total
