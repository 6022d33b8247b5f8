"""FPGA parts and resource accounting — reproduces Table II.

The SmartSSD's FPGA is a Kintex UltraScale+ (KU15P-class) device; the
discrete alternative of Section VI-C is an Alveo U280.  Each PreSto unit
(Decode, Bucketize, SigridHash, Log) is modeled as a fixed base block plus a
per-lane (processing element) cost.  With the default SmartSSD lane counts
from :mod:`repro.hardware.calibration`, the resulting utilization matches
Table II; scaling lanes (e.g. the U280's 2x configuration) re-derives
utilization on the larger part and raises :class:`~repro.errors.
CapacityError` if a configuration does not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import CapacityError
from repro.hardware.calibration import CALIBRATION

RESOURCE_KINDS = ("LUT", "REG", "BRAM", "URAM", "DSP")


@dataclass(frozen=True)
class FpgaPart:
    """Capacity of one FPGA device."""

    name: str
    lut: int
    reg: int
    bram: int
    uram: int
    dsp: int
    clock_hz: float

    def capacity(self) -> Dict[str, int]:
        """Resource kind -> available count."""
        return {
            "LUT": self.lut,
            "REG": self.reg,
            "BRAM": self.bram,
            "URAM": self.uram,
            "DSP": self.dsp,
        }


#: SmartSSD's FPGA (Kintex UltraScale+ KU15P).
SMARTSSD_FPGA = FpgaPart(
    name="SmartSSD (KU15P)",
    lut=522_720,
    reg=1_045_440,
    bram=984,
    uram=128,
    dsp=1_968,
    clock_hz=223e6,
)

#: Alveo U280 datacenter card.
U280_FPGA = FpgaPart(
    name="Alveo U280",
    lut=1_303_680,
    reg=2_607_360,
    bram=2_016,
    uram=960,
    dsp=9_024,
    clock_hz=300e6,
)


@dataclass(frozen=True)
class UnitResources:
    """Resource cost of one PreSto unit: base block + per-lane cost."""

    name: str
    base: Dict[str, int]
    per_lane: Dict[str, int]

    def usage(self, lanes: int) -> Dict[str, int]:
        """Absolute resource usage with ``lanes`` processing elements."""
        if lanes < 0:
            raise CapacityError(f"{self.name}: negative lane count")
        if lanes == 0:
            return {kind: 0 for kind in RESOURCE_KINDS}
        return {
            kind: self.base.get(kind, 0) + lanes * self.per_lane.get(kind, 0)
            for kind in RESOURCE_KINDS
        }


def _unit(name: str, totals: Dict[str, int], lanes: int) -> UnitResources:
    """Split a unit's Table II absolute usage into base + per-lane parts.

    The base block (control, buffering, AXI plumbing) takes ~30% of the
    total; the datapath lanes split the remainder evenly.  The base is
    derived as ``total - lanes * per_lane`` so the default configuration
    reconstructs Table II exactly.
    """
    per_lane = {
        kind: int(round(0.70 * count / max(lanes, 1))) for kind, count in totals.items()
    }
    base = {
        kind: count - max(lanes, 1) * per_lane[kind] for kind, count in totals.items()
    }
    return UnitResources(name=name, base=base, per_lane=per_lane)


def _from_percent(pct: Dict[str, float]) -> Dict[str, int]:
    cap = SMARTSSD_FPGA.capacity()
    return {kind: int(round(cap[kind] * pct.get(kind, 0.0) / 100.0)) for kind in RESOURCE_KINDS}


# Absolute resource budgets back-solved from Table II's utilization
# percentages on the SmartSSD part, at the default lane configuration.
_DEFAULT_LANES = {
    "Decode": 1,
    "Bucketize": CALIBRATION.accel_bucketize_lanes,
    "SigridHash": CALIBRATION.accel_hash_lanes,
    "Log": CALIBRATION.accel_log_lanes,
}

#: PreSto units with Table II resource budgets (SmartSSD configuration).
PRESTO_UNITS: Dict[str, UnitResources] = {
    "Decode": _unit(
        "Decode",
        _from_percent({"LUT": 18.84, "REG": 8.49, "BRAM": 25.08}),
        _DEFAULT_LANES["Decode"],
    ),
    "Bucketize": _unit(
        "Bucketize",
        _from_percent({"LUT": 7.88, "REG": 4.28, "BRAM": 6.19, "URAM": 27.59}),
        _DEFAULT_LANES["Bucketize"],
    ),
    "SigridHash": _unit(
        "SigridHash",
        _from_percent({"LUT": 23.11, "REG": 12.47, "BRAM": 11.89, "DSP": 19.19}),
        _DEFAULT_LANES["SigridHash"],
    ),
    "Log": _unit(
        "Log",
        _from_percent({"LUT": 4.18, "REG": 2.79, "BRAM": 4.89, "DSP": 10.62}),
        _DEFAULT_LANES["Log"],
    ),
}

#: unit name -> (Table II row, synthesized frequency) for reporting
UNIT_ORDER: List[str] = ["Decode", "Bucketize", "SigridHash", "Log"]


def resource_table(
    part: FpgaPart = SMARTSSD_FPGA,
    lane_scale: float = 1.0,
) -> Dict[str, Dict[str, float]]:
    """Utilization (%) of each unit and the total on ``part``.

    ``lane_scale`` multiplies every unit's lane count (the U280 design of
    Section VI-C uses ``lane_scale=2``).  Raises :class:`CapacityError` if
    the configuration exceeds the part.
    """
    if lane_scale <= 0:
        raise CapacityError("lane_scale must be positive")
    capacity = part.capacity()
    table: Dict[str, Dict[str, float]] = {}
    totals = {kind: 0 for kind in RESOURCE_KINDS}
    for name in UNIT_ORDER:
        lanes = max(int(round(_DEFAULT_LANES[name] * lane_scale)), 1)
        usage = PRESTO_UNITS[name].usage(lanes)
        table[name] = {
            kind: 100.0 * usage[kind] / capacity[kind] for kind in RESOURCE_KINDS
        }
        for kind in RESOURCE_KINDS:
            totals[kind] += usage[kind]
    overflow = [kind for kind in RESOURCE_KINDS if totals[kind] > capacity[kind]]
    if overflow:
        raise CapacityError(
            f"configuration exceeds {part.name} capacity for {overflow}"
        )
    table["Total"] = {
        kind: 100.0 * totals[kind] / capacity[kind] for kind in RESOURCE_KINDS
    }
    return table


def fits(part: FpgaPart, lane_scale: float = 1.0) -> bool:
    """Whether a lane-scaled PreSto design fits on ``part``."""
    try:
        resource_table(part, lane_scale)
    except CapacityError:
        return False
    return True
