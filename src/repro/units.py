"""Unit constants and helpers shared across the performance models.

All simulation times are seconds (float), sizes are bytes (int or float),
bandwidths are bytes/second, and frequencies are Hz.  The constants below
exist so model code reads like the paper ("10 Gbps Ethernet", "223 MHz")
instead of raw exponents.
"""

from __future__ import annotations

# --- sizes -----------------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1_000
MB = 1_000 * KB
GB = 1_000 * MB
TB = 1_000 * GB

# --- time ------------------------------------------------------------------
NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
HOUR = 3600.0
DAY = 24 * HOUR
YEAR = 365 * DAY

# --- rates -----------------------------------------------------------------
MHZ = 1e6
GHZ = 1e9

GBPS = 1e9 / 8.0  # 1 gigabit/s expressed in bytes/s
GB_PER_S = 1e9

# --- power / cost ----------------------------------------------------------
WATT = 1.0
KILOWATT_HOUR = 1_000.0 * HOUR  # joules in one kWh


def gbps(value: float) -> float:
    """Convert a link speed in gigabits/second to bytes/second."""
    return value * GBPS


def pretty_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary suffix, for reports and repr()s."""
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0:
            return f"{value:.1f} {suffix}"
        value /= 1024.0
    return f"{value:.1f} TiB"


def pretty_time(seconds: float) -> str:
    """Render a duration with an appropriate sub-second suffix."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= MILLISECOND:
        return f"{seconds / MILLISECOND:.3f} ms"
    if seconds >= MICROSECOND:
        return f"{seconds / MICROSECOND:.3f} us"
    return f"{seconds / NANOSECOND:.1f} ns"
