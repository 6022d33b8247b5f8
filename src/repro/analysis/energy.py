"""Energy-efficiency analysis (Figure 15(a), Figure 16 right axis).

Both compared systems sustain the same preprocessing throughput (the GPUs'
demand), so energy-efficiency — useful samples per joule — differs only
through preprocessing-side power.  performance/Watt for Figure 16 compares
single devices at their own throughputs.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def energy_efficiency(throughput: float, power_watts: float) -> float:
    """Samples per joule: throughput (samples/s) over power (W)."""
    if throughput < 0:
        raise ConfigurationError("throughput must be non-negative")
    if power_watts <= 0:
        raise ConfigurationError("power must be positive")
    return throughput / power_watts
