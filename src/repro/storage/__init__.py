"""Storage substrate: the SmartSSD device model (Section IV-B's ISP unit,
Figure 8's PreSto-augmented storage node)."""

from repro.storage.smartssd import SmartSsd

__all__ = ["SmartSsd"]
