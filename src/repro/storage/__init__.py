"""Storage substrate: SSD and SmartSSD device models and the distributed
storage cluster with partition placement (Figure 1's data-storage stage and
Figure 8's PreSto-augmented storage system)."""

from repro.storage.ssd import SsdModel
from repro.storage.smartssd import SmartSsd
from repro.storage.cluster import DistributedStorage, PlacementPolicy

__all__ = [
    "SsdModel",
    "SmartSsd",
    "DistributedStorage",
    "PlacementPolicy",
]
