"""Datacenter NVMe SSD model.

Partitions (columnar files) are stored contiguously on one device (the
Tectonic behaviour Section IV-B relies on).  The model tracks stored objects
by key so the cluster can answer "which device holds partition i" and the
functional layer can actually read bytes back; read *timing* is the
calibrated ``ssd_read_*`` terms of :mod:`repro.hardware.cpu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import CapacityError, ConfigurationError
from repro.units import GIB


@dataclass
class SsdModel:
    """One NVMe SSD: capacity and a key -> bytes object store."""

    name: str
    capacity_bytes: float = 4 * 1024 * GIB  # 4 TB class, like the SmartSSD's
    _objects: Dict[str, bytes] = field(default_factory=dict, repr=False)
    bytes_stored: float = 0.0
    bytes_read: float = 0.0

    # -- object store -------------------------------------------------------

    def write_object(self, key: str, data: bytes) -> None:
        """Store one immutable object (a partition's columnar file)."""
        if key in self._objects:
            raise ConfigurationError(f"object {key!r} already on {self.name}")
        if self.bytes_stored + len(data) > self.capacity_bytes:
            raise CapacityError(f"{self.name} is full")
        self._objects[key] = data
        self.bytes_stored += len(data)

    def read_object(self, key: str) -> bytes:
        """Return one stored object's bytes (functional path)."""
        if key not in self._objects:
            raise ConfigurationError(f"no object {key!r} on {self.name}")
        data = self._objects[key]
        self.bytes_read += len(data)
        return data
