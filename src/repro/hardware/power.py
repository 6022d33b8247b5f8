"""Power-draw models for every preprocessing design point.

The paper measures system power with Intel PCM (CPU nodes), Vivado (FPGA),
and nvidia-smi (GPU).  This module plays those meters: each design point's
preprocessing-side power as a function of its provisioned resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.hardware.calibration import CALIBRATION, Calibration


@dataclass(frozen=True)
class DevicePower:
    """Nameplate and measured-active power of one device."""

    name: str
    tdp: float
    active: float


def _device_table(cal: Calibration) -> Dict[str, DevicePower]:
    return {
        "smartssd": DevicePower("SmartSSD", cal.smartssd_tdp, cal.smartssd_active_power),
        "a100": DevicePower("A100", cal.a100_tdp, cal.a100_preproc_active_power),
        "u280": DevicePower("U280", cal.u280_tdp, cal.u280_active_power),
        "cpu_core": DevicePower(
            "CPU core share", cal.cpu_core_power, cal.cpu_core_power
        ),
    }


#: Devices under the default calibration.
DEVICE_POWER: Dict[str, DevicePower] = _device_table(CALIBRATION)


class PowerModel:
    """Preprocessing-side power of each system design point (watts)."""

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration
        self.devices = _device_table(calibration)

    def disagg_cpu_power(self, num_cores: int) -> float:
        """Disaggregated CPU pool: per-core share of loaded node power."""
        if num_cores < 0:
            raise ConfigurationError("num_cores must be non-negative")
        return num_cores * self.cal.cpu_core_power

    def disagg_cpu_nodes(self, num_cores: int) -> int:
        """Whole server nodes needed to host ``num_cores`` (Fig. 14 text:
        367 cores = 12 nodes)."""
        return math.ceil(num_cores / self.cal.cpu_cores_per_node)

    def presto_power(self, num_units: int, worst_case: bool = False) -> float:
        """PreSto: ISP units plus the storage host's orchestration share.

        ``worst_case=True`` uses the 25 W NVMe TDP per card — the paper's
        "(9 x 25) = 225 W of worst-case power" bound — and omits the host
        share to mirror that quote.
        """
        if num_units < 0:
            raise ConfigurationError("num_units must be non-negative")
        if worst_case:
            return num_units * self.cal.smartssd_tdp
        return num_units * self.cal.smartssd_active_power + self.cal.presto_host_power

    def accelerator_pool_power(self, device: str, num_devices: int) -> float:
        """Disaggregated accelerator pool (Fig. 7(b)): active device power
        plus the same host orchestration share per pool."""
        if device not in self.devices:
            raise ConfigurationError(f"unknown device {device!r}")
        return (
            num_devices * self.devices[device].active + self.cal.presto_host_power
        )
