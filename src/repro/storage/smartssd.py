"""SmartSSD: an SSD tightly coupled with an FPGA in one U.2 device.

The paper's ISP unit (Section IV-B): the FPGA pulls raw feature data from
the *local* SSD over an internal PCIe switch (P2P, never touching the host
or the network) and runs the PreSto accelerator on it.  This class is the
accelerator timing model plus the 25 W NVMe power envelope that makes the
device a drop-in SSD replacement.
"""

from __future__ import annotations

from repro.errors import CapacityError
from repro.features.specs import ModelSpec
from repro.hardware.accelerator import AcceleratorModel, AcceleratorStages
from repro.hardware.calibration import CALIBRATION, Calibration

#: NVMe U.2 power envelope (watts); a SmartSSD must stay inside it.
NVME_POWER_ENVELOPE = 25.0


class SmartSsd:
    """One PreSto ISP unit: local SSD + on-device FPGA accelerator."""

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration
        self.accelerator = AcceleratorModel(calibration)
        if calibration.smartssd_tdp > NVME_POWER_ENVELOPE:
            raise CapacityError(
                f"SmartSSD TDP {calibration.smartssd_tdp} W exceeds the "
                f"{NVME_POWER_ENVELOPE} W NVMe envelope"
            )

    # -- timing ---------------------------------------------------------------

    def preprocess_stages(self, spec: ModelSpec) -> AcceleratorStages:
        """Stage times for one mini-batch preprocessed fully in-device."""
        return self.accelerator.batch_stages(spec)

    def throughput(self, spec: ModelSpec) -> float:
        """Steady-state samples/s of this device (double-buffered pipeline)."""
        return self.accelerator.device_throughput(spec)

    # -- power ----------------------------------------------------------------------

    @property
    def active_power(self) -> float:
        """Measured draw while preprocessing (watts)."""
        return self.cal.smartssd_active_power

    @property
    def tdp(self) -> float:
        """Worst-case card power (watts, within the NVMe envelope)."""
        return self.cal.smartssd_tdp
