"""PreSto ISP preprocessing worker — one SmartSSD device.

The paper's ISP unit (Section IV-B) is an SSD tightly coupled with an FPGA
in one U.2 device: the FPGA pulls raw feature data from the *local* SSD over
an internal PCIe switch (P2P, never touching the host or the network) and
runs the PreSto accelerator on it, inside the 25 W NVMe power envelope that
makes the device a drop-in SSD replacement.

The worker's timing comes from the accelerator pipeline model (P2P extract,
hardwired decode, parallel transform units, double buffering), so its
throughput is set by the slowest stage rather than the end-to-end latency.

The functional path runs the *same* kernels as the CPU worker (the FPGA
units implement identical algorithms — Algorithm 1 and 2), so a PreSto
mini-batch is bit-identical to a baseline mini-batch; tests assert this,
which is the reproduction's stand-in for the prototype's correctness
validation.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import CapacityError
from repro.features.specs import ModelSpec
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.core.worker import PreprocessingWorker

#: NVMe U.2 power envelope (watts); a SmartSSD must stay inside it.
NVME_POWER_ENVELOPE = 25.0


class IspPreprocessingWorker(PreprocessingWorker):
    """One PreSto worker bound to one SmartSSD; ``pipeline`` is built on first read."""

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec)
        self.cal = calibration
        self.model = AcceleratorModel(calibration)
        if calibration.smartssd_tdp > NVME_POWER_ENVELOPE:
            raise CapacityError(
                f"SmartSSD TDP {calibration.smartssd_tdp} W exceeds the "
                f"{NVME_POWER_ENVELOPE} W NVMe envelope"
            )

    # -- performance -----------------------------------------------------------

    def batch_breakdown(self) -> Dict[str, float]:
        """Figure 12 step breakdown for one mini-batch on one SmartSSD."""
        return self.model.batch_stages(self.spec).as_dict()

    def throughput(self) -> float:
        """Pipeline-bottleneck throughput (double-buffered stages)."""
        return self.model.device_throughput(self.spec)
