"""PreSto ISP preprocessing worker — one SmartSSD device.

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

from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.storage.smartssd import SmartSsd
from repro.core.worker import PreprocessingWorker


class IspPreprocessingWorker(PreprocessingWorker):
    """One PreSto worker bound to one SmartSSD; ``pipeline`` is built on first read."""

    kind = "PreSto"

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec)
        self.cal = calibration
        self.device = SmartSsd(calibration)

    # -- performance -----------------------------------------------------------

    def batch_breakdown(self) -> Dict[str, float]:
        """Figure 12 step breakdown for one mini-batch on one SmartSSD."""
        return self.device.preprocess_stages(self.spec).as_dict()

    def throughput(self) -> float:
        """Pipeline-bottleneck throughput (double-buffered stages)."""
        return self.device.throughput(self.spec)
