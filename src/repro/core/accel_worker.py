"""Alternative accelerated preprocessing workers (Section VI-C, Figure 16).

Three design points compared against PreSto (SmartSSD):

* :class:`GpuPoolWorker` — an A100 in a disaggregated accelerator pool
  running NVTabular-style preprocessing (kernel-launch bound);
* :class:`U280Worker` — a discrete U280 FPGA with 2x the PreSto units.  In
  a disaggregated pool raw data and tensors cross the network; integrated
  *inside* the storage node ("PreSto (U280)") raw data arrives over PCIe,
  with no network hop, on a 225 W card instead of a 25 W device.  The two
  differ only in that ingress link.
"""

from __future__ import annotations

from typing import Dict

from repro.features.specs import ModelSpec
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.gpu_preproc import GpuPreprocModel
from repro.core.worker import PreprocessingWorker


class GpuPoolWorker(PreprocessingWorker):
    """One A100 GPU preprocessing in a disaggregated pool."""

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec)
        self.cal = calibration
        self.model = GpuPreprocModel(calibration)

    def batch_breakdown(self) -> Dict[str, float]:
        """Map GPU stages onto the canonical step names."""
        stages = self.model.batch_stages(self.spec)
        return {
            "extract_read": stages.network_in + stages.pcie_in,
            "extract_decode": 0.0,  # decoding fused into the kernel stage
            "bucketize": 0.0,
            "sigridhash": 0.0,
            "log": 0.0,
            "format_conversion": 0.0,
            "else_time": stages.kernels + stages.compute,
            "load": stages.pcie_out + stages.network_out,
        }

    def throughput(self) -> float:
        """Pipeline-bottleneck throughput of one GPU preprocessor."""
        return self.model.device_throughput(self.spec)


class U280Worker(PreprocessingWorker):
    """One U280 FPGA whose raw data arrives at ``ingress_bw`` bytes/s."""

    def __init__(
        self, spec: ModelSpec, calibration: Calibration, ingress_bw: float
    ) -> None:
        super().__init__(spec)
        self.cal = calibration
        # 2x units on the larger fabric
        self.model = AcceleratorModel(
            calibration, unit_scale=calibration.u280_unit_scale, ingress_bw=ingress_bw
        )

    def batch_breakdown(self) -> Dict[str, float]:
        return self.model.batch_stages(self.spec).as_dict()

    def throughput(self) -> float:
        return self.model.device_throughput(self.spec)

    def data_movement_share(self) -> float:
        """Fraction of end-to-end time in data movement (paper: ~47.6%)."""
        stages = self.model.batch_stages(self.spec)
        return (stages.ingress + stages.load) / stages.latency
