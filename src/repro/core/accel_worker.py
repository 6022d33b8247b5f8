"""Alternative accelerated preprocessing workers (Section VI-C, Figure 16).

Three design points compared against PreSto (SmartSSD):

* :class:`GpuPoolWorker` — an A100 in a disaggregated accelerator pool
  running NVTabular-style preprocessing (kernel-launch bound);
* :class:`U280PoolWorker` — a discrete U280 FPGA in a disaggregated pool:
  2x the PreSto units, but raw data and tensors cross the network;
* :class:`PreStoU280Worker` — the same U280 integrated *inside* the storage
  node over PCIe ("PreSto (U280)"): no raw-data network hop, larger fabric,
  but a 225 W card instead of a 25 W device.
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

    kind = "A100"

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec)
        self.cal = calibration
        self.model = GpuPreprocModel(calibration, disaggregated=True)

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

    @property
    def active_power(self) -> float:
        """Measured draw during (underutilized) preprocessing."""
        return self.cal.a100_preproc_active_power


class U280PoolWorker(PreprocessingWorker):
    """One discrete U280 FPGA in a disaggregated preprocessing pool."""

    kind = "U280"

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec)
        self.cal = calibration
        # 2x units on the larger fabric; raw data arrives over the network,
        # then crosses PCIe into the card
        self.model = AcceleratorModel(
            calibration,
            unit_scale=calibration.u280_unit_scale,
            ingress_bw=calibration.network_bandwidth * calibration.network_read_efficiency,
        )

    def batch_breakdown(self) -> Dict[str, float]:
        return self.model.batch_stages(self.spec).as_dict()

    def throughput(self) -> float:
        return self.model.device_throughput(self.spec)

    def data_movement_share(self) -> float:
        """Fraction of end-to-end time in data movement (paper: ~47.6%)."""
        stages = self.model.batch_stages(self.spec)
        return (stages.ingress + stages.load) / stages.latency

    @property
    def active_power(self) -> float:
        return self.cal.u280_active_power


class PreStoU280Worker(PreprocessingWorker):
    """A U280 integrated in the storage node over PCIe ("PreSto (U280)")."""

    kind = "PreSto (U280)"

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec)
        self.cal = calibration
        self.model = AcceleratorModel(
            calibration,
            unit_scale=calibration.u280_unit_scale,
            ingress_bw=calibration.u280_pcie_bw,
        )

    def batch_breakdown(self) -> Dict[str, float]:
        return self.model.batch_stages(self.spec).as_dict()

    def throughput(self) -> float:
        return self.model.device_throughput(self.spec)

    @property
    def active_power(self) -> float:
        return self.cal.u280_active_power
