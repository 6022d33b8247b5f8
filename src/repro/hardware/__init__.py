"""Device cost models: CPU cores, the PreSto FPGA accelerator, GPU-based
preprocessing, FPGA resource accounting (Table II), and the LLC model behind
Figure 6.  Every tuned constant lives in :mod:`repro.hardware.calibration`;
each design point's power and price are read from it by its system
(:mod:`repro.core.systems`)."""

from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.cpu import CpuCoreModel, CpuStepLatencies
from repro.hardware.accelerator import AcceleratorModel, AcceleratorStages
from repro.hardware.fpga import FpgaPart, UnitResources, PRESTO_UNITS, resource_table
from repro.hardware.gpu_preproc import GpuPreprocModel
from repro.hardware.cache import CacheModel, OperatorProfile

__all__ = [
    "CALIBRATION",
    "Calibration",
    "CpuCoreModel",
    "CpuStepLatencies",
    "AcceleratorModel",
    "AcceleratorStages",
    "FpgaPart",
    "UnitResources",
    "PRESTO_UNITS",
    "resource_table",
    "GpuPreprocModel",
    "CacheModel",
    "OperatorProfile",
]
