"""Device cost models: CPU cores, the PreSto FPGA accelerator, GPU-based
preprocessing, FPGA resource accounting (Table II), and the LLC model behind
Figure 6.  Every tuned constant lives in :mod:`repro.hardware.calibration`;
each design point's power and price are read from it by its system
(:mod:`repro.core.systems`)."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hardware.calibration": ("CALIBRATION", "Calibration"),
    "repro.hardware.cpu": ("CpuCoreModel", "CpuStepLatencies"),
    "repro.hardware.accelerator": ("AcceleratorModel", "AcceleratorStages"),
    "repro.hardware.fpga": (
        "FpgaPart", "UnitResources", "PRESTO_UNITS", "resource_table",
    ),
    "repro.hardware.gpu_preproc": ("GpuPreprocModel",),
    "repro.hardware.cache": ("CacheModel", "OperatorProfile"),
})

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
