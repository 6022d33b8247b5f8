"""The paper's contribution: one system class and one worker class per
design point (CPU core, PreSto ISP unit on a SmartSSD, A100 pool, U280 pool
and PreSto (U280)), the T/P provisioning logic, the preprocess manager, and
the end-to-end preprocessing-feeds-training simulation.  A system states its
device's power and price; a worker holds its one hardware timing model."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.worker": ("BREAKDOWN_STEPS", "PreprocessingWorker"),
    "repro.core.cpu_worker": ("CpuPreprocessingWorker",),
    "repro.core.isp_worker": ("IspPreprocessingWorker",),
    "repro.core.accel_worker": ("GpuPoolWorker", "U280Worker"),
    "repro.core.provision": ("ProvisioningPlan", "provision"),
    "repro.core.systems": (
        "PreprocessingSystem", "DisaggCpuSystem", "CoLocatedCpuSystem",
        "PreStoSystem", "A100PoolSystem", "U280PoolSystem", "PreStoU280System",
    ),
    "repro.core.manager": ("PreprocessManager",),
    "repro.core.endtoend": ("EndToEndSimulation", "PipelineStats"),
})

__all__ = [
    "BREAKDOWN_STEPS",
    "PreprocessingWorker",
    "CpuPreprocessingWorker",
    "IspPreprocessingWorker",
    "GpuPoolWorker",
    "U280Worker",
    "ProvisioningPlan",
    "provision",
    "PreprocessingSystem",
    "DisaggCpuSystem",
    "CoLocatedCpuSystem",
    "PreStoSystem",
    "A100PoolSystem",
    "U280PoolSystem",
    "PreStoU280System",
    "PreprocessManager",
    "EndToEndSimulation",
    "PipelineStats",
]
