"""The paper's contribution: one system class and one worker class per
design point (CPU core, PreSto ISP unit on a SmartSSD, A100 pool, U280 pool
and PreSto (U280)), the T/P provisioning logic, the preprocess manager, and
the end-to-end preprocessing-feeds-training simulation.  A system states its
device's power and price; a worker holds its one hardware timing model."""

from repro.core.worker import BREAKDOWN_STEPS, PreprocessingWorker
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.isp_worker import IspPreprocessingWorker
from repro.core.accel_worker import GpuPoolWorker, U280Worker
from repro.core.provision import ProvisioningPlan, provision
from repro.core.systems import (
    PreprocessingSystem,
    DisaggCpuSystem,
    CoLocatedCpuSystem,
    PreStoSystem,
    A100PoolSystem,
    U280PoolSystem,
    PreStoU280System,
)
from repro.core.manager import PreprocessManager
from repro.core.endtoend import EndToEndSimulation, PipelineStats

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
