"""System design points: the paper's baseline and proposed architectures.

Each system binds a worker technology to a deployment shape and answers the
questions the evaluation asks of it: aggregate throughput at a worker count,
workers needed for a training job, preprocessing-side power, and CapEx —
the inputs to Figures 3, 4, 11, 14, 15, and 16.
"""

from __future__ import annotations

import abc

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.cpu import CpuCoreModel
from repro.hardware.power import PowerModel
from repro.api.registry import register_system
from repro.core.accel_worker import GpuPoolWorker, PreStoU280Worker, U280PoolWorker
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.isp_worker import IspPreprocessingWorker
from repro.core.provision import ProvisioningPlan, provision
from repro.core.worker import PreprocessingWorker


class PreprocessingSystem(abc.ABC):
    """One deployment design point for RecSys data preprocessing."""

    name: str = "abstract"

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        self.spec = spec
        self.cal = calibration
        self.power_model = PowerModel(calibration)

    # -- worker technology ---------------------------------------------------

    @abc.abstractmethod
    def make_worker(self) -> PreprocessingWorker:
        """Instantiate one worker of this system's technology."""

    def worker_throughput(self) -> float:
        """P: samples/s of one worker."""
        return self.make_worker().throughput()

    # -- scaling ------------------------------------------------------------------

    def aggregate_throughput(self, num_workers: int) -> float:
        """Samples/s of ``num_workers`` workers (linear by default)."""
        if num_workers < 0:
            raise ConfigurationError("num_workers must be non-negative")
        return num_workers * self.worker_throughput()

    def provision_for(self, num_gpus: int = 8) -> ProvisioningPlan:
        """Workers needed to feed ``num_gpus`` training GPUs (T/P)."""
        return provision(self.spec, self.worker_throughput(), num_gpus, self.cal)

    # -- cost/power ------------------------------------------------------------------

    @abc.abstractmethod
    def power(self, num_workers: int) -> float:
        """Preprocessing-side power at ``num_workers`` workers (watts)."""

    @abc.abstractmethod
    def capex(self, num_workers: int) -> float:
        """Preprocessing-side capital expenditure (dollars)."""


@register_system("Disagg")
class DisaggCpuSystem(PreprocessingSystem):
    """Baseline: disaggregated pool of CPU preprocessing servers."""

    name = "Disagg"

    def make_worker(self) -> PreprocessingWorker:
        return CpuPreprocessingWorker(self.spec, self.cal, remote_storage=True)

    def power(self, num_workers: int) -> float:
        return self.power_model.disagg_cpu_power(num_workers)

    def capex(self, num_workers: int) -> float:
        return num_workers * self.cal.cpu_core_price

    def nodes(self, num_workers: int) -> int:
        """Whole CPU servers hosting the workers."""
        return self.power_model.disagg_cpu_nodes(num_workers)


@register_system("Co-located", aliases=("Colocated",))
class CoLocatedCpuSystem(PreprocessingSystem):
    """CPU workers sharing the GPU training node (Figure 2(a))."""

    name = "Co-located"

    #: host cores a training node spares per GPU (DGX A100: 128 cores / 8 GPUs)
    max_cores_per_gpu = 16

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec, calibration)
        self._cpu_model = CpuCoreModel(calibration)

    def make_worker(self) -> PreprocessingWorker:
        return CpuPreprocessingWorker(
            self.spec, self.cal, remote_storage=True, colocated=True
        )

    def aggregate_throughput(self, num_workers: int) -> float:
        """Co-location interference makes scaling mildly sub-linear."""
        if num_workers < 0:
            raise ConfigurationError("num_workers must be non-negative")
        if num_workers > self.max_cores_per_gpu:
            raise ConfigurationError(
                f"co-located design caps at {self.max_cores_per_gpu} cores per GPU"
            )
        return self._cpu_model.colocated_throughput(self.spec, num_workers)

    def provision_for(self, num_gpus: int = 8) -> ProvisioningPlan:
        """Co-location cannot elastically allocate workers: the budget is
        fixed at ``max_cores_per_gpu``.  Raises when even the full budget
        cannot sustain the training demand (the Fig. 3 situation)."""
        from repro.training.gpu import GpuTrainingModel

        per_gpu_demand = GpuTrainingModel(self.cal).max_training_throughput(self.spec)
        for cores in range(1, self.max_cores_per_gpu + 1):
            supply = self._cpu_model.colocated_throughput(self.spec, cores)
            if supply >= per_gpu_demand:
                return ProvisioningPlan(
                    spec_name=self.spec.name,
                    training_throughput=per_gpu_demand * num_gpus,
                    worker_throughput=supply / cores,
                    num_workers=cores * num_gpus,
                )
        raise ConfigurationError(
            f"{self.spec.name}: {self.max_cores_per_gpu} co-located cores per GPU "
            f"supply only "
            f"{self._cpu_model.colocated_throughput(self.spec, self.max_cores_per_gpu):,.0f} "
            f"samples/s of the {per_gpu_demand:,.0f} demanded"
        )

    def power(self, num_workers: int) -> float:
        return num_workers * self.cal.cpu_core_power

    def capex(self, num_workers: int) -> float:
        return 0.0  # the host cores come with the training node


@register_system("PreSto", aliases=("PreSto (SmartSSD)",))
class PreStoSystem(PreprocessingSystem):
    """The proposal: SmartSSD ISP units inside the storage system."""

    name = "PreSto"

    def make_worker(self) -> PreprocessingWorker:
        return IspPreprocessingWorker(self.spec, calibration=self.cal)

    def power(self, num_workers: int, worst_case: bool = False) -> float:
        return self.power_model.presto_power(num_workers, worst_case=worst_case)

    def capex(self, num_workers: int) -> float:
        return (
            num_workers * self.cal.smartssd_price + self.cal.presto_host_share_price
        )


@register_system("A100")
class A100PoolSystem(PreprocessingSystem):
    """Disaggregated pool of A100 GPUs running NVTabular-style preprocessing."""

    name = "A100"

    def make_worker(self) -> PreprocessingWorker:
        return GpuPoolWorker(self.spec, self.cal)

    def power(self, num_workers: int) -> float:
        return self.power_model.accelerator_pool_power("a100", num_workers)

    def capex(self, num_workers: int) -> float:
        return num_workers * self.cal.a100_price + self.cal.presto_host_share_price


@register_system("U280")
class U280PoolSystem(PreprocessingSystem):
    """Disaggregated pool of discrete U280 FPGA preprocessors."""

    name = "U280"

    def make_worker(self) -> PreprocessingWorker:
        return U280PoolWorker(self.spec, self.cal)

    def power(self, num_workers: int) -> float:
        return self.power_model.accelerator_pool_power("u280", num_workers)

    def capex(self, num_workers: int) -> float:
        return num_workers * self.cal.u280_price + self.cal.presto_host_share_price


@register_system("PreSto (U280)", aliases=("PreSto-U280",))
class PreStoU280System(PreprocessingSystem):
    """A U280 integrated in the storage node ("PreSto (U280)")."""

    name = "PreSto (U280)"

    def make_worker(self) -> PreprocessingWorker:
        return PreStoU280Worker(self.spec, self.cal)

    def power(self, num_workers: int) -> float:
        return self.power_model.accelerator_pool_power("u280", num_workers)

    def capex(self, num_workers: int) -> float:
        return num_workers * self.cal.u280_price + self.cal.presto_host_share_price
