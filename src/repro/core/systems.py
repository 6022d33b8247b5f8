"""System design points: the paper's baseline and proposed architectures.

Each system binds a worker technology to a deployment shape and answers the
questions the evaluation asks of it: aggregate throughput at a worker count,
workers needed for a training job, preprocessing-side power, and CapEx —
the inputs to Figures 3, 4, 11, 14, 15, and 16.
"""

from __future__ import annotations

import abc
import math

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.cpu import CpuCoreModel
from repro.api.registry import register_system
from repro.core.accel_worker import GpuPoolWorker, U280Worker
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.isp_worker import IspPreprocessingWorker
from repro.core.provision import ProvisioningPlan, provision
from repro.core.worker import PreprocessingWorker


def _count(num_workers: int) -> int:
    """``num_workers``, refused when negative."""
    if num_workers < 0:
        raise ConfigurationError("num_workers must be non-negative")
    return num_workers


class PreprocessingSystem(abc.ABC):
    """One deployment design point for RecSys data preprocessing."""

    name: str = "abstract"

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        self.spec = spec
        self.cal = calibration

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
        return _count(num_workers) * self.worker_throughput()

    def provision_for(self, num_gpus: int = 8) -> ProvisioningPlan:
        """Workers needed to feed ``num_gpus`` training GPUs (T/P)."""
        return provision(self.spec, self.worker_throughput(), num_gpus, self.cal)

    # -- cost/power ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def device_power(self) -> float:
        """Measured draw of one worker's device while preprocessing (watts)."""

    @property
    @abc.abstractmethod
    def device_price(self) -> float:
        """Price of one worker's device (dollars)."""

    def power(self, num_workers: int) -> float:
        """Preprocessing-side power at ``num_workers`` workers (watts): the
        devices plus the storage host's orchestration share."""
        return _count(num_workers) * self.device_power + self.cal.presto_host_power

    def capex(self, num_workers: int) -> float:
        """Preprocessing-side capital expenditure (dollars): the devices plus
        the storage host's share."""
        return (
            _count(num_workers) * self.device_price + self.cal.presto_host_share_price
        )


@register_system("Disagg")
class DisaggCpuSystem(PreprocessingSystem):
    """Baseline: disaggregated pool of CPU preprocessing servers."""

    name = "Disagg"

    def make_worker(self) -> PreprocessingWorker:
        return CpuPreprocessingWorker(self.spec, self.cal)

    @property
    def device_power(self) -> float:
        return self.cal.cpu_core_power

    @property
    def device_price(self) -> float:
        return self.cal.cpu_core_price

    def power(self, num_workers: int) -> float:
        """Per-core share of loaded node power; no storage-host share."""
        return _count(num_workers) * self.device_power

    def capex(self, num_workers: int) -> float:
        return _count(num_workers) * self.device_price

    def nodes(self, num_workers: int) -> int:
        """Whole CPU servers hosting the workers (Fig. 14 text: 367 cores =
        12 nodes)."""
        return math.ceil(num_workers / self.cal.cpu_cores_per_node)


@register_system("Co-located", aliases=("Colocated",))
class CoLocatedCpuSystem(DisaggCpuSystem):
    """CPU workers sharing the GPU training node (Figure 2(a)).

    The Disagg core, slowed by interference, capped per GPU, and paid for
    with the training node."""

    name = "Co-located"

    #: host cores a training node spares per GPU (DGX A100: 128 cores / 8 GPUs)
    max_cores_per_gpu = 16

    def __init__(self, spec: ModelSpec, calibration: Calibration = CALIBRATION) -> None:
        super().__init__(spec, calibration)
        self._cpu_model = CpuCoreModel(calibration)

    def make_worker(self) -> PreprocessingWorker:
        return CpuPreprocessingWorker(self.spec, self.cal, colocated=True)

    def aggregate_throughput(self, num_workers: int) -> float:
        """Co-location interference makes scaling mildly sub-linear."""
        if _count(num_workers) > self.max_cores_per_gpu:
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

    @property
    def device_price(self) -> float:
        return 0.0  # the host cores come with the training node


@register_system("PreSto", aliases=("PreSto (SmartSSD)",))
class PreStoSystem(PreprocessingSystem):
    """The proposal: SmartSSD ISP units inside the storage system."""

    name = "PreSto"

    def make_worker(self) -> PreprocessingWorker:
        return IspPreprocessingWorker(self.spec, calibration=self.cal)

    @property
    def device_power(self) -> float:
        return self.cal.smartssd_active_power

    @property
    def device_price(self) -> float:
        return self.cal.smartssd_price

    def power(self, num_workers: int, worst_case: bool = False) -> float:
        """``worst_case=True`` uses the 25 W NVMe TDP per card — the paper's
        "(9 x 25) = 225 W of worst-case power" bound — and omits the host
        share to mirror that quote."""
        if worst_case:
            return _count(num_workers) * self.cal.smartssd_tdp
        return super().power(num_workers)


@register_system("A100")
class A100PoolSystem(PreprocessingSystem):
    """Disaggregated pool of A100 GPUs running NVTabular-style preprocessing."""

    name = "A100"

    def make_worker(self) -> PreprocessingWorker:
        return GpuPoolWorker(self.spec, self.cal)

    @property
    def device_power(self) -> float:
        return self.cal.a100_preproc_active_power

    @property
    def device_price(self) -> float:
        return self.cal.a100_price


@register_system("U280")
class U280PoolSystem(PreprocessingSystem):
    """Disaggregated pool of discrete U280 FPGA preprocessors.

    Raw data arrives over the network."""

    name = "U280"

    def make_worker(self) -> PreprocessingWorker:
        cal = self.cal
        ingress_bw = cal.network_bandwidth * cal.network_read_efficiency
        return U280Worker(self.spec, cal, ingress_bw)

    @property
    def device_power(self) -> float:
        return self.cal.u280_active_power

    @property
    def device_price(self) -> float:
        return self.cal.u280_price


@register_system("PreSto (U280)", aliases=("PreSto-U280",))
class PreStoU280System(U280PoolSystem):
    """A U280 integrated in the storage node ("PreSto (U280)").

    The pool's card, with raw data arriving over PCIe."""

    name = "PreSto (U280)"

    def make_worker(self) -> PreprocessingWorker:
        return U280Worker(self.spec, self.cal, self.cal.u280_pcie_bw)
