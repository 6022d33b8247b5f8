"""T/P provisioning — step 2 of the Figure 9 software flow.

The train manager stress-tests the GPUs to find the maximum training
throughput ``T``; the preprocess manager measures one worker's preprocessing
throughput ``P`` offline; the number of workers to allocate is ``ceil(T/P)``
so preprocessing never starves the trainers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ProvisioningError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.training.gpu import GpuTrainingModel


@dataclass(frozen=True)
class ProvisioningPlan:
    """Outcome of the T/P computation for one training job."""

    spec_name: str
    training_throughput: float  # T: samples/s demanded by the GPUs
    worker_throughput: float  # P: samples/s of one preprocessing worker
    num_workers: int  # ceil(T / P)

    @property
    def aggregate_preprocessing_throughput(self) -> float:
        """Samples/s the allocated workers supply."""
        return self.num_workers * self.worker_throughput

    @property
    def headroom(self) -> float:
        """Supply over demand (>= 1.0 means the GPUs never starve)."""
        if self.training_throughput <= 0:
            return float("inf")
        return self.aggregate_preprocessing_throughput / self.training_throughput


def workers_for(training_throughput: float, worker_throughput: float) -> int:
    """The smallest worker count whose aggregate supply meets the demand.

    Nominally ``ceil(T / P)``, but computed so the sufficient-and-tight
    contract holds even when floating point misbehaves: ``T / P`` can
    underflow to zero for subnormal demands (allocating zero workers for a
    positive demand) or round across an integer boundary.  A ratio of
    2**53 or more (a near-subnormal ``P`` overflows it to infinity) has no
    exact count, since a step of one worker no longer moves ``count * P``:
    that raises instead of looping.
    """
    if worker_throughput <= 0:
        raise ProvisioningError("worker throughput must be positive")
    if training_throughput < 0:
        raise ProvisioningError("training throughput must be non-negative")
    if training_throughput == 0:
        return 0
    ratio = training_throughput / worker_throughput
    if not ratio < 2.0**53:
        raise ProvisioningError(
            f"T / P = {training_throughput!r} / {worker_throughput!r} samples/s "
            "has no exact worker count"
        )
    count = max(1, math.ceil(ratio))
    while count * worker_throughput < training_throughput:
        count += 1
    while count > 1 and (count - 1) * worker_throughput >= training_throughput:
        count -= 1
    return count


def provision(
    spec: ModelSpec,
    worker_throughput: float,
    num_gpus: int = 8,
    calibration: Calibration = CALIBRATION,
) -> ProvisioningPlan:
    """Full provisioning flow for one training job on ``num_gpus`` GPUs."""
    gpu = GpuTrainingModel(calibration)
    demand = gpu.node_throughput(spec, num_gpus)
    return ProvisioningPlan(
        spec_name=spec.name,
        training_throughput=demand,
        worker_throughput=worker_throughput,
        num_workers=workers_for(demand, worker_throughput),
    )
