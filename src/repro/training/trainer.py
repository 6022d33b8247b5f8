"""Train manager — the consumer side of the Figure 9 software architecture.

The train manager lives on the GPU training node.  At job launch, when it
is constructed, it stress-tests the GPUs once to measure the maximum
training throughput ``T`` (step 2) and sizes the mini-batch input queue;
then it loops: pop a mini-batch, transfer it to the GPU, and run one
training iteration (steps 6–7).  :mod:`repro.core.endtoend` simulates that
loop from ``iteration_time`` and ``step_time``, which read that ``T``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, is_int
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.training.gpu import GpuTrainingModel


class TrainManager:
    """The training node's timing: demand ``T``, iteration and queue size."""

    def __init__(
        self,
        spec: ModelSpec,
        num_gpus: int = 1,
        calibration: Calibration = CALIBRATION,
        input_queue_capacity: int = 16,
    ) -> None:
        for name, value in (
            ("num_gpus", num_gpus),
            ("input_queue_capacity", input_queue_capacity),
        ):
            if not is_int(value) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive int, got {value!r}")
        self.spec = spec
        self.num_gpus = num_gpus
        self.cal = calibration
        self.gpu_model = GpuTrainingModel(calibration)
        self.input_queue_capacity = input_queue_capacity
        self.max_throughput = self.measure_max_throughput()

    def measure_max_throughput(self) -> float:
        """Step 2: stress-test the GPUs with dummy inputs to find ``T``."""
        return self.gpu_model.node_throughput(self.spec, self.num_gpus)

    def iteration_time(self) -> float:
        """Seconds per training iteration across the data-parallel GPUs."""
        return self.spec.batch_size / self.max_throughput

    def step_time(self) -> float:
        """Seconds the GPUs are busy per mini-batch: the longer of the
        iteration and the host-to-device copy, which overlaps the previous
        batch's iteration.  Data-parallel GPUs each copy their own
        ``1/num_gpus`` of the batch over their own PCIe link."""
        bandwidth = self.cal.gpu_preproc_pcie_bw
        h2d = self.cal.train_ready_batch_bytes(self.spec) / (self.num_gpus * bandwidth)
        return max(h2d, self.iteration_time())
