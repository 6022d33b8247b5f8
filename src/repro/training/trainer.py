"""Train manager — the consumer side of the Figure 9 software architecture.

The train manager lives on the GPU training node.  At job launch it
stress-tests the GPU to measure the maximum training throughput ``T``
(step 2), allocates the mini-batch input queue, and then loops: pop a
mini-batch from the queue, transfer it to the GPU, and run one training
iteration (steps 6–7).  GPU utilization falls out of the simulation as
training time over wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.sim.engine import Engine, Timeout
from repro.sim.resources import Store
from repro.training.gpu import GpuTrainingModel


@dataclass
class TrainStats:
    """Outcome of one simulated training run."""

    batches_trained: int = 0
    training_time: float = 0.0  # seconds the GPU spent training
    wait_time: float = 0.0  # seconds the GPU starved on the input queue
    finish_time: float = 0.0
    first_batch_time: float = 0.0  # when the first mini-batch arrived
    iteration_times: List[float] = field(default_factory=list)

    @property
    def gpu_utilization(self) -> float:
        """Fraction of wall time spent actually training (Fig. 3 metric)."""
        if self.finish_time <= 0:
            return 0.0
        return min(self.training_time / self.finish_time, 1.0)


class TrainManager:
    """Consumes mini-batches from the input queue and trains on GPUs."""

    def __init__(
        self,
        spec: ModelSpec,
        num_gpus: int = 1,
        calibration: Calibration = CALIBRATION,
        input_queue_capacity: int = 16,
    ) -> None:
        if num_gpus <= 0:
            raise ConfigurationError("num_gpus must be positive")
        self.spec = spec
        self.num_gpus = num_gpus
        self.cal = calibration
        self.gpu_model = GpuTrainingModel(calibration)
        self.input_queue_capacity = input_queue_capacity
        self.stats = TrainStats()

    def measure_max_throughput(self) -> float:
        """Step 2: stress-test the GPUs with dummy inputs to find ``T``."""
        return self.gpu_model.node_throughput(self.spec, self.num_gpus)

    def make_input_queue(self, name: str = "input-queue") -> Store:
        """Step 1: allocate the bounded mini-batch input queue."""
        return Store(name, capacity=self.input_queue_capacity)

    def iteration_time(self) -> float:
        """Seconds per training iteration across the data-parallel GPUs."""
        return self.spec.batch_size / self.measure_max_throughput()

    def run(self, engine: Engine, queue: Store, num_batches: int):
        """DES process: train ``num_batches`` mini-batches from ``queue``."""
        iteration = self.iteration_time()
        h2d = (
            self.cal.train_ready_batch_bytes(self.spec)
            / self.cal.gpu_preproc_pcie_bw
        )
        for index in range(num_batches):
            wait_start = engine.now
            yield queue.get()
            if index == 0:
                self.stats.first_batch_time = engine.now
            self.stats.wait_time += engine.now - wait_start
            # H2D overlaps compute: the next batch is prefetched while the
            # current one trains, so the copy only shows when it dominates.
            yield Timeout(max(h2d, iteration))
            self.stats.training_time += iteration
            self.stats.batches_trained += 1
            self.stats.iteration_times.append(iteration)
        self.stats.finish_time = engine.now
