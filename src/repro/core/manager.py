"""Preprocess manager — the producer side of Figure 9.

The preprocess manager receives the training job's configuration and the
measured training throughput ``T`` from the train manager, derives the
worker count via T/P, builds the workers (CPU cores or SmartSSD ISP units)
and splits the job's mini-batches among them (steps 2–5).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ConfigurationError, ProvisioningError, is_int
from repro.features.specs import ModelSpec
from repro.core.provision import ProvisioningPlan, workers_for
from repro.core.worker import PreprocessingWorker


class PreprocessManager:
    """Builds the preprocessing workers for one training job."""

    def __init__(
        self,
        spec: ModelSpec,
        worker_factory: Callable[[], PreprocessingWorker] | PreprocessingWorker,
    ) -> None:
        """``worker_factory`` is called once per launched slot; a worker
        passed instead fills every slot itself."""
        self.spec = spec
        self.worker_factory = worker_factory
        self.workers: List[PreprocessingWorker] = []

    # -- provisioning (step 2) ----------------------------------------------

    def measure_worker_throughput(self) -> float:
        """Offline measurement of one worker's throughput ``P``."""
        worker = self.worker_factory
        if not isinstance(worker, PreprocessingWorker):
            worker = worker()
        return worker.throughput()

    def plan(self, training_throughput: float) -> ProvisioningPlan:
        """Derive the worker allocation from the trainer's demand ``T``."""
        worker_throughput = self.measure_worker_throughput()
        return ProvisioningPlan(
            spec_name=self.spec.name,
            training_throughput=training_throughput,
            worker_throughput=worker_throughput,
            num_workers=workers_for(training_throughput, worker_throughput),
        )

    # -- worker lifecycle (steps 3-5) -----------------------------------------

    def launch(
        self,
        num_batches: int,
        num_workers: Optional[int] = None,
        training_throughput: Optional[float] = None,
    ) -> List[int]:
        """Build the workers and return each one's share of ``num_batches``.

        Either pass an explicit ``num_workers`` or a ``training_throughput``
        to provision against.  Batches are split round-robin so every worker
        produces an equal share (partitions are placed round-robin too); a
        worker past ``num_batches`` gets a share of 0.
        """
        if not is_int(num_batches) or num_batches <= 0:
            raise ConfigurationError(
                f"num_batches must be a positive int, got {num_batches!r}"
            )
        if num_workers is None:
            if training_throughput is None:
                raise ProvisioningError(
                    "need num_workers or training_throughput to launch"
                )
            num_workers = self.plan(training_throughput).num_workers
        if not is_int(num_workers):
            raise ConfigurationError(
                f"num_workers must be a positive int, got {num_workers!r}"
            )
        if num_workers <= 0:
            raise ProvisioningError("cannot launch zero workers")

        worker = self.worker_factory
        if isinstance(worker, PreprocessingWorker):
            self.workers = [worker] * num_workers
        else:
            self.workers = [worker() for _ in range(num_workers)]
        base, extra = divmod(num_batches, num_workers)
        return [base + 1] * extra + [base] * (num_workers - extra)
