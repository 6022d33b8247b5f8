"""Preprocess manager — the producer side of Figure 9.

The preprocess manager holds the one worker of the system's technology (a
CPU core or a SmartSSD ISP unit) whose throughput ``P`` the system's
planner measured, and splits the job's mini-batches among the ``ceil(T/P)``
copies it launches (steps 3–5).  A modelled worker's timing is a pure
function of its spec and calibration, so every launched slot is that one
worker.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError, ProvisioningError, is_int
from repro.core.worker import PreprocessingWorker


class PreprocessManager:
    """Launches one job's copies of a single preprocessing worker."""

    def __init__(self, worker: PreprocessingWorker) -> None:
        self.worker = worker

    def launch(self, num_batches: int, num_workers: int) -> List[int]:
        """The shares of ``num_batches`` of the copies that produce any.

        Batches are split round-robin over ``num_workers`` copies so every
        worker produces an equal share (partitions are placed round-robin
        too).  Copies past ``num_batches`` would get a share of 0 and are
        left out: the list has ``min(num_workers, num_batches)`` entries, so
        its size never follows a plan's worker count.
        """
        if not is_int(num_batches) or num_batches <= 0:
            raise ConfigurationError(
                f"num_batches must be a positive int, got {num_batches!r}"
            )
        if not is_int(num_workers):
            raise ConfigurationError(
                f"num_workers must be a positive int, got {num_workers!r}"
            )
        if num_workers <= 0:
            raise ProvisioningError("cannot launch zero workers")
        base, extra = divmod(num_batches, num_workers)
        producing = min(num_workers, num_batches)
        return [base + 1] * extra + [base] * (producing - extra)
