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
        """Each of ``num_workers`` copies' share of ``num_batches``.

        Batches are split round-robin so every worker produces an equal
        share (partitions are placed round-robin too); a worker past
        ``num_batches`` gets a share of 0.
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
        return [base + 1] * extra + [base] * (num_workers - extra)
