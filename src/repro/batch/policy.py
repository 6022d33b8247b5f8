"""Per-task execution policy for the fault-tolerant batch runner.

A :class:`BatchPolicy` is the frozen, dict-round-trippable knob set that
decides how one batch run treats misbehaving tasks: how often a raising
task is retried (``max_retries``, waiting ``backoff_s`` before the first
retry and doubling per retry), how long a
task may run before the stuck worker is terminated and replaced
(``task_timeout_s``), how many worker processes to use (``processes``),
and whether a non-ok task aborts the batch with a typed error
(``strict``) or becomes a per-task :class:`~repro.batch.outcomes.\
BatchOutcome` in a partial result (``degrade``).

The policy is recorded in the batch journal's run header, so a resumed
run can see exactly how the interrupted one was configured.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError, is_int, strict_keys

#: how a batch reacts to a task that ends non-ok: ``strict`` stops
#: dispatching, drains in-flight work, and raises a typed error;
#: ``degrade`` keeps going and returns every task's outcome record.
FAILURE_MODES = ("strict", "degrade")


@dataclass(frozen=True)
class BatchPolicy:
    """How one batch run treats retries, timeouts, and failures."""

    max_retries: int = 1
    backoff_s: float = 0.05
    task_timeout_s: Optional[float] = None
    failure_mode: str = "strict"
    processes: Optional[int] = None

    def __post_init__(self) -> None:
        if not is_int(self.max_retries) or self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be a non-negative int, "
                f"got {self.max_retries!r}"
            )
        if not isinstance(self.backoff_s, (int, float)) or not (
            0 <= self.backoff_s < math.inf
        ):
            raise ConfigurationError(
                f"backoff_s must be finite and non-negative, got {self.backoff_s!r}"
            )
        if self.task_timeout_s is not None and (
            not isinstance(self.task_timeout_s, (int, float))
            or not 0 < self.task_timeout_s < math.inf
        ):
            raise ConfigurationError(
                f"task_timeout_s must be positive and finite (or None), "
                f"got {self.task_timeout_s!r}"
            )
        if self.failure_mode not in FAILURE_MODES:
            raise ConfigurationError(
                f"failure_mode must be one of {FAILURE_MODES}, "
                f"got {self.failure_mode!r}"
            )
        if self.processes is not None and (
            not is_int(self.processes) or self.processes < 1
        ):
            raise ConfigurationError(
                f"processes must be a positive int (or None for the "
                f"cpu-count default), got {self.processes!r}"
            )

    def worker_count(self, tasks: int) -> int:
        """Pool size for ``tasks`` pending tasks: never more workers than
        tasks, even when ``processes`` is set explicitly."""
        configured = self.processes or (os.cpu_count() or 2)
        return max(1, min(tasks, configured))

    def backoff_for(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based): doubling,
        ``backoff_s * 2 ** (attempt - 1)``."""
        return self.backoff_s * 2 ** max(0, attempt - 1)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "task_timeout_s": self.task_timeout_s,
            "failure_mode": self.failure_mode,
            "processes": self.processes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchPolicy":
        return cls(**strict_keys(cls, data, ConfigurationError))

