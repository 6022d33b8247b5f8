"""The uniform record every scenario run produces.

:class:`RunResult` flattens the quantities the paper's figures and tables
consume — utilization, supply/demand throughputs, provisioning, power, and
CapEx — into one frozen row, so sweeps can be tabulated, serialized, and
compared without knowing which system produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, TYPE_CHECKING

from repro.errors import ConfigurationError, strict_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Scenario.run` — a full pipeline simulation."""

    scenario: "Scenario"
    num_workers: int  # workers actually launched
    num_batches: int
    wall_time: float  # simulated seconds end to end
    training_time: float  # seconds the GPUs spent training
    wait_time: float  # seconds the GPUs starved on the input queue
    first_batch_time: float  # pipeline warmup latency
    gpu_utilization: float  # training_time / wall_time
    steady_state_utilization: float  # warmup excluded
    preprocessing_throughput: float  # samples/s actually supplied
    training_throughput: float  # samples/s consumed end to end
    training_demand: float  # T: samples/s the GPUs can absorb
    worker_throughput: float  # P: samples/s of one worker
    headroom: float  # supply capacity over demand (>=1: never starves)
    power_watts: float  # preprocessing-side power at num_workers
    capex_dollars: float  # preprocessing-side capital expenditure

    @property
    def starved(self) -> bool:
        """Whether preprocessing failed to keep the GPUs busy."""
        return self.steady_state_utilization < 0.99

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able flat record (scenario nested as its own dict)."""
        out: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            out[spec_field.name] = (
                value.to_dict() if spec_field.name == "scenario" else value
            )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (strict keys).

        The round trip is exact — sweep journals rely on it to replay a
        completed scenario's result byte-identically on resume.
        """
        from repro.api.scenario import Scenario

        payload = strict_keys(cls, data, ConfigurationError)
        payload["scenario"] = Scenario.from_dict(payload["scenario"])
        return cls(**payload)

    def summary(self) -> str:
        """One human-readable line for logs and CLI output."""
        s = self.scenario
        return (
            f"{s.model}/{s.system}: {self.num_workers} workers feed "
            f"{s.num_gpus} GPU(s) at {100 * self.gpu_utilization:.1f}% util "
            f"({self.preprocessing_throughput:,.0f} samples/s supplied, "
            f"{self.power_watts:,.0f} W, ${self.capex_dollars:,.0f} CapEx)"
        )
