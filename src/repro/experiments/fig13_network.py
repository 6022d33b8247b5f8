"""Figure 13 — aggregate RPC latency for inter-node data movement.

Per-mini-batch aggregate RPC time of Disagg and PreSto, normalized to
PreSto (the paper normalizes per model; the headline is a 2.9x average
reduction because PreSto never moves raw feature data over the network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    models,
    register_experiment,
)
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.network.rpc import RpcAccounting, RpcBatchCosts


@dataclass(frozen=True)
class Fig13Result(ExperimentResult):
    """Per-model aggregate RPC costs for both designs."""

    disagg: Dict[str, RpcBatchCosts]
    presto: Dict[str, RpcBatchCosts]

    def reduction(self, model: str) -> float:
        """Disagg/PreSto aggregate RPC time."""
        return self.disagg[model].total / self.presto[model].total

    @property
    def mean_reduction(self) -> float:
        """Average across models (paper: 2.9)."""
        values = [self.reduction(m) for m in self.disagg]
        return sum(values) / len(values)

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("mean RPC-time reduction", 2.9, self.mean_reduction, 0.15),
            PaperClaim(
                "PreSto moves zero raw bytes on the wire",
                0.0,
                max(c.raw_data_transfer for c in self.presto.values()),
                0.0,
            ),
        ]

    def rows(self) -> List[Tuple]:
        out = []
        for model in self.disagg:
            base = self.presto[model].total
            out.append(
                (
                    model,
                    self.disagg[model].total / base,
                    self.presto[model].total / base,
                    1e3 * self.disagg[model].total,
                    1e3 * self.presto[model].total,
                )
            )
        return out

    def columns(self) -> List[str]:
        return ["model", "Disagg (norm)", "PreSto (norm)", "Disagg (ms)", "PreSto (ms)"]

    def table_title(self) -> str:
        return "Figure 13: aggregate RPC latency per mini-batch"


@register_experiment("fig13", title="Figure 13", kind="figure", order=90)
def run(calibration: Calibration = CALIBRATION) -> Fig13Result:
    """Regenerate Figure 13."""
    accounting = RpcAccounting(calibration)
    disagg = {spec.name: accounting.disagg_batch(spec) for spec in models()}
    presto = {spec.name: accounting.presto_batch(spec) for spec in models()}
    return Fig13Result(disagg=disagg, presto=presto)
