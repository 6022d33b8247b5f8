"""Figure 6 — CPU/memory-bandwidth utilization and LLC hit rate.

Characterizes Bucketize, SigridHash, and Log on RM1 and RM5 at kernel level:
the ops are compute-bound (high CPU utilization, memory bandwidth well under
15% of the node's 281.6 GB/s) with cache-resident working sets (~85%+ LLC
hit rate) — the observation motivating domain-specific acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.cache import CacheModel, UtilizationSample

OPS = ("bucketize", "sigridhash", "log")
MODELS = ("RM1", "RM5")


@dataclass(frozen=True)
class Fig6Result(ExperimentResult):
    """One UtilizationSample per (model, op)."""

    samples: Dict[Tuple[str, str], UtilizationSample]

    def claims(self) -> List[PaperClaim]:
        mem_max = max(s.memory_bw_utilization for s in self.samples.values())
        llc_min = min(s.llc_hit_rate for s in self.samples.values())
        cpu_min = min(s.cpu_utilization for s in self.samples.values())
        bucketize_rm1 = self.samples[("RM1", "bucketize")].llc_hit_rate
        return [
            PaperClaim("max memory BW utilization (<0.15)", 0.13, mem_max, 0.40),
            PaperClaim("Bucketize LLC hit rate", 0.85, bucketize_rm1, 0.15),
            PaperClaim("min LLC hit rate across ops", 0.80, llc_min, 0.20),
            PaperClaim("min CPU utilization (compute-bound)", 0.85, cpu_min, 0.20),
        ]

    def rows(self) -> List[Tuple[str, str, float, float, float]]:
        return [
            (
                model,
                sample.op,
                100.0 * sample.cpu_utilization,
                100.0 * sample.memory_bw_utilization,
                100.0 * sample.llc_hit_rate,
            )
            for (model, _), sample in self.samples.items()
        ]

    def columns(self) -> List[str]:
        return ["model", "op", "CPU util (%)", "mem BW util (%)", "LLC hit (%)"]

    def table_title(self) -> str:
        return "Figure 6: kernel-level utilization of the transform ops"


@register_experiment("fig6", title="Figure 6", kind="figure", order=40)
def run() -> Fig6Result:
    """Regenerate Figure 6."""
    model = CacheModel()
    samples: Dict[Tuple[str, str], UtilizationSample] = {}
    for model_name in MODELS:
        spec = get_model(model_name)
        for op in OPS:
            samples[(model_name, op)] = model.sample(op, spec)
    return Fig6Result(samples=samples)
