"""Sensitivity — datacenter link speed.

PreSto's advantage partly rests on *not* moving raw data over the network.
This sweep re-evaluates the single-worker speedup (Fig. 12's metric) and the
PreSto device's bottleneck stage across link generations (1/10/25/40/100
GbE).  Expected shape: faster links narrow Disagg's Extract(Read) cost only
slightly (it was never the bottleneck — Fig. 5), so the speedup stays within
a tight band; at very fast links PreSto's own egress (Load) stops being a
pipeline stage worth worrying about and its throughput saturates at the
decoder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.isp_worker import IspPreprocessingWorker
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.units import gbps

LINK_GBPS = (1.0, 10.0, 25.0, 40.0, 100.0)


@dataclass(frozen=True)
class NetworkSweepResult(ExperimentResult):
    """Per-link-speed speedups and PreSto throughput."""

    model: str
    links: Tuple[float, ...]
    speedup: Tuple[float, ...]
    presto_throughput: Tuple[float, ...]
    disagg_read_share: Tuple[float, ...]

    def claims(self) -> List[PaperClaim]:
        at_10 = self.speedup[self.links.index(10.0)]
        spread = max(self.speedup[1:]) / min(self.speedup[1:])  # 10 GbE up
        return [
            PaperClaim("speedup at 10 GbE (the paper's testbed)", 10.9, at_10, 0.10),
            PaperClaim(
                "speedup stable across >=10 GbE links (spread)", 1.0, spread, 0.25
            ),
            PaperClaim(
                "PreSto throughput saturates (100 GbE / 25 GbE)",
                1.0,
                self.presto_throughput[-1] / self.presto_throughput[2],
                0.10,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (
                f"{int(link)} GbE",
                s,
                tput / 1e3,
                100.0 * share,
            )
            for link, s, tput, share in zip(
                self.links, self.speedup, self.presto_throughput, self.disagg_read_share
            )
        ]

    def columns(self) -> List[str]:
        return [
            "link",
            "PreSto speedup (x)",
            "PreSto k-samples/s",
            "Disagg Extract(Read) share (%)",
        ]

    def table_title(self) -> str:
        return f"Sensitivity (link speed, {self.model})"


@register_experiment("abl-network", title="Sensitivity: link speed", kind="ablation", order=230)
def run(model: str = "RM5", calibration: Calibration = CALIBRATION) -> NetworkSweepResult:
    """Sweep the network bandwidth."""
    spec = get_model(model)
    speedups: List[float] = []
    throughput: List[float] = []
    read_share: List[float] = []
    for link in LINK_GBPS:
        cal = dataclasses.replace(calibration, network_bandwidth=gbps(link))
        cpu = CpuPreprocessingWorker(spec, cal)
        isp = IspPreprocessingWorker(spec, calibration=cal)
        cpu_breakdown = cpu.batch_breakdown()
        cpu_total = sum(cpu_breakdown.values())
        speedups.append(cpu_total / isp.batch_latency())
        throughput.append(isp.throughput())
        read_share.append(cpu_breakdown["extract_read"] / cpu_total)
    return NetworkSweepResult(
        model=spec.name,
        links=LINK_GBPS,
        speedup=tuple(speedups),
        presto_throughput=tuple(throughput),
        disagg_read_share=tuple(read_share),
    )
