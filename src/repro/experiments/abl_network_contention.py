"""Fleet sensitivity — network traffic when many jobs share the fabric.

Section VI-A (Fig. 13 discussion): "real-world datacenter fleets
concurrently handle a large number of training jobs, all of which time-share
the datacenter network; PreSto's ISP capability can be beneficial in
alleviating the preprocessing operation's pressure on network
communications."

This study quantifies that pressure analytically per trained sample:

* **Disagg** moves raw feature bytes storage -> CPU pool (with read
  amplification) *and* train-ready tensors CPU pool -> trainer;
* **PreSto** moves only the train-ready tensors storage -> trainer.

From the per-sample wire bytes and each job's training demand, the study
derives (a) total network bytes per trained sample, and (b) how many
concurrent 8-GPU jobs a storage node's 10 GbE NIC can feed before its egress
saturates — the fleet-level headroom PreSto buys.
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
from repro.training.gpu import GpuTrainingModel


@dataclass(frozen=True)
class NetworkContentionResult(ExperimentResult):
    """Per-model wire traffic and storage-NIC job capacity."""

    disagg_bytes_per_sample: Dict[str, float]  # total fabric bytes
    presto_bytes_per_sample: Dict[str, float]
    disagg_storage_egress: Dict[str, float]  # bytes/sample leaving storage
    presto_storage_egress: Dict[str, float]
    jobs_per_nic_disagg: Dict[str, float]  # 8-GPU jobs one 10GbE NIC feeds
    jobs_per_nic_presto: Dict[str, float]

    def traffic_reduction(self, model: str) -> float:
        """Total fabric-traffic ratio, Disagg/PreSto."""
        return (
            self.disagg_bytes_per_sample[model] / self.presto_bytes_per_sample[model]
        )

    @property
    def mean_traffic_reduction(self) -> float:
        values = [self.traffic_reduction(m) for m in self.disagg_bytes_per_sample]
        return sum(values) / len(values)

    def nic_headroom(self, model: str) -> float:
        """Extra jobs per storage NIC with PreSto."""
        return self.jobs_per_nic_presto[model] / self.jobs_per_nic_disagg[model]

    def claims(self) -> List[PaperClaim]:
        headrooms = [self.nic_headroom(m) for m in self.jobs_per_nic_disagg]
        return [
            # total fabric traffic tracks Fig. 13's aggregate-RPC reduction
            PaperClaim(
                "mean fabric-traffic reduction (~Fig. 13)",
                2.9,
                self.mean_traffic_reduction,
                0.25,
            ),
            PaperClaim(
                "storage-NIC job headroom (PreSto/Disagg, mean)",
                1.6,
                sum(headrooms) / len(headrooms),
                0.25,
            ),
        ]

    def rows(self) -> List[Tuple]:
        out = []
        for model in self.disagg_bytes_per_sample:
            out.append(
                (
                    model,
                    self.disagg_bytes_per_sample[model] / 1024.0,
                    self.presto_bytes_per_sample[model] / 1024.0,
                    self.traffic_reduction(model),
                    self.jobs_per_nic_disagg[model],
                    self.jobs_per_nic_presto[model],
                )
            )
        return out

    def columns(self) -> List[str]:
        return [
            "model",
            "Disagg KiB/sample",
            "PreSto KiB/sample",
            "reduction (x)",
            "jobs/NIC Disagg",
            "jobs/NIC PreSto",
        ]

    def table_title(self) -> str:
        return (
            "Fleet sensitivity: network traffic per trained sample and "
            "8-GPU jobs one storage 10 GbE NIC sustains"
        )


@register_experiment("abl-contention", title="Fleet: network contention", kind="ablation", order=240)
def run(calibration: Calibration = CALIBRATION) -> NetworkContentionResult:
    """Derive fabric traffic and NIC capacity for every model."""
    gpu = GpuTrainingModel(calibration)
    disagg_total: Dict[str, float] = {}
    presto_total: Dict[str, float] = {}
    disagg_egress: Dict[str, float] = {}
    presto_egress: Dict[str, float] = {}
    jobs_disagg: Dict[str, float] = {}
    jobs_presto: Dict[str, float] = {}
    nic = calibration.network_bandwidth

    for spec in models():
        raw = (
            calibration.encoded_bytes_per_sample(spec)
            * calibration.storage_protocol_overhead
        )
        tensors = spec.train_ready_bytes_per_sample()
        demand = gpu.node_throughput(spec, 8)

        # Disagg: raw leaves storage, tensors leave the CPU pool
        disagg_total[spec.name] = raw + tensors
        disagg_egress[spec.name] = raw
        # PreSto: only tensors leave storage; nothing else on the wire
        presto_total[spec.name] = tensors
        presto_egress[spec.name] = tensors

        jobs_disagg[spec.name] = nic / (disagg_egress[spec.name] * demand)
        jobs_presto[spec.name] = nic / (presto_egress[spec.name] * demand)

    return NetworkContentionResult(
        disagg_bytes_per_sample=disagg_total,
        presto_bytes_per_sample=presto_total,
        disagg_storage_egress=disagg_egress,
        presto_storage_egress=presto_egress,
        jobs_per_nic_disagg=jobs_disagg,
        jobs_per_nic_presto=jobs_presto,
    )
