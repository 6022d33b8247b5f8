"""Ablation — double buffering (pipelining) in the PreSto device.

Section IV-C's second design optimization: "each processing element employs
double-buffering to overlap the next feature value's data fetch operation
with the current feature value's generation and normalization".  At device
scale this is what lets consecutive mini-batches overlap across the
P2P/decode/transform/format/load stages.

The ablation disables that overlap (throughput = batch / end-to-end latency,
like a serial worker) and re-derives Figure 11/14: without pipelining a
single SmartSSD no longer beats Disagg(32), and the ISP allocation per
8-GPU node roughly quadruples — i.e. the optimization carries the headline
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.systems import DisaggCpuSystem, PreStoSystem
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    models,
    register_experiment,
)
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.training.gpu import GpuTrainingModel


@dataclass(frozen=True)
class DoubleBufferingResult(ExperimentResult):
    """Pipelined vs serial device throughput and provisioning."""

    pipelined_throughput: Dict[str, float]
    serial_throughput: Dict[str, float]
    pipelined_units: Dict[str, int]
    serial_units: Dict[str, int]
    disagg32_throughput: Dict[str, float]

    def gain(self, model: str) -> float:
        """Throughput gain from pipelining for one model."""
        return self.pipelined_throughput[model] / self.serial_throughput[model]

    @property
    def mean_gain(self) -> float:
        values = [self.gain(m) for m in self.pipelined_throughput]
        return sum(values) / len(values)

    def claims(self) -> List[PaperClaim]:
        serial_beats_32 = sum(
            1
            for m in self.serial_throughput
            if self.serial_throughput[m] > self.disagg32_throughput[m]
        )
        return [
            PaperClaim("pipelining gain (x, mean)", 4.0, self.mean_gain, 0.35),
            PaperClaim(
                "models where a *serial* SmartSSD still beats Disagg(32)",
                0.0,
                float(serial_beats_32),
                1.0,
            ),
            PaperClaim(
                "max ISP units without pipelining",
                9.0 * 4,
                float(max(self.serial_units.values())),
                0.35,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (
                m,
                self.pipelined_throughput[m] / 1e3,
                self.serial_throughput[m] / 1e3,
                self.gain(m),
                self.pipelined_units[m],
                self.serial_units[m],
            )
            for m in self.pipelined_throughput
        ]

    def columns(self) -> List[str]:
        return [
            "model",
            "pipelined k-samples/s",
            "serial k-samples/s",
            "gain (x)",
            "units (pipelined)",
            "units (serial)",
        ]

    def table_title(self) -> str:
        return "Ablation (double buffering): device throughput and 8-GPU provisioning"


@register_experiment("abl-pipeline", title="Ablation: double buffering", kind="ablation", order=210)
def run(calibration: Calibration = CALIBRATION) -> DoubleBufferingResult:
    """Run the double-buffering ablation."""
    gpu = GpuTrainingModel(calibration)
    pipelined_tput: Dict[str, float] = {}
    serial_tput: Dict[str, float] = {}
    pipelined_units: Dict[str, int] = {}
    serial_units: Dict[str, int] = {}
    disagg32: Dict[str, float] = {}
    for spec in models():
        system = PreStoSystem(spec, calibration)
        worker = system.make_worker()
        demand = gpu.node_throughput(spec, 8)

        pipelined = worker.throughput()
        serial = spec.batch_size / worker.batch_latency()
        pipelined_tput[spec.name] = pipelined
        serial_tput[spec.name] = serial
        pipelined_units[spec.name] = math.ceil(demand / pipelined)
        serial_units[spec.name] = math.ceil(demand / serial)
        disagg32[spec.name] = DisaggCpuSystem(spec, calibration).aggregate_throughput(32)
    return DoubleBufferingResult(
        pipelined_throughput=pipelined_tput,
        serial_throughput=serial_tput,
        pipelined_units=pipelined_units,
        serial_units=serial_units,
        disagg32_throughput=disagg32,
    )
