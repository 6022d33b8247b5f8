"""Ablation — processing-element (lane) count of the transform units.

Section IV-C sizes each unit "to right-size its compute units for data
preprocessing under a tighter power budget".  This sweep scales every
transform unit's lane count together and reports (a) device throughput and
(b) whether the design still fits the SmartSSD's FPGA — locating the knee
that justifies the paper's small default configuration: past the point
where decode/ingress dominates, more lanes buy nothing but fabric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.hardware.fpga import SMARTSSD_FPGA, fits

LANE_SCALES = (1, 2, 4, 8)


@dataclass(frozen=True)
class LaneSweepResult(ExperimentResult):
    """Per-scale throughput / transform time / fit."""

    model: str
    scales: Tuple[int, ...]
    throughput: Tuple[float, ...]
    transform_ms: Tuple[float, ...]
    fits_smartssd: Tuple[bool, ...]

    @property
    def knee_scale(self) -> int:
        """Smallest scale within 2% of the best achievable throughput."""
        best = max(self.throughput)
        for scale, tput in zip(self.scales, self.throughput):
            if tput >= 0.98 * best:
                return scale
        return self.scales[-1]

    def claims(self) -> List[PaperClaim]:
        gain_2x = self.throughput[1] / self.throughput[0]
        return [
            PaperClaim("throughput knee at small scale", 1.0, float(self.knee_scale), 1.0),
            PaperClaim(
                "2x lanes buys little end-to-end (decode-bound)", 1.03, gain_2x, 0.10
            ),
            PaperClaim(
                "default design fits the SmartSSD FPGA",
                1.0,
                1.0 if self.fits_smartssd[0] else 0.0,
                0.0,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (
                f"{scale}x",
                tput / 1e3,
                ms,
                "yes" if ok else "NO",
            )
            for scale, tput, ms, ok in zip(
                self.scales, self.throughput, self.transform_ms, self.fits_smartssd
            )
        ]

    def columns(self) -> List[str]:
        return ["lane scale", "k-samples/s", "transform (ms)", "fits SmartSSD"]

    def table_title(self) -> str:
        return (
            f"Ablation (unit lane sweep, {self.model}): knee at "
            f"{self.knee_scale}x — transform stops mattering once "
            f"decode/ingress dominate"
        )


@register_experiment("abl-lanes", title="Ablation: unit lane sweep", kind="ablation", order=220)
def run(model: str = "RM5", calibration: Calibration = CALIBRATION) -> LaneSweepResult:
    """Sweep the transform-unit lane scale.

    Only the transform units scale; the decoder and links stay fixed — the
    question is precisely whether more transform lanes help.
    """
    spec = get_model(model)
    throughput: List[float] = []
    transform_ms: List[float] = []
    fit_flags: List[bool] = []
    for scale in LANE_SCALES:
        scaled = dataclasses.replace(
            calibration,
            accel_hash_lanes=calibration.accel_hash_lanes * scale,
            accel_log_lanes=calibration.accel_log_lanes * scale,
            accel_bucketize_lanes=calibration.accel_bucketize_lanes * scale,
        )
        accel = AcceleratorModel(scaled)
        stages = accel.batch_stages(spec)
        throughput.append(accel.device_throughput(spec))
        transform_ms.append(1e3 * stages.transform_time)
        fit_flags.append(fits(SMARTSSD_FPGA, lane_scale=scale))
    return LaneSweepResult(
        model=spec.name,
        scales=LANE_SCALES,
        throughput=tuple(throughput),
        transform_ms=tuple(transform_ms),
        fits_smartssd=tuple(fit_flags),
    )
