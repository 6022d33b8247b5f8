"""Table II — FPGA resource utilization of the PreSto accelerator.

Renders per-unit LUT/REG/BRAM/URAM/DSP utilization of the default SmartSSD
configuration and checks it against the paper's synthesized numbers, plus a
feasibility check that the 2x U280 configuration fits its larger part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.hardware.fpga import (
    RESOURCE_KINDS,
    SMARTSSD_FPGA,
    U280_FPGA,
    UNIT_ORDER,
    fits,
    resource_table,
)

#: Table II verbatim (percent).
PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "Decode": {"LUT": 18.84, "REG": 8.49, "BRAM": 25.08, "URAM": 0.0, "DSP": 0.0},
    "Bucketize": {"LUT": 7.88, "REG": 4.28, "BRAM": 6.19, "URAM": 27.59, "DSP": 0.0},
    "SigridHash": {"LUT": 23.11, "REG": 12.47, "BRAM": 11.89, "URAM": 0.0, "DSP": 19.19},
    "Log": {"LUT": 4.18, "REG": 2.79, "BRAM": 4.89, "URAM": 0.0, "DSP": 10.62},
    "Total": {"LUT": 54.02, "REG": 28.03, "BRAM": 48.05, "URAM": 27.59, "DSP": 29.81},
}


@dataclass(frozen=True)
class Table2Result(ExperimentResult):
    """Measured utilization plus the U280 feasibility check."""

    utilization: Dict[str, Dict[str, float]]
    u280_fits_2x: bool

    def max_abs_error(self) -> float:
        """Largest |measured - paper| percentage point across all cells."""
        worst = 0.0
        for unit, row in PAPER_TABLE2.items():
            for kind in RESOURCE_KINDS:
                worst = max(worst, abs(self.utilization[unit][kind] - row[kind]))
        return worst

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("max cell error (pp)", 0.0, self.max_abs_error(), 1.0),
            PaperClaim("2x design fits U280", 1.0, 1.0 if self.u280_fits_2x else 0.0, 0.0),
        ]

    def rows(self) -> List[Tuple]:
        out = []
        for unit in UNIT_ORDER + ["Total"]:
            out.append(
                (unit,)
                + tuple(self.utilization[unit][kind] for kind in RESOURCE_KINDS)
            )
        return out

    def columns(self) -> List[str]:
        return ["unit"] + [f"{k} (%)" for k in RESOURCE_KINDS]

    def table_title(self) -> str:
        return (
            f"Table II: PreSto resource utilization on {SMARTSSD_FPGA.name} "
            f"@ {SMARTSSD_FPGA.clock_hz / 1e6:.0f} MHz"
        )


@register_experiment("table2", title="Table II", kind="table", order=60)
def run() -> Table2Result:
    """Regenerate Table II."""
    return Table2Result(
        utilization=resource_table(SMARTSSD_FPGA),
        u280_fits_2x=fits(U280_FPGA, lane_scale=2.0),
    )
