"""Figure 14 — ISP units vs CPU cores to sustain an 8xA100 node.

For every model: how many PreSto SmartSSDs and how many disaggregated CPU
cores close the preprocessing/training gap.

Paper claims: at most 9 ISP units (225 W worst case at 25 W/card) vs up to
367 cores (12 CPU server nodes).
"""

from __future__ import annotations

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

NUM_GPUS = 8


@dataclass(frozen=True)
class Fig14Result(ExperimentResult):
    """Provisioned resources per model."""

    isp_units: Dict[str, int]
    cpu_cores: Dict[str, int]
    cpu_nodes: Dict[str, int]
    worst_case_isp_power: Dict[str, float]

    @property
    def max_units(self) -> int:
        """Largest ISP allocation (paper: 9)."""
        return max(self.isp_units.values())

    @property
    def max_cores(self) -> int:
        """Largest CPU allocation (paper: 367)."""
        return max(self.cpu_cores.values())

    def claims(self) -> List[PaperClaim]:
        return [
            PaperClaim("max ISP units", 9, self.max_units, 0.15),
            PaperClaim("max CPU cores", 367, self.max_cores, 0.10),
            PaperClaim(
                "worst-case ISP power at max units (W)",
                225.0,
                max(self.worst_case_isp_power.values()),
                0.15,
            ),
            PaperClaim(
                "CPU nodes at max cores",
                12,
                max(self.cpu_nodes.values()),
                0.10,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (
                model,
                self.isp_units[model],
                self.cpu_cores[model],
                self.cpu_nodes[model],
                self.worst_case_isp_power[model],
            )
            for model in self.isp_units
        ]

    def columns(self) -> List[str]:
        return ["model", "ISP units", "CPU cores", "CPU nodes", "ISP worst-case W"]

    def table_title(self) -> str:
        return "Figure 14: resources to sustain an 8xA100 training node"


@register_experiment("fig14", title="Figure 14", kind="figure", order=100)
def run(calibration: Calibration = CALIBRATION) -> Fig14Result:
    """Regenerate Figure 14."""
    units: Dict[str, int] = {}
    cores: Dict[str, int] = {}
    nodes: Dict[str, int] = {}
    isp_power: Dict[str, float] = {}
    for spec in models():
        presto = PreStoSystem(spec, calibration)
        disagg = DisaggCpuSystem(spec, calibration)
        presto_plan = presto.provision_for(NUM_GPUS)
        cpu_plan = disagg.provision_for(NUM_GPUS)
        units[spec.name] = presto_plan.num_workers
        cores[spec.name] = cpu_plan.num_workers
        nodes[spec.name] = disagg.nodes(cpu_plan.num_workers)
        isp_power[spec.name] = presto.power(presto_plan.num_workers, worst_case=True)
    return Fig14Result(
        isp_units=units,
        cpu_cores=cores,
        cpu_nodes=nodes,
        worst_case_isp_power=isp_power,
    )
