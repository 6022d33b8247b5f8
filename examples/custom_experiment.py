"""Register a user-defined experiment — no harness changes needed.

The experiment registry makes the evaluation surface pluggable the same way
the system registry makes design points pluggable: decorate a runner with
``@register_experiment(...)`` and it becomes a first-class citizen of
``repro list``, ``repro run`` (with ``--set`` parameter overrides),
``repro report`` (fresh, cached, and journaled), and
``repro export`` — right next to the paper's twenty experiments.

Here we add a "GPU budget sweep": how many PreSto SmartSSDs does each
Table I model need as the training node grows from 1 to 16 A100s, and does
the supply headroom stay flat?  The result class inherits
:class:`repro.api.ExperimentResult`, so ``columns()``/``rows()``/
``claims()``/``table_title()`` make it exportable, scoreboard-visible,
rendered (the inherited ``render()`` prints the titled table and the claim
lines; override it for any other layout), and losslessly cacheable
(``to_dict``/``from_dict`` come for free).

Run:  python examples/custom_experiment.py

To use it from the ``repro`` CLI (a fresh process), point the registry's
plugin hook at this module:

    REPRO_EXPERIMENTS=examples.custom_experiment python -m repro.cli \
        run gpu-budget --set model=RM1
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import CALIBRATION, Calibration, Scenario
from repro.api import ExperimentResult, ExperimentRun, register_experiment
from repro.experiments.common import PaperClaim

GPU_BUDGETS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class GpuBudgetSweepResult(ExperimentResult):
    """SmartSSDs required per (model, GPU budget)."""

    model: str
    gpu_budgets: Tuple[int, ...]
    smartssds: Dict[int, int]  # gpus -> devices
    headroom: Dict[int, float]  # gpus -> supply/demand

    def columns(self) -> List[str]:
        return ["GPUs", "SmartSSDs", "headroom (x)"]

    def rows(self) -> List[Tuple]:
        return [
            (gpus, self.smartssds[gpus], self.headroom[gpus])
            for gpus in self.gpu_budgets
        ]

    def claims(self) -> List[PaperClaim]:
        ordered = [self.headroom[g] for g in self.gpu_budgets]
        monotone = all(b <= a + 1e-9 for a, b in zip(ordered, ordered[1:]))
        return [
            PaperClaim(
                "headroom stays >= 1 (supply meets demand)",
                1.0,
                1.0 if min(ordered) >= 1.0 else 0.0,
                0.0,
            ),
            # ceil(T/P) quantization amortizes as the budget grows, so the
            # over-provisioning headroom shrinks monotonically toward 1
            PaperClaim(
                "headroom shrinks monotonically with budget",
                1.0,
                1.0 if monotone else 0.0,
                0.0,
            ),
        ]

    def table_title(self) -> str:
        return f"GPU budget sweep ({self.model}): PreSto provisioning"


@register_experiment(
    "gpu-budget", title="Sweep: GPU budget", kind="ablation", order=300
)
def run(
    model: str = "RM5", calibration: Calibration = CALIBRATION
) -> GpuBudgetSweepResult:
    """Provision PreSto for one model across GPU budgets."""
    from repro.api.scenario import calibration_overrides

    smartssds: Dict[int, int] = {}
    headroom: Dict[int, float] = {}
    for gpus in GPU_BUDGETS:
        plan = Scenario(
            model=model,
            system="PreSto",
            num_gpus=gpus,
            calibration=calibration_overrides(calibration),
        ).provision_plan()
        smartssds[gpus] = plan.num_workers
        headroom[gpus] = plan.headroom
    return GpuBudgetSweepResult(
        model=model,
        gpu_budgets=GPU_BUDGETS,
        smartssds=smartssds,
        headroom=headroom,
    )


def main() -> None:
    # the decorated runner is an ordinary function...
    print(run().render())
    print()

    # ...but registration makes it a declarative, parameterized, cacheable
    # run record like every built-in experiment:
    result = ExperimentRun("gpu-budget", params={"model": "RM1"}).run()
    print(result.render())
    print()

    # and it shows up in the registry next to the paper's experiments
    # (`repro list` / `repro report` would now include it too):
    from repro.api import EXPERIMENT_REGISTRY

    print("registered:", ", ".join(EXPERIMENT_REGISTRY.ids("ablation")))


if __name__ == "__main__":
    main()
