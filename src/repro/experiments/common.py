"""Shared plumbing for the experiment modules.

Experiments construct systems through the :mod:`repro.api` registry (one
front door for built-in and user-registered design points alike) and, when
they take a custom :class:`Calibration`, translate it to the override form
:class:`~repro.api.scenario.Scenario` stores via :func:`scenario_for`.

Each experiment module registers its ``run()`` function with the experiment
registry via :func:`register_experiment` and returns an
:class:`ExperimentResult` subclass — both re-exported here, with the
:func:`format_table` its ``render`` prints through, so the modules have a
single import site for the harness plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.api.experiment import ExperimentResult, format_table, register_experiment
from repro.api.registry import REGISTRY
from repro.api.scenario import Scenario, calibration_overrides
from repro.features.specs import ModelSpec, all_models
from repro.hardware.calibration import CALIBRATION, Calibration

__all__ = [
    "ExperimentResult",
    "PaperClaim",
    "build_system",
    "format_table",
    "models",
    "register_experiment",
    "scenario_for",
]


def models() -> List[ModelSpec]:
    """The five Table I models in evaluation order."""
    return all_models()


def build_system(
    name: str, spec: ModelSpec, calibration: Calibration = CALIBRATION
):
    """One registered system design point by name (registry front door)."""
    return REGISTRY.create(name, spec, calibration)


def scenario_for(
    model: str,
    system: str,
    calibration: Calibration = CALIBRATION,
    **kwargs,
) -> Scenario:
    """A validated Scenario from an experiment's (model, system, calibration)
    arguments — the Calibration instance becomes Scenario overrides."""
    return Scenario(
        model=model,
        system=system,
        calibration=calibration_overrides(calibration),
        **kwargs,
    )


@dataclass(frozen=True)
class PaperClaim:
    """One quantitative claim from the paper, for paper-vs-measured rows."""

    description: str
    paper_value: float
    measured_value: float
    tolerance: float = 0.35  # relative tolerance for "shape holds"

    @property
    def relative_error(self) -> float:
        """|measured - paper| / paper."""
        if self.paper_value == 0:
            return abs(self.measured_value)
        return abs(self.measured_value - self.paper_value) / abs(self.paper_value)

    @property
    def holds(self) -> bool:
        """Whether the measured value is within tolerance of the paper's."""
        return self.relative_error <= self.tolerance

    def render(self) -> str:
        status = "OK " if self.holds else "OFF"
        return (
            f"  [{status}] {self.description}: paper {self.paper_value:g}, "
            f"measured {self.measured_value:.3g} "
            f"(err {100 * self.relative_error:.0f}%)"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for ``repro report --json`` and the CI scoreboard."""
        return {
            "description": self.description,
            "paper_value": self.paper_value,
            "measured_value": self.measured_value,
            "tolerance": self.tolerance,
            "relative_error": self.relative_error,
            "holds": self.holds,
        }
