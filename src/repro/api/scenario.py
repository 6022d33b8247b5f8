"""The declarative front door: one frozen record describes one experiment.

A :class:`Scenario` names a Table I model, a registered system design point,
and the deployment shape (GPUs, an explicit worker count or none for the
``ceil(T/P)`` plan, queue depth, optional calibration overrides).  Validation happens at construction, the record
round-trips through plain dicts for config files, and :meth:`Scenario.run`
executes the full Figure 9 pipeline simulation and returns a uniform
:class:`~repro.api.result.RunResult`.

Quick start::

    from repro.api import Scenario

    result = Scenario(model="RM5", system="PreSto", num_gpus=8).run()
    print(result.summary())
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError, is_int, strict_keys
from repro.features.specs import ModelSpec, get_model
from repro.hardware.calibration import (
    CALIBRATION,
    FIELD_DOMAINS,
    Calibration,
    check_field,
)
from repro.api.registry import REGISTRY
from repro.api.result import RunResult

#: overrides accepted at construction (normalized to a sorted tuple of pairs)
CalibrationOverrides = Union[
    Mapping[str, float], Tuple[Tuple[str, float], ...]
]


def calibration_overrides(calibration: Calibration) -> Dict[str, float]:
    """The fields of ``calibration`` that differ from the paper's defaults —
    the dict form a :class:`Scenario` stores."""
    return {
        name: value
        for name, value in dataclasses.asdict(calibration).items()
        if value != getattr(CALIBRATION, name)
    }


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment: model x system x deployment shape."""

    model: str
    system: str
    num_gpus: int = 8
    #: workers to launch; None provisions to demand, ``ceil(T/P)``
    num_workers: Optional[int] = None
    num_batches: int = 200
    queue_capacity: int = 16
    calibration: CalibrationOverrides = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # model: normalize to the canonical upper-case Table I name
        spec = get_model(self.model)  # raises ConfigurationError when unknown
        object.__setattr__(self, "model", spec.name)
        # system: resolve aliases/case through the registry
        object.__setattr__(self, "system", REGISTRY.canonical(self.system))

        for name in ("num_gpus", "num_batches", "queue_capacity"):
            value = getattr(self, name)
            if not is_int(value) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive int, got {value!r}")
        if self.num_workers is not None and (
            not is_int(self.num_workers) or self.num_workers <= 0
        ):
            raise ConfigurationError(
                f"num_workers must be a positive int, got {self.num_workers!r}"
            )

        object.__setattr__(
            self, "calibration", _normalize_overrides(self.calibration)
        )

    # -- construction helpers ----------------------------------------------

    @property
    def label(self) -> str:
        """Short display name, e.g. ``RM5/PreSto/8gpu``."""
        return f"{self.model}/{self.system}/{self.num_gpus}gpu"

    def spec(self) -> ModelSpec:
        """The resolved Table I model spec."""
        return get_model(self.model)

    def build_calibration(self) -> Calibration:
        """The paper calibration with this scenario's overrides applied."""
        if not self.calibration:
            return CALIBRATION  # frozen: nothing to copy
        return dataclasses.replace(CALIBRATION, **dict(self.calibration))

    def build_system(self):
        """Instantiate the named system design point."""
        return REGISTRY.create(self.system, self.spec(), self.build_calibration())

    # -- execution ----------------------------------------------------------

    def provision_plan(self):
        """The analytic T/P provisioning plan (no simulation)."""
        return self.build_system().provision_for(self.num_gpus)

    def run(self) -> RunResult:
        """Simulate the full preprocessing-feeds-training pipeline."""
        from repro.core.endtoend import EndToEndSimulation

        sim = EndToEndSimulation(
            self.spec(),
            self.system,
            num_gpus=self.num_gpus,
            calibration=self.build_calibration(),
            queue_capacity=self.queue_capacity,
        )
        # ``num_workers`` is None exactly when provisioning to demand
        stats = sim.run(self.num_batches, self.num_workers)
        demand = sim.train_manager.max_throughput
        worker_throughput = sim.worker_throughput
        supply_capacity = stats.num_workers * worker_throughput
        return RunResult(
            scenario=self,
            num_workers=stats.num_workers,
            num_batches=stats.num_batches,
            wall_time=stats.wall_time,
            training_time=stats.training_time,
            wait_time=stats.wait_time,
            first_batch_time=stats.first_batch_time,
            gpu_utilization=stats.gpu_utilization,
            steady_state_utilization=stats.steady_state_utilization,
            preprocessing_throughput=stats.preprocessing_throughput,
            training_throughput=stats.training_throughput,
            training_demand=demand,
            worker_throughput=worker_throughput,
            headroom=supply_capacity / demand if demand > 0 else float("inf"),
            power_watts=sim.system.power(stats.num_workers),
            capex_dollars=sim.system.capex(stats.num_workers),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for config files (round-trips via from_dict)."""
        return {
            "model": self.model,
            "system": self.system,
            "num_gpus": self.num_gpus,
            "num_workers": self.num_workers,
            "num_batches": self.num_batches,
            "queue_capacity": self.queue_capacity,
            "calibration": dict(self.calibration),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (strict keys)."""
        return cls(**strict_keys(cls, data, ConfigurationError, noun="scenario"))


def _normalize_overrides(overrides: Any) -> Tuple[Tuple[str, float], ...]:
    """Validate calibration overrides and freeze them as sorted pairs: each
    value must lie in its field's domain (:func:`check_field`, the check
    :class:`Calibration` construction runs)."""
    if overrides is None:
        return ()
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    try:
        pairs = [(name, value) for name, value in items]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"calibration overrides must be a mapping or (name, value) pairs, "
            f"got {overrides!r}"
        )
    for name, value in pairs:
        if name not in FIELD_DOMAINS:
            raise ConfigurationError(
                f"unknown calibration field {name!r}; see repro.hardware."
                "calibration.Calibration for the tunables"
            )
        check_field(name, value)
    return tuple(sorted(pairs))
