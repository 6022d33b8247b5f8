"""Scenario sweeps with deterministic result ordering.

A :class:`Sweep` is an ordered collection of :class:`~repro.api.scenario.Scenario`
records.  :meth:`Sweep.run` executes them one after another on the serial
path of the fault-tolerant :class:`~repro.batch.runner.BatchRunner` and
returns results in scenario order.  A scenario costs about 0.2 ms, less
than forking one worker process, so sweeps do not fan out.  A raising
scenario becomes a per-scenario outcome instead of a sweep-wide crash:
a ``degrade`` :class:`~repro.batch.policy.BatchPolicy` returns
:class:`~repro.batch.outcomes.BatchOutcome` records for every scenario,
and attaching a :class:`~repro.batch.journal.BatchJournal` makes the
sweep resumable (``resume=True`` skips scenarios the journal already
completed).
"""

from __future__ import annotations

import itertools
from typing import (
    Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.batch import (
    BatchJournal, BatchOutcome, BatchPolicy, BatchRunner, content_key,
)
from repro.errors import ConfigurationError
from repro.api.result import RunResult
from repro.api.scenario import Scenario


def _scenario_label(index: int, scenario: Scenario) -> str:
    return (
        f"{scenario.model}/{scenario.system}/gpus={scenario.num_gpus}"
    )


def _as_tuple(value: Union[object, Iterable[object]]) -> Tuple[object, ...]:
    if isinstance(value, (str, int, float)) or value is None:
        return (value,)
    return tuple(value)


class Sweep:
    """An ordered grid of scenarios, run in order."""

    def __init__(self, scenarios: Iterable[Scenario]) -> None:
        self.scenarios: Tuple[Scenario, ...] = tuple(scenarios)
        if not self.scenarios:
            raise ConfigurationError("a sweep needs at least one scenario")
        for scenario in self.scenarios:
            if not isinstance(scenario, Scenario):
                raise ConfigurationError(
                    f"sweeps take Scenario records, got {scenario!r}"
                )

    @classmethod
    def grid(
        cls,
        models: Union[str, Sequence[str]],
        systems: Union[str, Sequence[str]],
        num_gpus: Union[int, Sequence[int]] = (8,),
        **common: object,
    ) -> "Sweep":
        """Cartesian product (models x systems x num_gpus), models outermost.

        ``common`` keyword arguments are applied to every scenario
        (``num_batches``, ``queue_capacity``, ``calibration``, ...).
        """
        scenarios = [
            Scenario(model=model, system=system, num_gpus=gpus, **common)
            for model, system, gpus in itertools.product(
                _as_tuple(models), _as_tuple(systems), _as_tuple(num_gpus)
            )
        ]
        return cls(scenarios)

    # -- execution ----------------------------------------------------------

    def run(
        self,
        *,
        policy: Optional[BatchPolicy] = None,
        journal: Optional[BatchJournal] = None,
        resume: bool = False,
    ) -> Union[List[RunResult], List[BatchOutcome]]:
        """Execute every scenario, in scenario order.

        ``strict`` mode (the default) returns plain :class:`RunResult`
        rows and raises a typed error on the first non-ok scenario —
        already-completed scenarios are still journaled first.
        ``degrade`` mode returns one :class:`BatchOutcome` per scenario
        (``outcome.result`` holds the :class:`RunResult` when ok).  With a
        ``journal``, ``resume=True`` replays it and skips scenarios whose
        results it already holds.
        """
        if policy is None:
            policy = BatchPolicy()
        runner = BatchRunner(
            Scenario.run,
            policy=policy,
            journal=journal,
            task_key=content_key,
            task_label=_scenario_label,
            encode_result=lambda index, result: result.to_dict(),
            decode_result=lambda index, payload: RunResult.from_dict(payload),
        )
        outcomes = runner.run(self.scenarios, parallel=False, resume=resume)
        if policy.failure_mode == "degrade":
            return outcomes
        return [outcome.result for outcome in outcomes]

    # -- container conveniences ---------------------------------------------

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]
