"""repro.api — the declarative front door for every experiment.

Five pieces:

* :class:`SystemRegistry` / :func:`register_system` — a catalog of system
  design points; user systems plug in next to the paper's six;
* :class:`Scenario` — one frozen, validated, dict-round-trippable record
  describing model x system x deployment; ``.run()`` simulates the full
  pipeline and returns a uniform :class:`RunResult`;
* :class:`Sweep` — a grid of scenarios executed serially or through the
  fault-tolerant batch tier (:class:`BatchRunner`) with deterministic
  result ordering, per-task retries/timeouts, and journaled resume;
* :class:`PreprocessJob` — the data-plane scenario: one declarative
  sharded preprocessing run through :class:`repro.exec.ShardExecutor`,
  with a content digest proving parallel == serial output;
* the streaming-service surface — :class:`JobRecord` / :class:`StageEvent`
  lifecycle records and the :class:`JobSource` base a user source
  subclasses to feed ``repro serve`` (the service itself lives in
  :mod:`repro.serve`);
* :class:`ExperimentRegistry` / :func:`register_experiment` /
  :class:`ExperimentRun` / :class:`RunStore` — the paper-experiment
  catalog: every figure/table/ablation module registers its runner, runs
  are frozen dict-round-trippable records, results follow one protocol
  (``columns``/``rows``/``claims``/``render``/``to_dict``), an on-disk
  cache replays repeated invocations, and :func:`run_experiments` fans
  out across a process pool with deterministic ordering.
"""

from repro.api.registry import (
    REGISTRY,
    SystemRegistry,
    available_systems,
    get_system,
    register_system,
)
from repro.api.experiment import (
    EXPERIMENT_KINDS,
    EXPERIMENT_REGISTRY,
    ExperimentParam,
    ExperimentRegistry,
    ExperimentResult,
    ExperimentRun,
    ExperimentSpec,
    RunStore,
    available_experiments,
    get_experiment,
    register_experiment,
    run_experiments,
)
from repro.api.preprocess import (
    PreprocessJob,
    PreprocessRunResult,
    minibatch_digest,
)
from repro.api.result import RunResult
from repro.api.scenario import PROVISION_MODES, Scenario, calibration_overrides
from repro.api.sweep import Sweep
from repro.batch import (
    FAILURE_MODES,
    OUTCOME_STATES,
    BatchJournal,
    BatchOutcome,
    BatchPolicy,
    BatchRunner,
)

# the serve-layer job/record types and the source base are part of the API
# surface, but repro.serve builds on the modules above (its records hold
# PreprocessJobs), so they re-export lazily to keep the import acyclic
_SERVE_EXPORTS = {
    "JobLogIndex": "repro.serve.records",
    "JobRecord": "repro.serve.records",
    "StageEvent": "repro.serve.records",
    "JobSource": "repro.serve.sources",
}


def __getattr__(name):
    if name in _SERVE_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_SERVE_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SERVE_EXPORTS))

__all__ = [
    "EXPERIMENT_KINDS",
    "EXPERIMENT_REGISTRY",
    "ExperimentParam",
    "ExperimentRegistry",
    "ExperimentResult",
    "ExperimentRun",
    "ExperimentSpec",
    "RunStore",
    "available_experiments",
    "get_experiment",
    "register_experiment",
    "run_experiments",
    "REGISTRY",
    "SystemRegistry",
    "available_systems",
    "get_system",
    "register_system",
    "RunResult",
    "PROVISION_MODES",
    "Scenario",
    "calibration_overrides",
    "Sweep",
    "PreprocessJob",
    "PreprocessRunResult",
    "minibatch_digest",
    "BatchJournal",
    "BatchOutcome",
    "BatchPolicy",
    "BatchRunner",
    "FAILURE_MODES",
    "OUTCOME_STATES",
    "JobLogIndex",
    "JobRecord",
    "StageEvent",
    "JobSource",
]
