"""repro.api — the declarative front door for every experiment.

Five pieces:

* :class:`SystemRegistry` / :func:`register_system` — a catalog of system
  design points; user systems plug in next to the paper's six;
* :class:`Scenario` — one frozen, validated, dict-round-trippable record
  describing model x system x deployment; ``.run()`` simulates the full
  pipeline and returns a uniform :class:`RunResult`;
* :class:`Sweep` — a grid of scenarios executed serially through the
  fault-tolerant batch tier (:class:`BatchRunner`) in scenario order,
  with per-task retries, degrade mode and journaled resume;
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
  cache replays repeated invocations, and :func:`run_experiments` runs
  them serially through the same batch tier, in input order.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.registry": (
        "REGISTRY", "SystemRegistry", "available_systems", "get_system",
        "register_system",
    ),
    "repro.api.experiment": (
        "EXPERIMENT_KINDS", "EXPERIMENT_REGISTRY", "ExperimentParam",
        "ExperimentRegistry", "ExperimentResult", "ExperimentRun",
        "ExperimentSpec", "RunStore", "available_experiments",
        "get_experiment", "register_experiment", "run_experiments",
    ),
    "repro.api.preprocess": (
        "PreprocessJob", "PreprocessRunResult", "minibatch_digest",
    ),
    "repro.api.result": ("RunResult",),
    "repro.api.scenario": ("Scenario", "calibration_overrides"),
    "repro.api.sweep": ("Sweep",),
    "repro.batch": (
        "FAILURE_MODES", "OUTCOME_STATES", "BatchJournal", "BatchOutcome",
        "BatchPolicy", "BatchRunner",
    ),
    # the serve-layer job/record types and the source base: repro.serve
    # builds on the modules above (its records hold PreprocessJobs)
    "repro.serve.records": ("JobLogIndex", "JobRecord", "StageEvent"),
    "repro.serve.sources": ("JobSource",),
})

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
