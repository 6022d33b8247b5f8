"""repro — a reproduction of PreSto (ISCA 2024).

PreSto is an in-storage data preprocessing system for training
recommendation models (Lee, Kim, Rhu; ISCA 2024).  This package provides:

* a functional RecSys preprocessing library (columnar storage, the
  Bucketize / SigridHash / Log operators, train-ready mini-batch formats);
* calibrated performance models for CPU-centric preprocessing, the PreSto
  SmartSSD accelerator, GPU/FPGA alternatives, networks, and DLRM training;
* a discrete-event simulator coupling preprocessing to training;
* the declarative :mod:`repro.api` layer — ``Scenario``, ``Sweep``,
  ``PreprocessJob``, and a system registry — the single front door for
  constructing and running anything in the repo;
* a shard-parallel execution engine (:mod:`repro.exec`) that runs the real
  Extract -> Transform data plane across a process pool with
  serial-identical output;
* an experiment harness regenerating every table and figure of the paper's
  evaluation, driven by a registry (:data:`repro.api.EXPERIMENT_REGISTRY`)
  with declarative :class:`~repro.api.ExperimentRun` records, an on-disk
  result cache, and a journaled, resumable report (see
  :mod:`repro.experiments.report` and ``docs/experiments.md``).

Quick start — one scenario::

    from repro import Scenario

    result = Scenario(model="RM5", system="PreSto", num_gpus=8).run()
    print(result.summary())  # 9 SmartSSDs keep 8 A100s busy

A sweep across design points::

    from repro import Sweep

    sweep = Sweep.grid(models=("RM1", "RM5"), systems=("Disagg", "PreSto"),
                       num_gpus=(1, 8))
    for result in sweep.run():  # serial, in scenario order
        print(result.summary())

Registering your own design point makes it available to scenarios, sweeps,
the CLI, and the experiment harness at once::

    from repro import PreStoSystem, register_system

    @register_system("PreSto-Gen2")
    class PreStoGen2System(PreStoSystem):
        ...

Scenarios round-trip through plain dicts (``to_dict``/``from_dict``) for
config files, and every run returns a uniform :class:`~repro.api.RunResult`
(utilization, throughputs, provisioning, power, CapEx).
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.features.specs": (
        "DEFAULT_BATCH_SIZE", "MODEL_NAMES", "RECSYS_MODELS", "ModelSpec",
        "all_models", "get_model",
    ),
    "repro.features.minibatch": ("KeyedJaggedTensor", "MiniBatch"),
    "repro.features.synthetic": (
        "SyntheticTableGenerator", "generate_raw_table",
    ),
    "repro.ops.counts": ("OpCounts",),
    "repro.ops.pipeline": ("PreprocessingPipeline",),
    "repro.hardware.calibration": ("CALIBRATION", "Calibration"),
    "repro.core.systems": (
        "A100PoolSystem", "CoLocatedCpuSystem", "DisaggCpuSystem",
        "PreprocessingSystem", "PreStoSystem", "PreStoU280System",
        "U280PoolSystem",
    ),
    "repro.core.cpu_worker": ("CpuPreprocessingWorker",),
    "repro.core.isp_worker": ("IspPreprocessingWorker",),
    "repro.core.endtoend": ("EndToEndSimulation",),
    "repro.core.provision": ("ProvisioningPlan", "provision"),
    "repro.api": (
        "EXPERIMENT_REGISTRY", "REGISTRY", "ExperimentResult", "ExperimentRun",
        "PreprocessJob", "PreprocessRunResult", "RunResult", "RunStore",
        "Scenario", "Sweep", "SystemRegistry", "available_experiments",
        "available_systems", "get_experiment", "get_system",
        "register_experiment", "register_system", "run_experiments",
    ),
    "repro.exec": ("ShardExecutor",),
})

__version__ = "0.3.0"

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "MODEL_NAMES",
    "RECSYS_MODELS",
    "ModelSpec",
    "all_models",
    "get_model",
    "KeyedJaggedTensor",
    "MiniBatch",
    "SyntheticTableGenerator",
    "generate_raw_table",
    "OpCounts",
    "PreprocessingPipeline",
    "CALIBRATION",
    "Calibration",
    "A100PoolSystem",
    "CoLocatedCpuSystem",
    "DisaggCpuSystem",
    "PreprocessingSystem",
    "PreStoSystem",
    "PreStoU280System",
    "U280PoolSystem",
    "CpuPreprocessingWorker",
    "IspPreprocessingWorker",
    "EndToEndSimulation",
    "ProvisioningPlan",
    "provision",
    "REGISTRY",
    "PreprocessJob",
    "PreprocessRunResult",
    "RunResult",
    "Scenario",
    "ShardExecutor",
    "Sweep",
    "SystemRegistry",
    "available_systems",
    "get_system",
    "register_system",
    "EXPERIMENT_REGISTRY",
    "ExperimentResult",
    "ExperimentRun",
    "RunStore",
    "available_experiments",
    "get_experiment",
    "register_experiment",
    "run_experiments",
]
