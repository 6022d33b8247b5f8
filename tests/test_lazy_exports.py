"""Package re-exports resolve on first use to the objects eager imports bound.

Every package ``__init__`` under ``repro`` names its exports in a
``repro.lazy.lazy_exports`` table.  :data:`EAGER` states the same surface
as ``from source import names`` lists would bind it: the test holds each
package to it name for name (``__all__``, ``dir()`` and object identity),
and holds ``import <package>`` to running none of its sources.  Each check
runs in a fresh interpreter, since what is already imported is the point.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: package -> source module -> the names it binds from there (space
#: separated); a source equal to the package itself binds its submodules
EAGER = {
    "repro": {
        "repro.features.specs": (
            "DEFAULT_BATCH_SIZE MODEL_NAMES RECSYS_MODELS ModelSpec "
            "all_models get_model"
        ),
        "repro.features.minibatch": "KeyedJaggedTensor MiniBatch",
        "repro.features.synthetic": (
            "SyntheticTableGenerator generate_raw_table"
        ),
        "repro.ops.pipeline": "OpCounts PreprocessingPipeline",
        "repro.hardware.calibration": "CALIBRATION Calibration",
        "repro.core.systems": (
            "A100PoolSystem CoLocatedCpuSystem DisaggCpuSystem "
            "PreprocessingSystem PreStoSystem PreStoU280System "
            "U280PoolSystem"
        ),
        "repro.core.cpu_worker": "CpuPreprocessingWorker",
        "repro.core.isp_worker": "IspPreprocessingWorker",
        "repro.core.endtoend": "EndToEndSimulation",
        "repro.core.provision": "ProvisioningPlan provision",
        "repro.api": (
            "EXPERIMENT_REGISTRY REGISTRY ExperimentResult ExperimentRun "
            "PreprocessJob PreprocessRunResult RunResult RunStore Scenario "
            "Sweep SystemRegistry available_experiments available_systems "
            "get_experiment get_system register_experiment register_system "
            "run_experiments"
        ),
        "repro.exec": "ShardExecutor",
    },
    "repro.analysis": {
        "repro.analysis.cost": "CostBreakdown cost_efficiency opex",
        "repro.analysis.energy": "energy_efficiency",
    },
    "repro.api": {
        "repro.api.registry": (
            "REGISTRY SystemRegistry available_systems get_system "
            "register_system"
        ),
        "repro.api.experiment": (
            "EXPERIMENT_KINDS EXPERIMENT_REGISTRY ExperimentParam "
            "ExperimentRegistry ExperimentResult ExperimentRun "
            "ExperimentSpec RunStore available_experiments get_experiment "
            "register_experiment run_experiments"
        ),
        "repro.api.preprocess": (
            "PreprocessJob PreprocessRunResult minibatch_digest"
        ),
        "repro.api.result": "RunResult",
        "repro.api.scenario": "Scenario calibration_overrides",
        "repro.api.sweep": "Sweep",
        "repro.batch": (
            "FAILURE_MODES OUTCOME_STATES BatchJournal BatchOutcome "
            "BatchPolicy BatchRunner"
        ),
        "repro.serve.records": "JobLogIndex JobRecord StageEvent",
        "repro.serve.sources": "JobSource",
    },
    "repro.batch": {
        "repro.batch.journal": "BatchJournal BatchJournalState content_key",
        "repro.batch.outcomes": "OUTCOME_STATES BatchOutcome",
        "repro.batch.policy": "FAILURE_MODES BatchPolicy",
        "repro.batch.runner": "BatchRunner",
    },
    "repro.core": {
        "repro.core.worker": "BREAKDOWN_STEPS PreprocessingWorker",
        "repro.core.cpu_worker": "CpuPreprocessingWorker",
        "repro.core.isp_worker": "IspPreprocessingWorker",
        "repro.core.accel_worker": "GpuPoolWorker U280Worker",
        "repro.core.provision": "ProvisioningPlan provision",
        "repro.core.systems": (
            "PreprocessingSystem DisaggCpuSystem CoLocatedCpuSystem "
            "PreStoSystem A100PoolSystem U280PoolSystem PreStoU280System"
        ),
        "repro.core.manager": "PreprocessManager",
        "repro.core.endtoend": "EndToEndSimulation PipelineStats",
    },
    "repro.dataio": {
        "repro.dataio.schema": (
            "ColumnKind DenseFeature SparseFeature LabelColumn TableSchema"
        ),
        "repro.dataio.encoding": "Encoding encode_column decode_column",
        "repro.dataio.columnar": (
            "ColumnarFileWriter ColumnarFileReader ColumnChunk FileFooter "
            "write_table read_columns"
        ),
        "repro.dataio.partition": "RowPartitioner Partition",
    },
    "repro.exec": {
        "repro.exec.executor": "ShardExecutor ShardResult ShardRunStats",
    },
    "repro.experiments": {
        "repro.experiments": (
            "abl_batch_size abl_double_buffering abl_lane_sweep abl_multijob "
            "abl_network_contention abl_network_sweep abl_row_vs_columnar "
            "fleet_resilience fleet_tco fig3_colocated fig4_cores_required "
            "fig5_breakdown fig6_utilization table1_models table2_resources "
            "fig11_throughput fig12_latency fig13_network fig14_provisioning "
            "fig15_efficiency fig16_alternatives fig17_sensitivity"
        ),
    },
    "repro.faults": {
        "repro.errors": "ChaosError FaultError",
        "repro.faults.injector": (
            "DEFAULT_HANG_S FaultInjector active_injector fault_point "
            "fault_stage install installed uninstall"
        ),
        "repro.faults.plan": (
            "FAULT_ACTIONS FAULT_POINTS FaultPlan FaultRule"
        ),
    },
    "repro.features": {
        "repro.features.specs": "ModelSpec MLPSpec RECSYS_MODELS get_model",
        "repro.features.synthetic": (
            "SyntheticTableGenerator generate_raw_table"
        ),
        "repro.features.criteo": "load_criteo_tsv dump_criteo_tsv",
        "repro.features.minibatch": "KeyedJaggedTensor MiniBatch",
    },
    "repro.fleet": {
        "repro.fleet.autoscale": "AUTOSCALERS Autoscaler PoolSnapshot",
        "repro.fleet.policy": "POLICIES PlacementPolicy",
        "repro.fleet.result": (
            "FleetJobRecord FleetResult PoolSample PoolUsage"
        ),
        "repro.fleet.simulator": (
            "BURST_CLONES FleetSimulator PoolSpec default_pools run_fleet"
        ),
        "repro.fleet.trace": (
            "DAY_S TRACE_KINDS JobArrival Trace generate_trace"
        ),
    },
    "repro.hardware": {
        "repro.hardware.calibration": "CALIBRATION Calibration",
        "repro.hardware.cpu": "CpuCoreModel CpuStepLatencies",
        "repro.hardware.accelerator": "AcceleratorModel AcceleratorStages",
        "repro.hardware.fpga": (
            "FpgaPart UnitResources PRESTO_UNITS resource_table"
        ),
        "repro.hardware.gpu_preproc": "GpuPreprocModel",
        "repro.hardware.cache": "CacheModel OperatorProfile",
    },
    "repro.network": {
        "repro.network.rpc": "RpcAccounting RpcBatchCosts",
    },
    "repro.ops": {
        "repro.ops.bucketize": "Bucketizer bucketize search_bucket_id",
        "repro.ops.sigridhash": (
            "SigridHasher hash64 sigrid_hash sigrid_hash_scalar"
        ),
        "repro.ops.lognorm": "log_normalize",
        "repro.ops.fill": "fill_dense fill_sparse",
        "repro.ops.pipeline": "PreprocessingPipeline OpCounts",
    },
    "repro.serve": {
        "repro.serve.queue": "QUEUE_POLICIES BoundedJobQueue",
        "repro.serve.pool": "WorkerPool",
        "repro.serve.records": (
            "JOB_STATES STAGE_STATUSES TERMINAL_STATES JobLogIndex JobRecord "
            "StageEvent"
        ),
        "repro.serve.sources": (
            "DirectoryJobSource JobSource SourceWatcher SyntheticJobSource"
        ),
        "repro.serve.service": "PIPELINE_STAGES PreprocessService",
        "repro.serve.protocol": (
            "PROTOCOL_VERSION ServiceClient ServiceServer read_endpoint"
        ),
    },
    "repro.sim": {
        "repro.sim.engine": "Engine Process Timeout",
    },
    "repro.training": {
        "repro.training.dlrm": "DlrmCostModel DlrmWorkload",
        "repro.training.gpu": "GpuTrainingModel",
        "repro.training.trainer": "TrainManager",
    },
}


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter with ``EAGER`` in scope; it passes
    if the interpreter exits 0."""
    prelude = f"import json, sys\nEAGER = json.loads({json.dumps(json.dumps(EAGER))})\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_a_package_runs_none_of_its_sources():
    run_fresh("""
        import importlib
        for package in EAGER:
            importlib.import_module(package)
        loaded = {name for name in sys.modules if name.startswith("repro")}
        assert loaded == set(EAGER) | {"repro.lazy"}, sorted(loaded - set(EAGER))
    """)


def test_every_export_is_the_object_the_eager_imports_bound():
    # every module is loaded first, so that a submodule sharing an export's
    # name (repro.ops.bucketize, repro.core.provision) has had its chance
    # to rebind the package attribute before any export is read
    run_fresh("""
        import importlib, pkgutil, types
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for package, table in EAGER.items():
            module = importlib.import_module(package)
            names = set()
            for source, listed in table.items():
                for name in listed.split():
                    names.add(name)
                    if source == package:
                        expected = importlib.import_module(f"{package}.{name}")
                    else:
                        expected = getattr(importlib.import_module(source), name)
                    assert getattr(module, name) is expected, (package, name)
            assert sorted(module.__all__) == sorted(names), package
            submodules = {
                name for name, value in vars(module).items()
                if isinstance(value, types.ModuleType) and not name.startswith("_")
            }
            public = {name for name in dir(module) if not name.startswith("_")}
            assert public == names | submodules, (package, public ^ (names | submodules))
    """)


def test_a_name_shared_with_its_submodule_stays_the_export():
    # both orders: the submodule loaded before the name is read, and after
    run_fresh("""
        import importlib
        for package, name in (("repro.ops", "bucketize"), ("repro.core", "provision")):
            submodule = importlib.import_module(f"{package}.{name}")
            assert callable(getattr(importlib.import_module(package), name))
            assert getattr(sys.modules[package], name) is getattr(submodule, name)
    """)
    run_fresh("""
        from repro import provision
        from repro.ops import bucketize
        import repro.core.provision, repro.ops.bucketize
        assert repro.core.provision is provision
        assert sys.modules["repro.core.provision"].provision is provision
        assert repro.ops.bucketize is bucketize
        assert sys.modules["repro.ops.bucketize"].bucketize is bucketize
    """)


def test_a_submodule_outside_the_table_imports_on_first_read():
    run_fresh("""
        from repro import fleet
        assert fleet.trace is sys.modules["repro.fleet.trace"]
        assert fleet.trace.generate_trace is fleet.generate_trace
        from repro.experiments import fig11_throughput, report
        assert fig11_throughput is sys.modules["repro.experiments.fig11_throughput"]
        assert report is sys.modules["repro.experiments.report"]
        import repro.fleet
        assert not hasattr(repro.fleet, "no_such_module")
        try:
            repro.fleet.no_such_module
        except AttributeError as exc:
            assert type(exc) is AttributeError, type(exc)
        else:
            raise AssertionError("repro.fleet.no_such_module resolved")
    """)
