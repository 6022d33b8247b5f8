"""Quickstart: preprocess RecSys data in storage, then run it as a Scenario.

Walks the paper's core flow on the public Criteo-style model (RM1):

1. generate raw feature data and shard it into per-mini-batch partitions
   (one columnar file each — the unit a SmartSSD stores and preprocesses);
2. preprocess one partition with the baseline CPU worker and with the
   PreSto ISP worker — functionally identical tensors, very different time;
3. declare the experiment as a `Scenario` and `.run()` it — the one front
   door that validates the config, provisions ceil(T/P) workers, simulates
   the full preprocessing-feeds-training pipeline, and returns a uniform
   `RunResult`;
4. compare design points with a `Sweep` over the system registry.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Scenario, Sweep, get_model
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.isp_worker import IspPreprocessingWorker
from repro.dataio.partition import RowPartitioner
from repro.experiments.common import format_table
from repro.features.synthetic import SyntheticTableGenerator
from repro.units import pretty_bytes, pretty_time


def main() -> None:
    spec = get_model("RM1")
    print(f"Model: {spec.name} — {spec.num_dense} dense / {spec.num_sparse} sparse "
          f"features, batch size {spec.batch_size}")

    # 1. raw data -> partitions (one mini-batch per columnar file)
    generator = SyntheticTableGenerator(spec, seed=0)
    rows = 4 * 1024
    data = generator.generate(rows)
    partitioner = RowPartitioner(spec.schema(), rows_per_partition=1024)
    partitions = partitioner.partition_all(data)
    print(f"\nPartitioned {rows} rows into {len(partitions)} columnar files "
          f"({pretty_bytes(sum(p.size for p in partitions))} total)")

    # 2. preprocess one partition both ways — identical tensors
    raw = partitions[0].file_bytes
    cpu_worker = CpuPreprocessingWorker(spec)
    isp_worker = IspPreprocessingWorker(spec)
    cpu_batch, counts = cpu_worker.preprocess_partition(raw)
    isp_batch, _ = isp_worker.preprocess_partition(raw)
    assert np.array_equal(cpu_batch.dense, isp_batch.dense)
    assert np.array_equal(cpu_batch.sparse.values, isp_batch.sparse.values)
    print(f"\nPreprocessed partition 0: dense {cpu_batch.dense.shape}, "
          f"{cpu_batch.sparse.num_keys} sparse features, "
          f"{pretty_bytes(cpu_batch.nbytes())} train-ready")
    print("CPU and in-storage pipelines produced identical tensors: OK")

    # modeled single-worker latency (full 8K batch)
    cpu_latency = cpu_worker.batch_latency()
    isp_latency = isp_worker.batch_latency()
    print(f"\nModeled per-mini-batch latency (batch {spec.batch_size}):")
    print(f"  one CPU core : {pretty_time(cpu_latency)}")
    print(f"  one SmartSSD : {pretty_time(isp_latency)} "
          f"({cpu_latency / isp_latency:.1f}x faster)")

    # 3. one declarative scenario: validated at construction, provisioned
    #    via T/P, simulated end to end
    scenario = Scenario(model="RM1", system="PreSto", num_gpus=1,
                        num_batches=200)
    result = scenario.run()
    print(f"\nScenario {scenario.label}:")
    print(f"  {result.summary()}")
    print(f"  steady-state GPU utilization: "
          f"{100 * result.steady_state_utilization:.1f}%")
    assert scenario == Scenario.from_dict(scenario.to_dict())  # config files

    # 4. a sweep across registered design points — results come back in
    #    grid order
    sweep = Sweep.grid(models="RM1", systems=("Disagg", "PreSto", "U280"),
                       num_gpus=(1,), num_batches=200)
    rows_out = [
        (
            r.scenario.system,
            r.num_workers,
            100 * r.steady_state_utilization,
            r.power_watts,
            r.capex_dollars,
        )
        for r in sweep.run()
    ]
    print()
    print(format_table(
        ["system", "workers", "steady util (%)", "power (W)", "CapEx ($)"],
        rows_out,
        title="Sweep: RM1, 1 GPU, demand-provisioned",
    ))


if __name__ == "__main__":
    main()
