"""Register a user-defined system design point — no core changes needed.

The Scenario API's registry makes design points pluggable: decorate a
`PreprocessingSystem` subclass with `@register_system(...)` and it becomes a
first-class citizen of scenarios, sweeps, provisioning, and the CLI, right
next to the paper's six built-ins.

Here we sketch a hypothetical "PreSto-Gen2" SmartSSD — twice the FPGA
clock, a second hardwired Parquet decoder, PCIe 4.0 P2P, and leaner host
orchestration — then sweep it against the paper's designs on the
production-scale models.

Run:  python examples/custom_system.py
"""

import dataclasses

from repro import (
    PreStoSystem,
    Scenario,
    Sweep,
    available_systems,
    register_system,
)
from repro.core.isp_worker import IspPreprocessingWorker
from repro.experiments.common import format_table


@register_system("PreSto-Gen2")
class PreStoGen2System(PreStoSystem):
    """A next-generation SmartSSD: 2x clock and decoders, PCIe 4.0 P2P."""

    name = "PreSto-Gen2"

    def _gen2_calibration(self):
        return dataclasses.replace(
            self.cal,
            accelerator_clock_hz=2.0 * self.cal.accelerator_clock_hz,
            accel_decode_bw=2.0 * self.cal.accel_decode_bw,
            p2p_bandwidth=2.0 * self.cal.p2p_bandwidth,
            accel_host_overhead=0.5 * self.cal.accel_host_overhead,
        )

    def make_worker(self):
        return IspPreprocessingWorker(self.spec, calibration=self._gen2_calibration())


def main() -> None:
    print("Registered systems:", ", ".join(available_systems()))
    assert "PreSto-Gen2" in available_systems()

    # the custom design is constructible by name, like any built-in
    plan = Scenario(model="RM5", system="PreSto-Gen2", num_gpus=8).provision_plan()
    print(f"\nRM5 on 8 GPUs: {plan.num_workers} Gen2 units "
          f"(P = {plan.worker_throughput:,.0f} samples/s, "
          f"headroom {plan.headroom:.2f}x)")

    # ... and sweepable against the paper's designs
    sweep = Sweep.grid(
        models=("RM4", "RM5"),
        systems=("PreSto", "PreSto-Gen2"),
        num_gpus=(8,),
        num_batches=300,
    )
    rows = [
        (
            r.scenario.model,
            r.scenario.system,
            r.num_workers,
            100 * r.steady_state_utilization,
            r.preprocessing_throughput,
            r.power_watts,
        )
        for r in sweep.run()
    ]
    print()
    print(format_table(
        ["model", "system", "units", "steady util (%)", "supply (samples/s)",
         "power (W)"],
        rows,
        title="Gen2 SmartSSD vs the paper's PreSto (8-GPU nodes)",
    ))
    print("\nFewer units do the same job: the registry turned a ~20-line "
          "subclass into a fully sweepable design point.")


if __name__ == "__main__":
    main()
