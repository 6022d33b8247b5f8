"""A100 training device model — the source of ``T``.

The train manager stress-tests the GPU with dummy mini-batches to find its
maximum sustainable training throughput ``T`` (Figure 9, step 2); this model
is that measurement.  One iteration's time is the slower of the compute
roofline and the embedding-gather memory roofline, plus per-iteration fixed
overheads and per-table kernel costs.  Throughput is then
``batch / iteration_time``, and an 8-GPU node sustains ``8 T`` (the paper's
node-level provisioning target in Figures 4 and 14).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.training.dlrm import DlrmCostModel

#: The longest training iteration a calibration may imply (~2e292 s), so
#: that no run of fewer than 2**53 batches overflows its simulated clock and
#: supply over the GPUs' demand stays finite (gpu_gather_bw=1e-298 made an
#: RM5 iteration 1.5e308 s and the headroom of a 3-batch run infinite).
MAX_ITERATION_S = sys.float_info.max / 2**53


@dataclass(frozen=True)
class IterationBreakdown:
    """Where one training iteration's time goes."""

    compute: float
    embedding: float
    kernel_overhead: float
    fixed_overhead: float

    @property
    def total(self) -> float:
        """Iteration seconds: compute overlaps gathers; overheads serialize."""
        return max(self.compute, self.embedding) + self.kernel_overhead + self.fixed_overhead


class GpuTrainingModel:
    """Max training throughput of one A100 for a Table I model."""

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration

    def iteration_breakdown(self, spec: ModelSpec) -> IterationBreakdown:
        """Per-iteration time components at the model's batch size."""
        cal = self.cal
        rows = spec.batch_size
        work = DlrmCostModel(spec).workload(cal.gpu_embedding_traffic_multiplier)
        flops_rate = cal.gpu_peak_flops * cal.gpu_flops_efficiency
        if not flops_rate > 0:  # each factor is positive: the product underflowed
            raise ConfigurationError(
                f"gpu_peak_flops x gpu_flops_efficiency ({cal.gpu_peak_flops!r} "
                f"x {cal.gpu_flops_efficiency!r}) underflows to 0 FLOP/s"
            )
        compute = rows * work.training_flops / flops_rate
        embedding = rows * work.embedding_bytes / cal.gpu_gather_bw
        kernels = spec.num_tables * cal.gpu_kernel_overhead_per_table
        return IterationBreakdown(
            compute=compute,
            embedding=embedding,
            kernel_overhead=kernels,
            fixed_overhead=cal.gpu_iteration_overhead,
        )

    def max_training_throughput(self, spec: ModelSpec) -> float:
        """``T``: samples/s one A100 sustains when never input-starved."""
        total = self.iteration_breakdown(spec).total
        if not 0.0 < total <= MAX_ITERATION_S:
            raise ConfigurationError(
                f"one {spec.name} training iteration takes {total!r} s under "
                "this calibration; the gpu_* fields must give a positive time "
                f"of at most {MAX_ITERATION_S:.3g} s"
            )
        return spec.batch_size / total

    def node_throughput(self, spec: ModelSpec, num_gpus: int = 8) -> float:
        """Aggregate demand of a multi-GPU training node (data parallel)."""
        if num_gpus <= 0:
            raise ConfigurationError("num_gpus must be positive")
        return num_gpus * self.max_training_throughput(spec)

    def utilization(
        self, spec: ModelSpec, preprocessing_throughput: float
    ) -> float:
        """GPU utilization when fed ``preprocessing_throughput`` samples/s:
        the fraction of time the GPU actually trains (Fig. 3, right axis)."""
        if preprocessing_throughput <= 0:
            return 0.0
        t_max = self.max_training_throughput(spec)
        return min(preprocessing_throughput / t_max, 1.0)
