"""GPU-based data preprocessing model (NVTabular on an A100; Fig. 16).

Section VI-C: the GPU "performs best when the target application requires
massive compute and memory accesses", but RecSys preprocessing launches many
small per-column kernels whose launch cost the GPU cannot amortize, leading
to significant underutilization.  The model therefore charges:

* one kernel invocation per (column, op) — launch + sync + dataframe
  dispatch overhead dominates;
* elementwise compute at a high streaming rate once launched;
* PCIe transfer of raw bytes in and train-ready bytes out of the device;
* network ingress of raw data and egress of mini-batches: the GPU sits in a
  disaggregated pool (Fig. 7(b)), like any remote preprocessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.ops.counts import OpCounts


@dataclass(frozen=True)
class GpuPreprocStages:
    """Per-stage seconds for one mini-batch on a GPU preprocessor."""

    network_in: float
    pcie_in: float
    kernels: float
    compute: float
    pcie_out: float
    network_out: float

    @property
    def latency(self) -> float:
        """End-to-end seconds for one mini-batch."""
        return (
            self.network_in
            + self.pcie_in
            + self.kernels
            + self.compute
            + self.pcie_out
            + self.network_out
        )

    @property
    def bottleneck(self) -> float:
        """Slowest stage; batches pipeline across stages."""
        return max(
            self.network_in,
            self.pcie_in,
            self.kernels + self.compute,  # kernels serialize on one stream
            self.pcie_out,
            self.network_out,
        )


class GpuPreprocModel:
    """One A100 running the preprocessing pipeline via NVTabular-style ops."""

    #: kernels per column for each op category: fill+op (+materialize)
    KERNELS_PER_DENSE_COLUMN = 3  # fill, log, gather/materialize
    KERNELS_PER_SPARSE_COLUMN = 3  # fill, hash, list re-offset
    KERNELS_PER_GENERATED_COLUMN = 2  # bucketize, materialize
    FORMAT_KERNELS = 8  # final interleave/concat kernels

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration

    def kernel_count(self, spec: ModelSpec) -> int:
        """CUDA kernel launches per mini-batch."""
        return (
            spec.num_dense * self.KERNELS_PER_DENSE_COLUMN
            + spec.num_sparse * self.KERNELS_PER_SPARSE_COLUMN
            + spec.num_generated_sparse * self.KERNELS_PER_GENERATED_COLUMN
            + self.FORMAT_KERNELS
        )

    def batch_stages(
        self, spec: ModelSpec, counts: Optional[OpCounts] = None
    ) -> GpuPreprocStages:
        """Per-stage times for one mini-batch."""
        cal = self.cal
        if counts is None:
            counts = OpCounts.expected_for(spec)
        bytes_in = cal.encoded_bytes_per_sample(spec) * counts.rows
        bytes_out = spec.train_ready_bytes_per_sample() * counts.rows

        read_bw = cal.network_bandwidth * cal.network_read_efficiency
        rpc_bw = cal.network_bandwidth * cal.network_rpc_efficiency
        elements = counts.transform_elements + counts.format_elements
        return GpuPreprocStages(
            network_in=bytes_in / read_bw,
            pcie_in=bytes_in / cal.gpu_preproc_pcie_bw,
            kernels=self.kernel_count(spec) * cal.gpu_preproc_kernel_overhead,
            compute=elements / cal.gpu_preproc_element_rate,
            pcie_out=bytes_out / cal.gpu_preproc_pcie_bw,
            network_out=bytes_out / rpc_bw,
        )

    def device_throughput(self, spec: ModelSpec) -> float:
        """Steady-state samples/s of one GPU preprocessor."""
        counts = OpCounts.expected_for(spec)
        return counts.rows / self.batch_stages(spec, counts).bottleneck

    def batch_latency(self, spec: ModelSpec) -> float:
        """End-to-end seconds per mini-batch."""
        return self.batch_stages(spec).latency
