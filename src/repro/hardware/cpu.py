"""CPU-centric preprocessing worker cost model.

One CPU core runs one preprocessing worker that executes the full ETL
sequence serially for one mini-batch (the TorchRec worker-per-core software
architecture, Section II-D).  This model maps one mini-batch's
:class:`~repro.ops.counts.OpCounts` to per-step latencies — the breakdown
of Figures 5 and 12 — and to a per-core throughput, which the paper's
analytical model scales linearly across cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.ops.counts import OpCounts


@dataclass
class CpuStepLatencies:
    """Per-step seconds to preprocess one mini-batch on one core.

    Field order matches the paper's Figure 5 legend.
    """

    extract_read: float
    extract_decode: float
    bucketize: float
    sigridhash: float
    log: float
    format_conversion: float
    else_time: float
    load: float

    @property
    def total(self) -> float:
        """End-to-end seconds per mini-batch."""
        return sum(getattr(self, f.name) for f in fields(self))

    @property
    def transform_time(self) -> float:
        """Feature generation + normalization time (the offloaded ops)."""
        return self.bucketize + self.sigridhash + self.log

    @property
    def transform_share(self) -> float:
        """Fraction of total time in Bucketize + SigridHash + Log."""
        return self.transform_time / self.total

    def as_dict(self) -> Dict[str, float]:
        """Step name -> seconds, in Figure 5 legend order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CpuCoreModel:
    """Latency/throughput model of one preprocessing worker on one core."""

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration

    # -- per-step latencies -------------------------------------------------

    def batch_latency(
        self, spec: ModelSpec, counts: Optional[OpCounts] = None
    ) -> CpuStepLatencies:
        """Per-step latency of one mini-batch on one core.

        Extract(Read) fetches the raw partition over the network from the
        storage node, co-located designs included (the paper's Fig. 3 setup
        fetches remotely too).
        """
        cal = self.cal
        if counts is None:
            counts = OpCounts.expected_for(spec)
        bytes_in = cal.encoded_bytes_per_sample(spec) * counts.rows
        bytes_out = spec.train_ready_bytes_per_sample() * counts.rows

        read_bw = cal.network_bandwidth * cal.network_read_efficiency
        extract_read = (
            cal.rpc_request_overhead
            + bytes_in * cal.storage_protocol_overhead / read_bw
        )

        extract_decode = bytes_in * cal.cpu_decode_per_byte
        per_element_bucketize = (
            cal.cpu_bucketize_base
            + cal.cpu_bucketize_per_step * counts.search_steps_per_element
        )
        bucketize = counts.bucketize_elements * per_element_bucketize
        sigridhash = counts.hash_elements * cal.cpu_hash_per_element
        log = counts.log_elements * cal.cpu_log_per_element
        format_conversion = counts.format_elements * cal.cpu_format_per_element
        else_time = (
            counts.fill_elements * cal.cpu_fill_per_element + cal.cpu_batch_overhead
        )
        rpc_bw = cal.network_bandwidth * cal.network_rpc_efficiency
        load = bytes_out / cal.cpu_load_copy_bw + bytes_out / rpc_bw

        return CpuStepLatencies(
            extract_read=extract_read,
            extract_decode=extract_decode,
            bucketize=bucketize,
            sigridhash=sigridhash,
            log=log,
            format_conversion=format_conversion,
            else_time=else_time,
            load=load,
        )

    # -- throughput ---------------------------------------------------------------

    def core_throughput(self, spec: ModelSpec) -> float:
        """Steady-state samples/s of one dedicated (disaggregated) core."""
        counts = OpCounts.expected_for(spec)
        latency = self.batch_latency(spec, counts).total
        return counts.rows / latency

    def disagg_throughput(self, spec: ModelSpec, num_cores: int) -> float:
        """Aggregate samples/s of ``num_cores`` disaggregated workers.

        Disaggregated scaling is linear (Section V-B: preprocessing is
        embarrassingly parallel and throughput-bound).
        """
        if num_cores < 0:
            raise ConfigurationError("num_cores must be non-negative")
        return num_cores * self.core_throughput(spec)

    def colocated_throughput(self, spec: ModelSpec, num_cores: int) -> float:
        """Aggregate samples/s of ``num_cores`` workers sharing the training
        node (Fig. 3): de-rated by co-location interference and mildly
        sub-linear in the worker count."""
        if num_cores <= 0:
            return 0.0
        single = self.core_throughput(spec) * self.cal.colocation_factor
        exponent = self.cal.colocation_scaling_exponent
        try:
            throughput = single * num_cores**exponent
        except OverflowError:
            throughput = math.inf
        if throughput == math.inf:
            raise ConfigurationError(
                f"colocation_scaling_exponent={exponent!r} scales {num_cores} "
                "co-located workers past any finite throughput"
            )
        return throughput

    def cores_required(self, spec: ModelSpec, target_throughput: float) -> int:
        """Disaggregated cores needed to sustain ``target_throughput``."""
        if target_throughput <= 0:
            return 0
        return math.ceil(target_throughput / self.core_throughput(spec))
