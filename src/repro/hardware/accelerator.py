"""PreSto accelerator timing model (the Figure 10 microarchitecture).

The SmartSSD FPGA hosts a hardwired Decoder unit, a Bucketize-based feature
generation unit, and SigridHash/Log feature normalization units, all fed
from device DRAM with double buffering so fetch overlaps compute
(Section IV-C).  The model exposes:

* per-stage times for one mini-batch (P2P read, decode, the three transform
  ops, format conversion, output load) — the Figure 12 breakdown;
* end-to-end latency = sum of stages (+ host orchestration);
* steady-state throughput = batch / max-stage: double buffering pipelines
  consecutive mini-batches across stages, which is how one SmartSSD with a
  ~10x latency advantage over a core shows a ~45x throughput advantage
  (Fig. 11 vs Fig. 12).

The same class models the discrete-U280 variants of Figure 16 via a unit
scale factor and different ingress/egress links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.ops.counts import OpCounts


@dataclass
class AcceleratorStages:
    """Per-stage seconds for one mini-batch on one PreSto device."""

    ingress: float  # P2P (SmartSSD) or PCIe/network transfer of raw bytes
    decode: float  # hardwired columnar decoder
    bucketize: float
    sigridhash: float
    log: float
    format_conversion: float
    load: float  # ship train-ready tensors to the train manager
    host: float  # host-side orchestration (XRT + RPC), overlapped

    @property
    def extract(self) -> float:
        """The Extract step as Figure 12 reports it for PreSto: P2P transfer
        + decoding, plus the half of host orchestration that issues reads."""
        return self.ingress + self.decode + 0.5 * self.host

    @property
    def else_time(self) -> float:
        """Residual host orchestration not attributable to Extract."""
        return 0.5 * self.host

    @property
    def transform_time(self) -> float:
        """Feature generation + normalization on the FPGA units."""
        return self.bucketize + self.sigridhash + self.log

    @property
    def latency(self) -> float:
        """End-to-end seconds to produce one mini-batch (first-batch latency)."""
        return (
            self.ingress
            + self.decode
            + self.transform_time
            + self.format_conversion
            + self.load
            + self.host
        )

    @property
    def bottleneck(self) -> float:
        """Slowest pipeline stage.  The three transform units form one
        double-buffered stage; host orchestration is not a stage because the
        preprocess manager overlaps it across the batches in flight."""
        return max(
            self.ingress,
            self.decode,
            self.transform_time,
            self.format_conversion,
            self.load,
        )

    def as_dict(self) -> Dict[str, float]:
        """Figure-12 breakdown: step name -> seconds (host orchestration
        split between Extract's reads and Else, as :attr:`extract` does)."""
        return {
            "extract_read": self.ingress + self.else_time,
            "extract_decode": self.decode,
            "bucketize": self.bucketize,
            "sigridhash": self.sigridhash,
            "log": self.log,
            "format_conversion": self.format_conversion,
            "else_time": self.else_time,
            "load": self.load,
        }


class AcceleratorModel:
    """Timing model of one PreSto device (SmartSSD by default).

    ``unit_scale > 1`` models a larger FPGA (the U280 is synthesized with 2x
    the Decoder/generation/normalization units, Section VI-C).  ``ingress``
    selects how raw bytes reach the device; ``egress`` how train-ready
    tensors leave the preprocessing side.
    """

    def __init__(
        self,
        calibration: Calibration = CALIBRATION,
        unit_scale: float = 1.0,
        ingress_bw: Optional[float] = None,
    ) -> None:
        if unit_scale <= 0:
            raise ConfigurationError("unit_scale must be positive")
        self.cal = calibration
        self.unit_scale = unit_scale
        self.ingress_bw = (
            ingress_bw if ingress_bw is not None else calibration.p2p_bandwidth
        )
        self.egress_bw = (
            calibration.network_bandwidth * calibration.network_rpc_efficiency
        )
        self.host_overhead = calibration.accel_host_overhead

    # -- stage times -------------------------------------------------------

    def batch_stages(
        self, spec: ModelSpec, counts: Optional[OpCounts] = None
    ) -> AcceleratorStages:
        """Per-stage times for one mini-batch of ``spec``."""
        cal = self.cal
        if counts is None:
            counts = OpCounts.expected_for(spec)
        bytes_in = cal.encoded_bytes_per_sample(spec) * counts.rows
        bytes_out = spec.train_ready_bytes_per_sample() * counts.rows

        hash_rate = cal.accel_element_rate(cal.accel_hash_lanes) * self.unit_scale
        log_rate = cal.accel_element_rate(cal.accel_log_lanes) * self.unit_scale
        bucket_rate = (
            cal.accel_element_rate(cal.accel_bucketize_lanes) * self.unit_scale
        )
        format_rate = cal.accel_element_rate(cal.accel_format_lanes) * self.unit_scale

        return AcceleratorStages(
            ingress=bytes_in / self.ingress_bw,
            decode=bytes_in / (cal.accel_decode_bw * self.unit_scale),
            bucketize=counts.bucketize_elements / bucket_rate,
            sigridhash=counts.hash_elements / hash_rate,
            log=counts.log_elements / log_rate,
            format_conversion=counts.format_elements / format_rate,
            load=bytes_out / self.egress_bw,
            host=self.host_overhead,
        )

    # -- aggregate metrics ----------------------------------------------------

    def batch_latency(self, spec: ModelSpec) -> float:
        """End-to-end seconds to preprocess one mini-batch."""
        return self.batch_stages(spec).latency

    def device_throughput(self, spec: ModelSpec) -> float:
        """Steady-state samples/s of one device (pipeline bottleneck)."""
        counts = OpCounts.expected_for(spec)
        return counts.rows / self.batch_stages(spec, counts).bottleneck

    def op_time(self, spec: ModelSpec, op: str) -> float:
        """Seconds one device spends in one transform op per mini-batch,
        including its share of per-batch host invocation (Fig. 17)."""
        stages = self.batch_stages(spec)
        per_op = {
            "bucketize": stages.bucketize,
            "sigridhash": stages.sigridhash,
            "log": stages.log,
        }
        if op not in per_op:
            raise ConfigurationError(f"unknown transform op {op!r}")
        # each offloaded op pays one kernel invocation from the host budget
        invocation = self.host_overhead / 10.0
        return per_op[op] + invocation
