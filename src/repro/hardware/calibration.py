"""Calibrated model constants — the single source of every tunable.

The paper evaluates a real PoC prototype (Xeon Gold 6242 preprocessing
nodes, one SmartSSD, an A100 training node on 10 GbE) and scales it out with
an analytical model (Section V-B).  This module plays the role of those PoC
*measurements*: each constant below is anchored to a number the paper
reports, and the derived figures are expected to land on the paper's shapes:

* Fig. 3  — 15x core scaling, <20% GPU utilization at 16 co-located cores;
* Fig. 4  — 367 CPU cores to feed 8 A100s on RM5;
* Fig. 5  — Bucketize+SigridHash+Log ~= 79% of CPU preprocessing time,
            RM5 ~14x RM1 end-to-end;
* Fig. 12 — 9.6x average / 11.6x max PreSto speedup, Extract ~40.8% of
            PreSto's time;
* Fig. 11 — one SmartSSD beats Disagg(32), Disagg(64) modestly ahead;
* Fig. 14 — at most 9 ISP units per 8-GPU node;
* Fig. 15 — 11.3x energy-efficiency, 4.3x cost-efficiency on average;
* Fig. 16 — ~2.5x over A100 preprocessing, ~5% behind a disaggregated U280.

CPU per-element costs are *effective* costs of the TorchArrow/Velox pipeline
(including framework dispatch and materialization overhead), not hand-tuned
SIMD kernels — that gap is precisely the paper's motivation for
domain-specific acceleration.  Kernel-level microarchitecture numbers used
only by the Figure 6 characterization live in :mod:`repro.hardware.cache`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.units import GBPS, GB_PER_S, MHZ

#: domain -> whether a finite number lies in it.  Every calibration field
#: names its domain beside its default: rates, sizes, powers and prices are
#: positive, costs in seconds are non-negative, efficiencies are fractions,
#: and counts (cores per node, PE lanes) are positive whole numbers; a
#: count may arrive as a float (``--set`` parses every value as one).
DOMAINS = {
    "positive": lambda value: value > 0,
    "non-negative": lambda value: value >= 0,
    "a fraction in (0, 1]": lambda value: 0 < value <= 1,
    "a positive integer": lambda value: value > 0 and value == int(value),
}


def _positive(default: float) -> Any:
    return field(default=default, metadata={"domain": "positive"})


def _non_negative(default: float) -> Any:
    return field(default=default, metadata={"domain": "non-negative"})


def _fraction(default: float) -> Any:
    return field(default=default, metadata={"domain": "a fraction in (0, 1]"})


def _count(default: int) -> Any:
    return field(default=default, metadata={"domain": "a positive integer"})


@dataclass(frozen=True)
class Calibration:
    """All tunable constants of the performance models.

    Construction checks every field against its stated domain
    (:func:`check_field`), so no model divides by a zero bandwidth.
    """

    # --- CPU-centric preprocessing (per core, Xeon Gold 6242 class) -------
    #: effective Log normalization cost per dense element (seconds)
    cpu_log_per_element: float = _non_negative(140e-9)
    #: effective SigridHash cost per sparse id (seconds)
    cpu_hash_per_element: float = _non_negative(190e-9)
    #: Bucketize: fixed per-element cost plus per-binary-search-step cost
    cpu_bucketize_base: float = _non_negative(60e-9)
    cpu_bucketize_per_step: float = _non_negative(70e-9)
    #: columnar decode cost per encoded byte (~200 MB/s effective)
    cpu_decode_per_byte: float = _non_negative(5e-9)
    #: format conversion cost per packed element
    cpu_format_per_element: float = _non_negative(10e-9)
    #: missing-value fill cost per touched element (part of "Else")
    cpu_fill_per_element: float = _non_negative(6e-9)
    #: fixed per-mini-batch worker overhead: batch setup, dispatch ("Else")
    cpu_batch_overhead: float = _non_negative(15e-3)
    #: memcpy of the train-ready tensors into the RPC buffer (bytes/s)
    cpu_load_copy_bw: float = _positive(2.0 * GB_PER_S)

    # --- network (10 GbE, PyTorch RPC) -------------------------------------
    #: raw link bandwidth
    network_bandwidth: float = _positive(10.0 * GBPS)
    #: achievable fraction for bulk raw-data reads (sequential, streamed)
    network_read_efficiency: float = _fraction(1.0)
    #: achievable fraction for tensor RPC responses (serialization framing)
    network_rpc_efficiency: float = _fraction(0.72)
    #: fixed latency per RPC round trip
    rpc_request_overhead: float = _non_negative(0.5e-3)
    #: read amplification of remote raw fetches: row-group framing, footer
    #: metadata, and label/offset chunks fetched alongside the wanted columns
    storage_protocol_overhead: float = _positive(1.35)

    # --- storage devices -----------------------------------------------------
    #: SmartSSD P2P (SSD -> FPGA DRAM over the internal PCIe switch)
    p2p_bandwidth: float = _positive(2.0 * GB_PER_S)

    # --- PreSto accelerator (SmartSSD FPGA @ 223 MHz, Table II) -----------
    accelerator_clock_hz: float = _positive(223.0 * MHZ)
    #: hardwired Parquet decoder aggregate throughput (bytes/s); decoding is
    #: the least parallelizable stage (Section VI-A)
    accel_decode_bw: float = _positive(0.94 * GB_PER_S)
    #: parallel processing elements per unit (elements/cycle aggregate)
    accel_hash_lanes: int = _count(2)
    accel_log_lanes: int = _count(1)
    accel_bucketize_lanes: int = _count(1)
    accel_format_lanes: int = _count(1)
    #: host-side orchestration per batch (XRT kernel management + RPC); half
    #: is accounted to Extract (issuing P2P reads), half to Else
    accel_host_overhead: float = _non_negative(25e-3)

    # --- co-located preprocessing (Fig. 3) ---------------------------------
    #: throughput de-rating when preprocessing shares the training node
    colocation_factor: float = _fraction(0.55)
    #: multi-worker scaling exponent: eff(n) = n**exp (15x at 16 cores)
    colocation_scaling_exponent: float = _positive(0.977)

    # --- A100 training model (per GPU) ---------------------------------------
    gpu_peak_flops: float = _positive(312e12)  # fp16 tensor core peak
    gpu_flops_efficiency: float = _fraction(0.35)
    #: effective HBM bandwidth for random embedding rows
    gpu_gather_bw: float = _positive(317e9)
    gpu_iteration_overhead: float = _non_negative(8e-3)  # framework/optimizer host work
    #: fwd+bwd+optimizer kernels
    gpu_kernel_overhead_per_table: float = _non_negative(80e-6)
    #: optimizer traffic multiplier on embedding bytes (grad + momentum)
    gpu_embedding_traffic_multiplier: float = _positive(4.0)

    # --- alternative preprocessing accelerators (Fig. 16) -----------------
    #: NVTabular on A100: per-kernel overhead dominates the many tiny
    #: per-column kernels (Section VI-C: "challenging for the GPU to
    #: amortize the cost of CUDA kernel launches")
    gpu_preproc_kernel_overhead: float = _non_negative(85e-6)
    gpu_preproc_element_rate: float = _positive(100e9)  # elements/s once launched
    gpu_preproc_pcie_bw: float = _positive(20e9)
    #: U280 accelerator = PreSto units scaled by its larger fabric
    u280_unit_scale: float = _positive(2.0)
    u280_pcie_bw: float = _positive(6.0 * GB_PER_S)

    # --- power (watts) -------------------------------------------------------
    #: measured draw of one SmartSSD during preprocessing (TDP is 25 W)
    smartssd_active_power: float = _positive(16.0)
    smartssd_tdp: float = _positive(25.0)
    #: per-core share of a loaded 2-socket Xeon 6242 node (350 W / 32 cores)
    cpu_node_power: float = _positive(350.0)
    cpu_cores_per_node: int = _count(32)
    #: storage-host orchestration share attributed to PreSto
    presto_host_power: float = _positive(150.0)
    a100_preproc_active_power: float = _positive(100.0)  # underutilized during preproc
    u280_active_power: float = _positive(46.0)

    # --- cost (US dollars; Section V-C) --------------------------------------
    cpu_node_price: float = _positive(12_000.0)  # Dell R640-class 2-socket node
    smartssd_price: float = _positive(2_500.0)
    presto_host_share_price: float = _positive(3_000.0)
    a100_price: float = _positive(10_000.0)
    u280_price: float = _positive(7_500.0)
    electricity_per_kwh: float = _non_negative(0.0733)
    amortization_years: float = _positive(3.0)

    # --- dataset byte model ---------------------------------------------------
    #: encoded bytes per dense value (float32 PLAIN)
    bytes_per_dense_value: float = _positive(4.0)
    #: encoded bytes per sparse id (zig-zag varint of ~40-bit ids)
    bytes_per_sparse_id: float = _positive(6.0)
    #: encoded bytes per sparse length entry (varint of small counts)
    bytes_per_length_entry: float = _positive(1.2)
    #: file framing overhead (headers, CRCs, footer) as a fraction
    file_format_overhead: float = _non_negative(0.02)

    def __post_init__(self) -> None:
        for name in FIELD_DOMAINS:
            check_field(name, getattr(self, name))

    # -- derived helpers ------------------------------------------------------

    def encoded_bytes_per_sample(self, spec: ModelSpec) -> float:
        """Encoded bytes one sample contributes to the columns a pipeline
        reads (validated against the real writer by tests)."""
        dense = self.bytes_per_dense_value * spec.num_dense
        ids = self.bytes_per_sparse_id * spec.sparse_elements_per_sample()
        lengths = self.bytes_per_length_entry * spec.num_sparse
        return (dense + ids + lengths) * (1.0 + self.file_format_overhead)

    def encoded_batch_bytes(self, spec: ModelSpec) -> float:
        """Encoded bytes of one mini-batch partition."""
        return self.encoded_bytes_per_sample(spec) * spec.batch_size

    def train_ready_batch_bytes(self, spec: ModelSpec) -> float:
        """Train-ready tensor bytes of one mini-batch (the Load payload)."""
        return spec.train_ready_bytes_per_sample() * spec.batch_size

    def accel_element_rate(self, lanes: int) -> float:
        """Aggregate elements/s of a unit with ``lanes`` pipelined PEs."""
        return lanes * self.accelerator_clock_hz

    @property
    def cpu_core_power(self) -> float:
        """Per-core share of a preprocessing node's power draw."""
        return self.cpu_node_power / self.cpu_cores_per_node

    @property
    def cpu_core_price(self) -> float:
        """Per-core share of a preprocessing node's price."""
        return self.cpu_node_price / self.cpu_cores_per_node

    @property
    def amortization_hours(self) -> float:
        """Duration used by the cost-efficiency metric (3 years)."""
        return self.amortization_years * 365.0 * 24.0


#: field name -> its domain (a key of :data:`DOMAINS`)
FIELD_DOMAINS = {spec.name: spec.metadata["domain"] for spec in fields(Calibration)}


def check_field(name: str, value: Any) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a finite real
    number in calibration field ``name``'s domain."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(
            f"calibration field {name!r} must be a number, got {value!r}"
        )
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the largest float
        finite = False
    if not finite:
        raise ConfigurationError(
            f"calibration field {name!r} must be finite, got {value!r}"
        )
    domain = FIELD_DOMAINS[name]
    if not DOMAINS[domain](value):
        raise ConfigurationError(
            f"calibration field {name!r} must be {domain}, got {value!r}"
        )


#: The default, paper-anchored calibration used by every experiment.
CALIBRATION = Calibration()
