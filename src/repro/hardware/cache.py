"""Kernel-level CPU characterization model behind Figure 6.

Figure 6 reports, for Bucketize / SigridHash / Log on RM1 and RM5: CPU
utilization, memory-bandwidth utilization (against the node's 281.6 GB/s),
and LLC hit rate.  Those are microarchitectural quantities, so this model
works at kernel granularity (cycles and cache lines), separate from the
effective end-to-end costs in :mod:`repro.hardware.calibration`:

* every op *streams* its input/output columns (sequential misses, one per
  cache line) and keeps a small *working set* (e.g. Bucketize's bucket
  boundary array) that is LLC-resident when it fits — the paper's
  explanation for the 85% LLC hit rate and <15% bandwidth utilization;
* per-column fixed work (dispatch, materialization) dilutes small columns,
  which is why RM1 (8K-element columns) drives less bandwidth than RM5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.ops.counts import OpCounts

#: Xeon Gold 6242 node: 2 sockets x 16 cores @ 2.8 GHz, 22 MB LLC/socket,
#: 281.6 GB/s aggregate DRAM bandwidth (the figure's normalization base).
CORE_FREQ_HZ = 2.8e9
CORES_PER_NODE = 32
LLC_BYTES_PER_SOCKET = 22 * 1024 * 1024
NODE_MEM_BW = 281.6e9
CACHE_LINE = 64


@dataclass(frozen=True)
class OperatorProfile:
    """Kernel-level traits of one transform op."""

    name: str
    cycles_per_element: float  # datapath work per element
    stream_bytes_per_element: float  # input+output streaming traffic
    cache_accesses_per_element: float  # working-set probes per element
    per_column_overhead_cycles: float  # dispatch/materialization per column

    def working_set_bytes(self, spec: ModelSpec) -> float:
        """Resident bytes the op repeatedly touches."""
        raise NotImplementedError


class _BucketizeProfile(OperatorProfile):
    def __init__(self) -> None:
        super().__init__(
            name="Bucketize",
            cycles_per_element=0.0,  # derived from the search depth below
            stream_bytes_per_element=12.0,  # read fp32, write int64
            cache_accesses_per_element=0.0,  # derived from search depth
            per_column_overhead_cycles=30_000.0,
        )

    def working_set_bytes(self, spec: ModelSpec) -> float:
        return spec.bucket_size * 8.0  # the boundary array

    def search_depth(self, spec: ModelSpec) -> float:
        return math.ceil(math.log2(spec.bucket_size + 1))

    def kernel_cycles(self, spec: ModelSpec) -> float:
        # ~5 cycles per search level: compare + branchy pointer chase
        return 10.0 + 5.0 * self.search_depth(spec)

    def cache_accesses(self, spec: ModelSpec) -> float:
        return self.search_depth(spec)


class _SigridHashProfile(OperatorProfile):
    def __init__(self) -> None:
        super().__init__(
            name="SigridHash",
            cycles_per_element=36.0,  # three 64-bit multiplies + shifts + mod
            stream_bytes_per_element=16.0,  # read int64, write int64
            cache_accesses_per_element=1.0,  # seed/constant table
            per_column_overhead_cycles=30_000.0,
        )

    def working_set_bytes(self, spec: ModelSpec) -> float:
        return 4096.0  # constants + jagged offset scratch


class _LogProfile(OperatorProfile):
    def __init__(self) -> None:
        super().__init__(
            name="Log",
            cycles_per_element=18.0,  # log1p polynomial, partly vectorized
            stream_bytes_per_element=8.0,  # read fp32, write fp32
            cache_accesses_per_element=1.0,
            per_column_overhead_cycles=30_000.0,
        )

    def working_set_bytes(self, spec: ModelSpec) -> float:
        return 2048.0


OPERATOR_PROFILES: Dict[str, OperatorProfile] = {
    "bucketize": _BucketizeProfile(),
    "sigridhash": _SigridHashProfile(),
    "log": _LogProfile(),
}


@dataclass(frozen=True)
class UtilizationSample:
    """One bar group of Figure 6."""

    op: str
    model: str
    cpu_utilization: float  # fraction of core issue capacity used
    memory_bw_utilization: float  # fraction of 281.6 GB/s
    llc_hit_rate: float  # fraction of cache accesses hitting on-chip


class CacheModel:
    """Derive Figure 6's utilization metrics for one (op, model) pair."""

    def _elements_per_column(self, op: str, spec: ModelSpec) -> float:
        counts = OpCounts.expected_for(spec)
        if op == "bucketize":
            columns = max(spec.num_generated_sparse, 1)
            return counts.bucketize_elements / columns
        if op == "sigridhash":
            columns = max(spec.num_sparse, 1)
            return counts.hash_elements / columns
        columns = max(spec.num_dense, 1)
        return counts.log_elements / columns

    def sample(self, op: str, spec: ModelSpec) -> UtilizationSample:
        """Figure 6 metrics for one op on one model."""
        if op not in OPERATOR_PROFILES:
            raise ConfigurationError(f"unknown op {op!r}")
        profile = OPERATOR_PROFILES[op]
        elements = self._elements_per_column(op, spec)

        if op == "bucketize":
            kernel_cycles = profile.kernel_cycles(spec)  # type: ignore[attr-defined]
            probes = profile.cache_accesses(spec)  # type: ignore[attr-defined]
        else:
            kernel_cycles = profile.cycles_per_element
            probes = profile.cache_accesses_per_element

        # effective cycles include the per-column dispatch overhead
        total_cycles = elements * kernel_cycles + profile.per_column_overhead_cycles
        cycles_per_element = total_cycles / elements

        # CPU utilization: datapath cycles dominate; dispatch stalls shave it
        cpu_util = min(
            (elements * kernel_cycles) / total_cycles * 0.99 + 0.04, 1.0
        )

        # memory bandwidth: streaming bytes over the effective element time
        bytes_per_s_per_core = (
            profile.stream_bytes_per_element / (cycles_per_element / CORE_FREQ_HZ)
        )
        node_bw = bytes_per_s_per_core * CORES_PER_NODE
        mem_util = min(node_bw / NODE_MEM_BW, 1.0)

        # LLC hit rate: working-set probes hit when resident; streaming
        # accesses hit for every element sharing a cache line with the last.
        ws = profile.working_set_bytes(spec)
        resident = ws * CORES_PER_NODE / 2 <= LLC_BYTES_PER_SOCKET
        ws_hit = 0.97 if resident else 0.35
        elem_bytes = profile.stream_bytes_per_element
        stream_hit = max(1.0 - elem_bytes / CACHE_LINE, 0.0)
        stream_accesses = 2.0  # one read + one write access per element
        total_accesses = probes + stream_accesses
        hit_rate = (probes * ws_hit + stream_accesses * stream_hit) / total_accesses

        return UtilizationSample(
            op=profile.name,
            model=spec.name,
            cpu_utilization=cpu_util,
            memory_bw_utilization=mem_util,
            llc_hit_rate=hit_rate,
        )
