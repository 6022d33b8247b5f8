"""Trace-driven multi-tenant fleet simulation (ROADMAP item 1).

The paper's TCO argument is fleet-scale: "hundreds to thousands of
production RecSys models ... numerous concurrent training jobs"
(Section III-A).  This package simulates that fleet end to end —
seeded arrival traces (:mod:`repro.fleet.trace`), a cluster scheduler
with a table of placement policies (:mod:`repro.fleet.policy`,
:mod:`repro.fleet.simulator`), autoscaling with capacity-hour cost
accounting (:mod:`repro.fleet.autoscale`), and seed-replayable failure
injection through :mod:`repro.faults` — producing frozen, deterministic
:class:`~repro.fleet.result.FleetResult` records that feed the
``fleet_tco`` and ``fleet_resilience`` experiments, ``repro report``
and ``repro fleet run``.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fleet.autoscale": ("AUTOSCALERS", "Autoscaler", "PoolSnapshot"),
    "repro.fleet.policy": ("POLICIES", "PlacementPolicy"),
    "repro.fleet.result": (
        "FleetJobRecord", "FleetResult", "PoolSample", "PoolUsage",
    ),
    "repro.fleet.simulator": (
        "BURST_CLONES", "FleetSimulator", "PoolSpec", "default_pools",
        "run_fleet",
    ),
    "repro.fleet.trace": (
        "DAY_S", "TRACE_KINDS", "JobArrival", "Trace", "generate_trace",
    ),
})

__all__ = [
    "AUTOSCALERS",
    "Autoscaler",
    "BURST_CLONES",
    "DAY_S",
    "FleetJobRecord",
    "FleetResult",
    "FleetSimulator",
    "JobArrival",
    "POLICIES",
    "PlacementPolicy",
    "PoolSample",
    "PoolSnapshot",
    "PoolSpec",
    "PoolUsage",
    "TRACE_KINDS",
    "Trace",
    "default_pools",
    "generate_trace",
    "run_fleet",
]
