"""Trace-driven multi-tenant fleet simulation (ROADMAP item 1).

The paper's TCO argument is fleet-scale: "hundreds to thousands of
production RecSys models ... numerous concurrent training jobs"
(Section III-A).  This package simulates that fleet end to end —
seeded arrival traces (:mod:`repro.fleet.trace`), a cluster scheduler
with pluggable placement policies (:mod:`repro.fleet.policy`,
:mod:`repro.fleet.simulator`), autoscaling with capacity-hour cost
accounting (:mod:`repro.fleet.autoscale`), and seed-replayable failure
injection through :mod:`repro.faults` — producing frozen, deterministic
:class:`~repro.fleet.result.FleetResult` records that feed the
``fleet_tco`` and ``fleet_resilience`` experiments, ``repro report``
and ``repro fleet run``.
"""

from repro.fleet.autoscale import (
    AUTOSCALE_KINDS,
    AUTOSCALER_REGISTRY,
    Autoscaler,
    PoolSnapshot,
    available_autoscalers,
    get_autoscaler,
    register_autoscaler,
)
from repro.fleet.policy import (
    POLICY_REGISTRY,
    PlacementPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.fleet.result import (
    FleetJobRecord,
    FleetResult,
    PoolSample,
    PoolUsage,
)
from repro.fleet.simulator import (
    BURST_CLONES,
    FleetSimulator,
    PoolSpec,
    default_pools,
    run_fleet,
)
from repro.fleet.trace import (
    DAY_S,
    TRACE_KINDS,
    JobArrival,
    Trace,
    generate_trace,
)

__all__ = [
    "AUTOSCALE_KINDS",
    "AUTOSCALER_REGISTRY",
    "Autoscaler",
    "BURST_CLONES",
    "DAY_S",
    "FleetJobRecord",
    "FleetResult",
    "FleetSimulator",
    "JobArrival",
    "POLICY_REGISTRY",
    "PlacementPolicy",
    "PoolSample",
    "PoolSnapshot",
    "PoolSpec",
    "PoolUsage",
    "TRACE_KINDS",
    "Trace",
    "available_autoscalers",
    "available_policies",
    "default_pools",
    "generate_trace",
    "get_autoscaler",
    "get_policy",
    "register_autoscaler",
    "register_policy",
    "run_fleet",
]
