"""Deterministic fault injection for the serve and exec tiers.

``repro.faults`` is the harness behind ``repro chaos`` and the
``--faults`` flag on ``repro serve``: seeded :class:`FaultPlan` schedules,
a process-global :class:`FaultInjector`, and probe functions
(:func:`fault_point` / :func:`fault_stage`) woven through the worker pool,
the service data plane, the job-log index, the wire protocol, and the row
format writer.  With no injector installed every probe is a single
``None`` test — zero overhead on the production path.

The chaos matrix lives in :mod:`repro.faults.chaos`, imported lazily by
the CLI so that probe sites importing this package never pull in the
serve tier (which itself hosts probes).
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("ChaosError", "FaultError"),
    "repro.faults.injector": (
        "DEFAULT_HANG_S", "FaultInjector", "active_injector", "fault_point",
        "fault_stage", "install", "installed", "uninstall",
    ),
    "repro.faults.plan": (
        "FAULT_ACTIONS", "FAULT_POINTS", "FaultPlan", "FaultRule",
    ),
})

__all__ = [
    "ChaosError",
    "DEFAULT_HANG_S",
    "FAULT_ACTIONS",
    "FAULT_POINTS",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active_injector",
    "fault_point",
    "fault_stage",
    "install",
    "installed",
    "uninstall",
]
