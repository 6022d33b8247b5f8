"""Exception hierarchy for the PreSto reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause while tests
can still assert the precise subclass.  :func:`strict_keys` lives here too:
the one shape check every record's ``from_dict`` raises its typed
error through.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Type


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A table schema is malformed or a column does not match its schema."""


class EncodingError(ReproError):
    """A column chunk cannot be encoded or decoded (bad codec, corruption)."""


class FormatError(ReproError):
    """A columnar file is structurally invalid (magic, footer, checksums)."""


class PartitionError(ReproError):
    """Row partitioning parameters are inconsistent with the table."""


class OpError(ReproError):
    """A preprocessing operator received invalid inputs or parameters."""


class PipelineError(ReproError):
    """A preprocessing pipeline is malformed (unknown feature, bad order)."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. negative delay)."""


class CapacityError(ReproError):
    """A hardware resource model was configured beyond its capacity."""


class ProvisioningError(ReproError):
    """Worker provisioning (the T/P computation) received invalid inputs."""


class ConfigurationError(ReproError):
    """A system/experiment configuration is internally inconsistent."""


class ExecutionError(ReproError):
    """A sharded preprocessing execution was configured or driven wrongly."""


class ServeError(ReproError):
    """The streaming preprocessing service was configured or driven wrongly."""


class QueueFullError(ServeError):
    """A bounded work queue rejected a submission (explicit backpressure)."""


class QueueClosedError(ServeError):
    """The work queue no longer accepts or holds work (service shut down)."""


class JobNotFoundError(ServeError):
    """No job with the requested id exists in the service's lifecycle store."""


class ProtocolError(ServeError):
    """A client/server exchange on the serve protocol was malformed."""


class JobTimeoutError(ServeError):
    """A job blew its deadline; the watchdog failed it and replaced the
    worker that was stuck running it."""


class BatchError(ReproError):
    """The fault-tolerant batch runner was configured or driven wrongly,
    or a batch journal is corrupt."""


class TaskTimeoutError(BatchError):
    """A batch task blew its wall-clock deadline; the runner terminated
    and replaced the worker process that was stuck running it."""


class BatchTaskError(BatchError):
    """A batch task failed in ``strict`` mode.  Names the task and carries
    the underlying error text; already-completed tasks were still
    journaled (and cached, when a store is attached) before this raised."""


class FaultError(ReproError):
    """An injected fault fired (deterministic fault-injection harness)."""


class ChaosError(ReproError):
    """A chaos run violated a service invariant (jobs not terminal,
    digest divergence, duplicate completions, or leaked workers)."""


class FleetError(ReproError):
    """A fleet simulation failed: unreadable trace, a job that can never
    fit any pool at maximum scale, or a broken simulator invariant."""


def strict_keys(
    cls: type,
    data: Mapping[str, Any],
    error: Type[ReproError],
    noun: Optional[str] = None,
) -> Dict[str, Any]:
    """``data`` as a fresh dict, once its keys are exactly a valid field set.

    The one shape check behind every record's ``from_dict``: a payload that
    is not a mapping, a stray key, or a missing field that has no default
    raises the caller's own ``error`` type, naming the record (``noun``,
    else the class name) and the keys it accepts.
    """
    name = noun or cls.__name__
    if not isinstance(data, Mapping):
        raise error(f"{name} must be a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    unknown = set(data) - known
    if unknown:
        # the two wordings predate this helper; callers' messages are pinned
        expected = "expected" if noun else "expected a subset of"
        raise error(
            f"unknown {name} keys {sorted(unknown)}; "
            f"{expected} {sorted(known)}"
        )
    missing = [
        f.name for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise error(f"{name} is missing required keys {missing}")
    return dict(data)


def as_tuple(values: Any, name: str, error: Type[ReproError]) -> tuple:
    """``tuple(values)``, or the caller's ``error`` naming the field when
    ``values`` is not a sequence at all (a number, ``null``) — a record's
    list field, read from a payload, must not escape as a bare
    ``TypeError``."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{name} must be a list, got {values!r}") from None


def is_int(value: Any) -> bool:
    """Whether ``value`` is an ``int`` that is not a ``bool``.

    The one integer test behind every record's field checks: ``bool`` is a
    subclass of ``int``, so a JSON ``true`` would otherwise pass for a count
    of one (and be journaled as ``true``).
    """
    return isinstance(value, int) and not isinstance(value, bool)
