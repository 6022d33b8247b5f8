"""Declarative system registry — the catalog behind the Scenario API.

Every preprocessing design point (the paper's six, plus any user-defined
ones) registers itself under a stable name with the global
:data:`REGISTRY`, usually via the :func:`register_system` class decorator::

    @register_system("PreSto-Gen2")
    class PreStoGen2System(PreStoSystem):
        ...

Scenarios, sweeps, the CLI, and the experiment harness all construct
systems by name through the registry, so a new design point plugs into
every entry point at once without touching core code.

This module deliberately imports nothing from :mod:`repro.core` at module
level (the built-in systems import *us* to register themselves); the
built-ins are pulled in lazily on first lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, TYPE_CHECKING

from repro.hardware.calibration import CALIBRATION, Calibration
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.systems import PreprocessingSystem
    from repro.features.specs import ModelSpec

#: a factory builds one system instance for a model spec and calibration
SystemFactory = Callable[..., "PreprocessingSystem"]


class SystemRegistry(Registry[SystemFactory]):
    """Name -> factory catalog of preprocessing system design points.

    On top of :class:`~repro.registry.Registry`: aliases (sharing one
    namespace with the names), case-insensitive lookup, built-ins
    imported on first lookup, and :meth:`create`.
    """

    noun = "system"
    plural = "systems"

    def __init__(self) -> None:
        super().__init__()
        self._aliases: Dict[str, str] = {}

    def _taken(self, label: str) -> bool:
        return super()._taken(label) or label in self._aliases

    def register(
        self,
        name: str,
        factory: SystemFactory,
        aliases: Tuple[str, ...] = (),
        replace: bool = False,
    ) -> SystemFactory:
        """Register ``factory`` under ``name`` (and optional aliases).

        Re-registering a taken name raises unless ``replace=True``.
        """
        for alias in aliases:
            self._claim(alias, factory, replace)
        super().register(name, factory, replace=replace)
        for alias in aliases:
            self._aliases[alias] = name
        return factory

    def unregister(self, name: str) -> None:
        """Remove a design point and its aliases."""
        canonical = self.canonical(name)
        super().unregister(canonical)
        self._aliases = {a: n for a, n in self._aliases.items() if n != canonical}

    def _ensure_builtins(self) -> None:
        # Importing the module runs its @register_system decorators.
        import repro.core.systems  # noqa: F401

    def canonical(self, name: str) -> str:
        """Resolve ``name`` (exact, alias, or case-insensitive) to the
        registered canonical name; raise listing the known names."""
        self._ensure_builtins()
        if name in self._entries:
            return name
        if name in self._aliases:
            return self._aliases[name]
        if isinstance(name, str):
            folded = name.casefold()
            for label in (*self._entries, *self._aliases):
                if label.casefold() == folded:
                    return self._aliases.get(label, label)
        raise self._unknown(name)

    def create(
        self,
        name: str,
        spec: "ModelSpec",
        calibration: Calibration = CALIBRATION,
    ) -> "PreprocessingSystem":
        """Instantiate the named system for ``spec``."""
        return self.get(name)(spec, calibration)


#: the process-wide registry every entry point consults
REGISTRY = SystemRegistry()


def register_system(
    name: str, *, aliases: Tuple[str, ...] = (), replace: bool = False
) -> Callable[[SystemFactory], SystemFactory]:
    """Class decorator registering a design point with :data:`REGISTRY`."""
    return REGISTRY.decorator(name, aliases=aliases, replace=replace)


def available_systems() -> Tuple[str, ...]:
    """Canonical names of every registered system design point."""
    return REGISTRY.names()


def get_system(
    name: str, spec: "ModelSpec", calibration: Calibration = CALIBRATION
) -> "PreprocessingSystem":
    """Construct one registered system by name."""
    return REGISTRY.create(name, spec, calibration)
