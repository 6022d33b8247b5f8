"""One name -> entry catalog behind every plugin registry.

Systems and experiments, the two catalogs users extend, plug in the same
way: a decorator stores a callable under a stable name, entry points
look it up by that name, and a wrong name fails with a typed error that
lists the right ones.  :class:`Registry` is that idea written once; the
two catalogs (:mod:`repro.api.registry`, :mod:`repro.api.experiment`)
subclass it and keep only what is theirs — aliases, paper ordering, how
an entry is instantiated.  The closed sets nobody extends (placement
policies, autoscalers, job sources) are plain tables or classes instead.

A leaf module: it imports nothing from :mod:`repro` but the errors, so
any tier can build on it (the way :mod:`repro.journal` sits under both
journals).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, Tuple, TypeVar

from repro.errors import ConfigurationError

E = TypeVar("E")


class Registry(Generic[E]):
    """Ordered name -> entry catalog with typed errors.

    Subclasses name what they hold (``noun`` / ``plural`` appear in
    every message) and override :meth:`canonical` for looser lookup,
    :meth:`_ensure_builtins` to import their built-ins lazily, or
    :meth:`names` for a different listing order.
    """

    noun = "entry"
    plural = "entries"

    def __init__(self) -> None:
        self._entries: Dict[str, E] = {}

    # -- registration ------------------------------------------------------

    def _taken(self, label: str) -> bool:
        """Whether ``label`` already names something here."""
        return label in self._entries

    def _claim(self, name: str, obj: object, replace: bool) -> None:
        """Raise unless callable ``obj`` may be registered as ``name``."""
        if not isinstance(name, str) or not name.strip():
            raise ConfigurationError(f"{self.noun} name must be a non-empty string")
        if not callable(obj):
            raise ConfigurationError(f"{self.noun} {name!r} must be callable")
        if self._taken(name) and not replace:
            raise ConfigurationError(
                f"{self.noun} {name!r} is already registered; "
                "pass replace=True to override"
            )

    def register(self, name: str, entry: E, replace: bool = False) -> E:
        """Store callable ``entry`` under ``name`` and return it.

        Re-registering a taken name raises unless ``replace=True``.
        """
        self._claim(name, entry, replace)
        self._entries[name] = entry
        return entry

    def decorator(self, name: str, **options) -> Callable[[Callable], Callable]:
        """``@registry.decorator(name, ...)``: :meth:`register` the
        decorated object and hand it back unchanged."""

        def decorate(obj: Callable) -> Callable:
            self.register(name, obj, **options)
            return obj

        return decorate

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests and notebooks)."""
        del self._entries[self.canonical(name)]

    # -- lookup ------------------------------------------------------------

    def _ensure_builtins(self) -> None:
        """Import the modules whose decorators register the built-ins."""

    def _unknown(self, name: object) -> ConfigurationError:
        return ConfigurationError(
            f"unknown {self.noun} {name!r}; registered {self.plural}: "
            + (", ".join(self.names()) or "none")
        )

    def canonical(self, name: str) -> str:
        """The registered name ``name`` refers to (here: itself); raise
        listing the known names."""
        self._ensure_builtins()
        if name in self._entries:
            return name
        raise self._unknown(name)

    def get(self, name: str) -> E:
        """The entry registered under ``name``."""
        return self._entries[self.canonical(name)]

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration order (built-ins first)."""
        self._ensure_builtins()
        return tuple(self._entries)

    # -- mapping-ish conveniences -----------------------------------------

    def __contains__(self, name: object) -> bool:
        try:
            self.canonical(name)  # type: ignore[arg-type]
        except ConfigurationError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())
