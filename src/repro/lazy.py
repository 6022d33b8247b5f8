"""Package re-exports resolved on first use (PEP 562).

Every package ``__init__`` under ``repro`` names what it re-exports in one
table, keyed by source module in the shape of the import lists it stands
for::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.fleet.trace": ("DAY_S", "Trace", "generate_trace"),
    })

``import repro.fleet`` then runs no submodule; the first read of
``repro.fleet.Trace`` imports ``repro.fleet.trace`` and binds the name in
the package, so later reads are plain attribute lookups.  A key equal to
the package itself lists submodules (``repro.experiments``' modules).  An
attribute outside the table that names a submodule (``fleet.trace``)
imports it, as an eager ``__init__`` would have, and ``dir()`` lists every
table name whether resolved or not.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving ``table``."""
    namespace = vars(sys.modules[package])
    source_of = {name: source for source, names in table.items() for name in names}

    def resolve(name: str) -> object:
        source = source_of[name]
        if source == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    # A name exported from the submodule of the same name (the function
    # repro.ops.bucketize, from the module repro.ops.bucketize): loading
    # that submodule binds the module in the package, where an eager
    # __init__ rebound the function right after.  The package's class does
    # that rebinding now, whoever loads the submodule and whenever.
    shadowed = {name for name, source in source_of.items()
                if source == f"{package}.{name}"}
    if shadowed:
        class Package(types.ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                if name in shadowed and value is sys.modules.get(f"{package}.{name}"):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package

    def __getattr__(name: str) -> object:
        if name in source_of:
            return resolve(name)
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        # what an eager __init__ listed: its exports, the submodules loaded
        # so far and the dunders (not this helper's own name)
        return sorted(set(source_of) | {
            name for name, value in namespace.items()
            if name.startswith("_") or isinstance(value, types.ModuleType)
        })

    return __getattr__, __dir__
