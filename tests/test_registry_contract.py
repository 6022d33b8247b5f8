"""One contract, two registries.

Systems and experiments, the two catalogs users extend, sit on
:class:`repro.registry.Registry`; whatever a subclass adds (aliases,
paper order), the base behaviour below must hold for both — on fresh
instances and on the process-wide catalogs.
"""

from dataclasses import dataclass

import pytest

from repro.api.experiment import (
    EXPERIMENT_REGISTRY,
    ExperimentRegistry,
    ExperimentResult,
    register_experiment,
)
from repro.api.registry import REGISTRY, SystemRegistry, register_system
from repro.errors import ConfigurationError
from repro.registry import Registry


@dataclass(frozen=True)
class _Result(ExperimentResult):
    value: int = 0


def _entry(kind):
    """A fresh registrable object for ``kind`` (distinct on every call)."""
    if kind == "experiment":

        def runner() -> _Result:
            return _Result()

        return runner
    # a system factory: (spec, calibration) -> system
    return lambda spec, calibration=None: (spec, calibration)


def _options(kind, name, order=0):
    """Per-registry keyword arguments ``register`` needs beyond the name."""
    if kind == "experiment":
        return {"title": f"Title of {name}", "kind": "ablation", "order": order}
    return {}


#: kind -> (registry class, process-wide instance, public decorator,
#:          how ``names()`` orders three entries registered as c, a, b
#:          with experiment orders 3, 2, 1)
REGISTRIES = {
    "system": (SystemRegistry, REGISTRY, register_system, ("c", "a", "b")),
    "experiment": (
        ExperimentRegistry, EXPERIMENT_REGISTRY, register_experiment,
        ("b", "a", "c"),
    ),
}

KINDS = sorted(REGISTRIES)


def _fresh(kind, names=("c", "a", "b")):
    registry = REGISTRIES[kind][0]()
    entries = {}
    for position, name in enumerate(names):
        entries[name] = _entry(kind)
        registry.register(
            name, entries[name], **_options(kind, name, order=len(names) - position)
        )
    return registry, entries


def _stored(kind, registry, name):
    """The object ``register`` was given, read back out of the registry."""
    entry = registry.get(name)
    return entry.runner if kind == "experiment" else entry


@pytest.mark.parametrize("kind", KINDS)
class TestContract:
    def test_is_a_registry(self, kind):
        cls, instance, _, _ = REGISTRIES[kind]
        assert issubclass(cls, Registry)
        assert isinstance(instance, cls)

    def test_duplicate_name_raises_unless_replace(self, kind):
        registry, entries = _fresh(kind, names=("a",))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", _entry(kind), **_options(kind, "a"))
        assert _stored(kind, registry, "a") is entries["a"]
        replacement = _entry(kind)
        registry.register("a", replacement, replace=True, **_options(kind, "a"))
        assert _stored(kind, registry, "a") is replacement
        assert len(registry) == 1

    def test_unknown_lookup_lists_registered_names(self, kind):
        registry, _ = _fresh(kind)
        with pytest.raises(ConfigurationError, match="unknown") as info:
            registry.get("nope")
        for name in ("a", "b", "c"):
            assert name in str(info.value)

    def test_unknown_unregister_is_a_typed_error(self, kind):
        registry, _ = _fresh(kind)
        with pytest.raises(ConfigurationError, match="unknown") as info:
            registry.unregister("nope")
        for name in ("a", "b", "c"):
            assert name in str(info.value)
        assert len(registry) == 3

    def test_global_unknown_unregister_names_the_builtins(self, kind):
        instance = REGISTRIES[kind][1]
        before = instance.names()
        with pytest.raises(ConfigurationError) as info:
            instance.unregister("no-such-entry")
        assert before[0] in str(info.value)
        assert instance.names() == before

    def test_unregister_removes(self, kind):
        registry, _ = _fresh(kind)
        registry.unregister("a")
        assert "a" not in registry
        assert sorted(registry.names()) == ["b", "c"]

    def test_names_order(self, kind):
        registry, _ = _fresh(kind)
        assert registry.names() == REGISTRIES[kind][3]

    def test_in_iter_len(self, kind):
        registry, _ = _fresh(kind)
        assert "a" in registry and "nope" not in registry
        assert tuple(registry) == registry.names()
        assert len(registry) == 3

    def test_bad_name_rejected(self, kind):
        registry = REGISTRIES[kind][0]()
        for bad in ("", "   ", None, 7):
            with pytest.raises(ConfigurationError, match="non-empty string"):
                registry.register(bad, _entry(kind), **_options(kind, "x"))
        assert len(registry) == 0

    def test_non_callable_rejected(self, kind):
        registry = REGISTRIES[kind][0]()
        with pytest.raises(ConfigurationError, match="callable"):
            registry.register("x", 42, **_options(kind, "x"))
        assert "x" not in registry

    def test_decorator_returns_its_argument_unchanged(self, kind):
        registry = REGISTRIES[kind][0]()
        obj = _entry(kind)
        assert registry.decorator("x", **_options(kind, "x"))(obj) is obj
        assert _stored(kind, registry, "x") is obj

    def test_public_decorator_registers_globally_and_returns_argument(self, kind):
        _, instance, decorator, _ = REGISTRIES[kind]
        name = f"contract-test-{kind}"
        obj = _entry(kind)
        try:
            assert decorator(name, **_options(kind, name, order=999))(obj) is obj
            assert name in instance
            assert _stored(kind, instance, name) is obj
            with pytest.raises(ConfigurationError, match="already registered"):
                decorator(name, **_options(kind, name, order=999))(_entry(kind))
        finally:
            instance.unregister(name)
        assert name not in instance


class TestWhatEachSubclassKeeps:
    def test_system_aliases_share_the_namespace_and_fold_case(self):
        registry = SystemRegistry()
        factory = _entry("system")
        registry.register("Mine", factory, aliases=("my-alias",))
        assert registry.canonical("my-alias") == registry.canonical("mine") == "Mine"
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("my-alias", _entry("system"))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("Other", _entry("system"), aliases=("Mine",))
        assert registry.names() == ("Mine",)
        registry.unregister("my-alias")
        assert "Mine" not in registry and "my-alias" not in registry

    def test_system_create_lives_on_the_subclass(self):
        # the e2e benchmark wraps it through the class __dict__
        assert "create" in SystemRegistry.__dict__
        registry = SystemRegistry()
        registry.register("Echo", _entry("system"))
        assert registry.create("Echo", "spec", "cal") == ("spec", "cal")

    def test_experiment_lookup_by_title_and_paper_order(self):
        registry, _ = _fresh("experiment")
        assert registry.canonical("title of A") == "a"
        assert registry.ids() == registry.names() == ("b", "a", "c")
        assert [spec.order for spec in registry.experiments()] == [1, 2, 3]
