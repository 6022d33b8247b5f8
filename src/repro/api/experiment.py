"""The experiment front door: registry, typed runs, cached batch runner.

The repo's evaluation surface is ~20 experiment modules (``fig3``–``fig17``,
``table1``/``table2``, seven ablations).  This module gives them the same
registry treatment :mod:`repro.api.registry` gave the *systems*:

* :class:`ExperimentRegistry` / :func:`register_experiment` — every
  experiment module decorates its ``run()`` function and thereby plugs into
  ``repro list/run/report/export``, the cache, and the batch runner at
  once; the registry knows each experiment's id, paper title, kind
  (``figure`` / ``table`` / ``ablation``), paper order, parameter
  signature, and result type;
* :class:`ExperimentRun` — one frozen, validated record naming an
  experiment plus typed parameter overrides and calibration overrides;
  round-trips through plain dicts (``to_dict``/``from_dict``) like
  :class:`~repro.api.scenario.Scenario` and
  :class:`~repro.api.preprocess.PreprocessJob`;
* :class:`ExperimentResult` — the uniform result protocol (``columns()`` +
  ``rows()`` for export, ``claims()`` for the scoreboard, ``render()`` for
  the text report, ``to_dict()``/``from_dict()`` for the cache) with a
  type-driven JSON codec that handles the result dataclasses' nested
  dicts, tuple keys, and nested dataclasses losslessly;
* :class:`RunStore` — an on-disk JSON cache keyed by (experiment id,
  params digest, calibration digest) so repeated ``report``/``export``
  invocations replay stored results (``force=True`` bypasses);
* :func:`run_experiments` — the :class:`~repro.api.sweep.Sweep`-style
  serial batch (via :class:`~repro.batch.runner.BatchRunner`) with
  input-ordered results, per-task retries, journaled resume, and
  completed-result caching even when a later task fails.

Quick start::

    from repro.api import ExperimentRun

    result = ExperimentRun("fig3", params={"model": "RM1"}).run()
    print(result.render())

Registering a new experiment (see ``examples/custom_experiment.py``)::

    @register_experiment("my-sweep", title="My sweep", kind="ablation",
                         order=300)
    def run(model: str = "RM5",
            calibration: Calibration = CALIBRATION) -> MySweepResult:
        ...
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import tempfile
import typing
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, ReproError, is_int, strict_keys
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.registry import Registry

#: valid values of :attr:`ExperimentSpec.kind`
EXPERIMENT_KINDS = ("figure", "table", "ablation")

#: cache format version — bump to invalidate every stored result at once
STORE_FORMAT = 1


def _package_version() -> str:
    """The installed ``repro`` version — part of every cache entry, so a
    release bump invalidates results computed by older code."""
    from repro import __version__

    return __version__


# ---------------------------------------------------------------------------
# typed JSON codec
# ---------------------------------------------------------------------------
#
# Result dataclasses carry shapes JSON cannot express directly — dicts with
# int or tuple keys, tuples of bools, nested dataclasses.  Encoding is
# structural; decoding is driven entirely by the dataclass field type hints,
# so a round-trip restores the exact Python types (and therefore the exact
# ``render()`` text).


#: exact types :func:`encode_value` returns unchanged
_PRIMITIVE_TYPES = frozenset((bool, int, float, str, type(None)))

#: dataclass type -> its field names, filled on first encode
_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-safe data (see :func:`decode_value`).

    Dispatches on the exact type first (primitives, ``tuple``/``list``,
    dataclasses already seen); subclasses such as ``IntEnum`` or a
    ``NamedTuple`` take the ``isinstance`` chain below, with the same
    output."""
    kind = type(value)
    if kind in _PRIMITIVE_TYPES:
        return value
    if kind is tuple or kind is list:
        return [encode_value(v) for v in value]
    names = _DATACLASS_FIELDS.get(kind)
    if names is None and dataclasses.is_dataclass(kind):  # instance, not class
        names = _DATACLASS_FIELDS[kind] = tuple(
            f.name for f in dataclasses.fields(value)
        )
    if names is not None:
        return {name: encode_value(getattr(value, name)) for name in names}
    if isinstance(value, Mapping):
        if all(isinstance(k, str) for k in value):
            return {k: encode_value(v) for k, v in value.items()}
        # non-string keys (ints, tuples) become an ordered pair list
        return [[encode_value(k), encode_value(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot encode {type(value).__name__} value {value!r} as JSON; "
        "experiment results must be dataclasses of primitives, tuples, "
        "and dicts"
    )


def decode_value(hint: Any, value: Any) -> Any:
    """Decode JSON data produced by :func:`encode_value` back into the
    Python shape described by the type ``hint``."""
    if hint is Any or hint is None or hint is type(None):
        return value
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        hints = typing.get_type_hints(hint)
        kwargs = {
            f.name: decode_value(hints.get(f.name, Any), value[f.name])
            for f in dataclasses.fields(hint)
        }
        return hint(**kwargs)
    origin = typing.get_origin(hint)
    if origin is None:
        if hint is bool:
            return bool(value)
        if hint is int:
            return int(value)
        if hint is float:
            # encode is identity on numbers, so a float-annotated field
            # that held an int round-trips as that int — coercing here
            # would turn a replayed 368 into 368.0 and break the replayed
            # == fresh byte-identity guarantee
            if is_int(value):
                return value
            return float(value)
        if hint is str:
            return str(value)
        return value
    if origin is Union:  # Optional[T] and friends
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return decode_value(args[0], value) if len(args) == 1 else value
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode_value(args[0], v) for v in value)
        if not args:
            return tuple(value)
        return tuple(decode_value(a, v) for a, v in zip(args, value))
    if origin is list:
        (arg,) = typing.get_args(hint) or (Any,)
        return [decode_value(arg, v) for v in value]
    if origin is dict:
        key_hint, value_hint = typing.get_args(hint) or (Any, Any)
        if isinstance(value, list):  # pair-list form (non-string keys)
            return {
                decode_value(key_hint, k): decode_value(value_hint, v)
                for k, v in value
            }
        return {
            _decode_key(key_hint, k): decode_value(value_hint, v)
            for k, v in value.items()
        }
    return value


def _decode_key(hint: Any, key: str) -> Any:
    """JSON object keys are strings; restore int/float keys from the hint."""
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    return key


def canonical_digest(payload: Any) -> str:
    """A stable short hash of JSON-able ``payload`` (sorted keys)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the uniform result protocol
# ---------------------------------------------------------------------------


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table (the harness's 'figure')."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


class ExperimentResult:
    """Base class every experiment result inherits: the uniform protocol.

    Subclasses are frozen dataclasses and provide ``columns()``, ``rows()``
    and ``table_title()``; ``render()`` defaults to that titled table
    followed by the claim lines (override it for any other layout);
    ``claims()`` defaults to no claims (Table I is an input echo);
    ``to_dict()``/``from_dict()`` come for free via the typed codec, which
    is what lets :class:`RunStore` replay results from disk.
    """

    def columns(self) -> Sequence[str]:
        """Header of :meth:`rows` — the CSV/export column names."""
        raise NotImplementedError

    def rows(self) -> List[Tuple]:
        """The series the paper plots, one tuple per row."""
        raise NotImplementedError

    def table_title(self) -> str:
        """The line above the table in the default :meth:`render`."""
        raise NotImplementedError

    def render(self) -> str:
        """The text-table 'figure': titled table, then one line per claim."""
        table = format_table(self.columns(), self.rows(), title=self.table_title())
        return "\n".join([table, *(c.render() for c in self.claims())])

    def claims(self) -> List:
        """Paper-vs-measured claims (default: none)."""
        return []

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form; lossless via :meth:`from_dict`."""
        return encode_value(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (exact types)."""
        return decode_value(cls, dict(data))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentParam:
    """One parameter of an experiment's runner (name + default value)."""

    name: str
    default: Any


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the harness knows about one registered experiment."""

    id: str
    title: str
    kind: str
    order: int
    runner: Callable[..., ExperimentResult]
    result_type: type
    params: Tuple[ExperimentParam, ...]
    takes_calibration: bool

    @property
    def module(self) -> str:
        """The defining module (``repro.experiments.fig3_colocated``)."""
        return self.runner.__module__

    @property
    def doc(self) -> str:
        """First line of the runner's (or its module's) docstring."""
        import sys

        text = self.runner.__doc__ or ""
        if not text:
            mod = sys.modules.get(self.module)
            text = (mod.__doc__ or "") if mod else ""
        return text.strip().splitlines()[0] if text.strip() else ""

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def default_params(self) -> Dict[str, Any]:
        return {p.name: p.default for p in self.params}


class ExperimentRegistry(Registry[ExperimentSpec]):
    """Id -> :class:`ExperimentSpec` catalog of paper experiments.

    On top of :class:`~repro.registry.Registry`: entries are specs
    introspected from the registered runner, lookup also accepts the
    paper title (case-insensitively), listings come in paper order, and
    ``$REPRO_EXPERIMENTS`` modules load with the built-ins.
    """

    noun = "experiment"
    plural = "experiments"

    def register(
        self,
        id: str,
        runner: Callable[..., ExperimentResult],
        *,
        title: str,
        kind: str,
        order: int,
        replace: bool = False,
    ) -> Callable[..., ExperimentResult]:
        """Register ``runner`` under ``id``; normally used through the
        :func:`register_experiment` decorator."""
        self._claim(id, runner, replace)
        if not isinstance(title, str) or not title.strip():
            raise ConfigurationError(f"experiment {id!r} needs a non-empty title")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(
                f"experiment {id!r}: kind must be one of {EXPERIMENT_KINDS}, "
                f"got {kind!r}"
            )
        if not is_int(order):
            raise ConfigurationError(f"experiment {id!r}: order must be an int")
        # a title may only ever name one id — replace=True swaps the spec
        # under an id, it does not let one id steal another's title
        taken_titles = {
            s.title.casefold(): s.id for s in self._entries.values() if s.id != id
        }
        if title.casefold() in taken_titles:
            raise ConfigurationError(
                f"experiment title {title!r} is already registered "
                f"(id {taken_titles[title.casefold()]!r})"
            )
        spec = _introspect(id, runner, title=title, kind=kind, order=order)
        self._entries[id] = spec
        return runner

    def _ensure_builtins(self) -> None:
        # The package's exports are its experiment modules: the first read
        # of each imports it, which runs its @register_experiment decorator.
        import repro.experiments

        for name in repro.experiments.__all__:
            getattr(repro.experiments, name)

        # plugin hook: $REPRO_EXPERIMENTS is a comma-separated list of
        # importable modules that register user experiments, so they show
        # up in `repro list/run/report/export` without an in-process driver
        for name in os.environ.get("REPRO_EXPERIMENTS", "").split(","):
            name = name.strip()
            if not name:
                continue
            try:
                importlib.import_module(name)
            except ImportError as exc:
                raise ConfigurationError(
                    f"$REPRO_EXPERIMENTS names module {name!r} which cannot "
                    f"be imported: {exc}"
                )

    def canonical(self, id: str) -> str:
        """Resolve ``id`` (exact id, paper title, or case-insensitive
        either) to the registered id; raise listing the known ids."""
        self._ensure_builtins()
        if id in self._entries:
            return id
        if isinstance(id, str):
            folded = id.casefold()
            for spec in self._entries.values():
                if folded in (spec.id.casefold(), spec.title.casefold()):
                    return spec.id
        raise self._unknown(id)

    def ids(self, kind: Optional[str] = None) -> Tuple[str, ...]:
        """Experiment ids in paper order (optionally one kind only)."""
        return tuple(s.id for s in self.experiments(kind))

    names = ids

    def titles(self, kind: Optional[str] = None) -> Tuple[str, ...]:
        """Paper titles in paper order."""
        return tuple(s.title for s in self.experiments(kind))

    def experiments(self, kind: Optional[str] = None) -> Tuple[ExperimentSpec, ...]:
        """Specs sorted into paper order (``order``, then id)."""
        self._ensure_builtins()
        if kind is not None and kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}"
            )
        specs = sorted(self._entries.values(), key=lambda s: (s.order, s.id))
        if kind is not None:
            specs = [s for s in specs if s.kind == kind]
        return tuple(specs)


def _introspect(
    id: str,
    runner: Callable[..., ExperimentResult],
    *,
    title: str,
    kind: str,
    order: int,
) -> ExperimentSpec:
    """Derive the parameter signature and result type from ``runner``."""
    signature = inspect.signature(runner)
    try:
        hints = typing.get_type_hints(runner)
    except Exception:  # unresolvable annotations — tolerate, lose precision
        hints = {}
    result_type = hints.get("return")
    if not (
        isinstance(result_type, type)
        and issubclass(result_type, ExperimentResult)
        and dataclasses.is_dataclass(result_type)
    ):
        raise ConfigurationError(
            f"experiment {id!r}: runner must annotate its return type with "
            "an ExperimentResult dataclass (got "
            f"{getattr(result_type, '__name__', result_type)!r})"
        )
    params: List[ExperimentParam] = []
    takes_calibration = False
    for name, parameter in signature.parameters.items():
        if name == "calibration":
            takes_calibration = True
            continue
        if parameter.default is inspect.Parameter.empty:
            raise ConfigurationError(
                f"experiment {id!r}: parameter {name!r} needs a default "
                "value (every experiment must run with zero arguments)"
            )
        params.append(ExperimentParam(name=name, default=parameter.default))
    return ExperimentSpec(
        id=id,
        title=title,
        kind=kind,
        order=order,
        runner=runner,
        result_type=result_type,
        params=tuple(params),
        takes_calibration=takes_calibration,
    )


#: the process-wide experiment registry every entry point consults
EXPERIMENT_REGISTRY = ExperimentRegistry()


def register_experiment(
    id: str,
    *,
    title: str,
    kind: str,
    order: int,
    replace: bool = False,
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Decorator registering an experiment runner with
    :data:`EXPERIMENT_REGISTRY`.  The decorated function is returned
    unchanged, so the module-level ``run()`` keeps working as before."""
    return EXPERIMENT_REGISTRY.decorator(
        id, title=title, kind=kind, order=order, replace=replace
    )


def available_experiments(kind: Optional[str] = None) -> Tuple[str, ...]:
    """Ids of every registered experiment, in paper order."""
    return EXPERIMENT_REGISTRY.ids(kind)


def get_experiment(id: str) -> ExperimentSpec:
    """One registered experiment's spec by id or paper title."""
    return EXPERIMENT_REGISTRY.get(id)


# ---------------------------------------------------------------------------
# ExperimentRun — the frozen, validated run record
# ---------------------------------------------------------------------------


def _freeze(value: Any) -> Any:
    """Recursively turn lists into tuples so param values hash/compare."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _check_param(id: str, param: ExperimentParam, value: Any) -> Any:
    """Validate one override against the runner's default; freeze it."""
    value = _freeze(value)
    default = param.default
    if default is None:
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigurationError(
                f"experiment {id!r}: param {param.name!r} must be a bool, "
                f"got {value!r}"
            )
        return value
    if is_int(default):
        if not is_int(value):
            raise ConfigurationError(
                f"experiment {id!r}: param {param.name!r} must be an int, "
                f"got {value!r}"
            )
        return value
    if isinstance(default, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(
                f"experiment {id!r}: param {param.name!r} must be a number, "
                f"got {value!r}"
            )
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigurationError(
                f"experiment {id!r}: param {param.name!r} must be a string, "
                f"got {value!r}"
            )
        return value
    if isinstance(default, tuple):
        if not isinstance(value, tuple):
            raise ConfigurationError(
                f"experiment {id!r}: param {param.name!r} must be a "
                f"sequence, got {value!r}"
            )
        return value
    return value


@dataclass(frozen=True)
class ExperimentRun:
    """One declarative experiment invocation: id + params + calibration.

    Like :class:`~repro.api.scenario.Scenario`, the record is validated at
    construction (unknown experiment, unknown/ill-typed params, unknown
    calibration fields all raise), frozen, picklable, and round-trips
    through plain dicts — which is what makes the multiprocessing fan-out
    and the on-disk cache safe.
    """

    experiment: str
    params: Any = field(default_factory=tuple)
    calibration: Any = field(default_factory=tuple)

    def __post_init__(self) -> None:
        spec = EXPERIMENT_REGISTRY.get(self.experiment)
        object.__setattr__(self, "experiment", spec.id)

        raw = self.params
        items = raw.items() if isinstance(raw, Mapping) else tuple(raw or ())
        by_name = {p.name: p for p in spec.params}
        pairs: List[Tuple[str, Any]] = []
        try:
            entries = [(name, value) for name, value in items]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"experiment params must be a mapping or (name, value) "
                f"pairs, got {raw!r}"
            )
        for name, value in entries:
            if name not in by_name:
                raise ConfigurationError(
                    f"experiment {spec.id!r} has no parameter {name!r}; "
                    f"parameters: {list(by_name) or 'none'}"
                )
            pairs.append((name, _check_param(spec.id, by_name[name], value)))
        object.__setattr__(self, "params", tuple(sorted(pairs)))

        from repro.api.scenario import _normalize_overrides

        object.__setattr__(
            self, "calibration", _normalize_overrides(self.calibration)
        )

    # -- conveniences ------------------------------------------------------

    @property
    def spec(self) -> ExperimentSpec:
        """The registered spec this run targets."""
        return EXPERIMENT_REGISTRY.get(self.experiment)

    @property
    def label(self) -> str:
        """Short display name, e.g. ``fig3(model=RM1)``."""
        parts = [f"{name}={value}" for name, value in self.params]
        if self.calibration:
            parts.append("calibrated")
        return self.experiment + (f"({', '.join(parts)})" if parts else "")

    def effective_params(self) -> Dict[str, Any]:
        """Defaults merged with this run's overrides (what executes)."""
        merged = self.spec.default_params()
        merged.update(dict(self.params))
        return merged

    def build_calibration(self) -> Calibration:
        """The paper calibration with this run's overrides applied."""
        return dataclasses.replace(CALIBRATION, **dict(self.calibration))

    @property
    def digest(self) -> str:
        """Cache key: hash of (id, effective params, calibration)."""
        return canonical_digest(
            {
                "experiment": self.experiment,
                "params": encode_value(self.effective_params()),
                "calibration": dict(self.calibration),
            }
        )

    # -- execution ---------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Execute the experiment and return its structured result."""
        spec = self.spec
        kwargs: Dict[str, Any] = dict(self.params)
        if spec.takes_calibration:
            kwargs["calibration"] = self.build_calibration()
        elif self.calibration:
            raise ConfigurationError(
                f"experiment {spec.id!r} does not take calibration overrides"
            )
        return spec.runner(**kwargs)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for config files (round-trips via from_dict)."""
        return {
            "experiment": self.experiment,
            "params": encode_value(dict(self.params)),
            "calibration": dict(self.calibration),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentRun":
        """Rebuild a run from :meth:`to_dict` output (strict keys)."""
        return cls(**strict_keys(cls, data, ConfigurationError, noun="run"))


# ---------------------------------------------------------------------------
# RunStore — on-disk result cache
# ---------------------------------------------------------------------------


def default_store_root() -> Path:
    """``$REPRO_CACHE_DIR``, else the XDG cache dir (``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "experiments"


class RunStore:
    """On-disk JSON cache of experiment results.

    Layout: ``<root>/<experiment-id>/<digest>.json`` where the digest keys
    (experiment id, effective params, calibration overrides).  Entries are
    self-describing — they embed the run record and the result's encoded
    fields — and are decoded back into the exact result dataclass through
    the registry.  Unreadable, stale-format, or other-package-version
    entries count as misses and are overwritten on the next save; results
    computed by a different ``repro`` release never replay silently.
    (Within one version the cache cannot see source edits — pass ``force``
    after changing experiment logic in development.)
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def path(self, run: ExperimentRun) -> Path:
        """Where ``run``'s cached result lives (whether or not it exists)."""
        return self.root / run.experiment / f"{run.digest}.json"

    def load(self, run: ExperimentRun) -> Optional[ExperimentResult]:
        """The cached result for ``run``, or ``None`` on a miss."""
        path = self.path(run)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != STORE_FORMAT
            or payload.get("version") != _package_version()
        ):
            return None
        try:
            result_type = EXPERIMENT_REGISTRY.get(run.experiment).result_type
            return result_type.from_dict(payload["result"])
        except (ConfigurationError, KeyError, TypeError, ValueError):
            return None

    def save(self, run: ExperimentRun, result: ExperimentResult) -> Path:
        """Persist ``result`` for ``run``; returns the entry path."""
        path = self.path(run)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": STORE_FORMAT,
            "version": _package_version(),
            "run": run.to_dict(),
            "result": result.to_dict(),
        }
        # unique temp name: concurrent savers of the same run must not race
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # No sort_keys: result dicts must round-trip in insertion
                # order so replayed results reduce (sum over dict values,
                # etc.) byte-identically to freshly computed ones.
                handle.write(json.dumps(payload, indent=1))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path


# ---------------------------------------------------------------------------
# the batch runner
# ---------------------------------------------------------------------------


def run_experiments(
    runs: Sequence[ExperimentRun],
    store: Optional[RunStore] = None,
    force: bool = False,
    *,
    policy: Optional["BatchPolicy"] = None,
    journal: Optional["BatchJournal"] = None,
    resume: bool = False,
) -> Union[List[ExperimentResult], List["BatchOutcome"]]:
    """Execute ``runs`` one after another; results come back in input order.

    With a ``store``, cached results are replayed (unless ``force``) and
    fresh ones are saved.  Execution goes through the fault-tolerant
    :class:`~repro.batch.runner.BatchRunner`: every completed task is
    cached *as it finishes*, so a later task failing in ``strict`` mode
    (typed :class:`~repro.errors.BatchTaskError`) no longer discards the
    results already computed.  A ``policy`` in ``degrade`` mode returns
    one :class:`~repro.batch.outcomes.BatchOutcome` per run (``result``
    holds the :class:`ExperimentResult` when ok) so callers can render
    partial reports.  With a ``journal``, ``resume=True`` replays
    completed runs from it and re-executes the rest.
    """
    from repro.batch import BatchPolicy, BatchRunner

    runs = list(runs)
    for run in runs:
        if not isinstance(run, ExperimentRun):
            raise ConfigurationError(
                f"run_experiments takes ExperimentRun records, got {run!r}"
            )
    batch_policy = policy if policy is not None else BatchPolicy()
    precomputed: Dict[int, ExperimentResult] = {}
    for index, run in enumerate(runs):
        cached = store.load(run) if (store is not None and not force) else None
        if cached is not None:
            precomputed[index] = cached

    def _save_fresh(outcome: "BatchOutcome") -> None:
        # attempts == 0 marks a result replayed from the cache itself —
        # only freshly executed tasks are (re)saved, each as it lands,
        # even when a later task fails the batch in strict mode
        if store is None or not outcome.ok or outcome.attempts == 0:
            return
        run = runs[outcome.index]
        try:
            store.save(run, outcome.result)
        except (ReproError, OSError) as exc:
            # caching is best-effort: an unwritable cache must not
            # discard results that were already computed
            warnings.warn(
                f"could not cache {run.label}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    runner = BatchRunner(
        ExperimentRun.run,
        policy=batch_policy,
        journal=journal,
        task_key=lambda index, run: run.digest,
        task_label=lambda index, run: run.label,
        encode_result=lambda index, result: result.to_dict(),
        decode_result=lambda index, payload: (
            EXPERIMENT_REGISTRY.get(runs[index].experiment)
            .result_type.from_dict(payload)
        ),
        on_outcome=_save_fresh,
    )
    outcomes = runner.run(
        runs, parallel=False, resume=resume, precomputed=precomputed
    )
    if batch_policy.failure_mode == "degrade":
        return outcomes
    return [outcome.result for outcome in outcomes]
