"""Every public definition of ``src/repro`` has a caller, and every option
a setter.

The rule (``docs/robustness.md``, "Public surface"): a *caller* is a
reference from ``src/repro`` outside the definition's own body — package
``__init__`` re-exports and ``__all__`` strings are not references — or a
mention anywhere under ``examples/``, ``docs/``, ``benchmarks/`` or
``.github/``; a ``@register_*`` decorator hands its definition to a registry,
which is a caller.  Tests are witnesses, not callers: a definition only its
own unit test calls is dead weight no coverage figure flags.  A module is
held to the same rule through the import graph: something outside the
package ``__init__`` files must import it.  Anything kept without a caller
is listed in :data:`ALLOWED` with the reason it stays, and an entry whose
target is gone or has found a caller fails too, so the list cannot rot.

A module-level definition is resolved through the imports (``from package
import name`` is followed through the ``__init__`` re-exports, the
``lazy_exports`` tables, to the module that defines ``name``); a method is matched by bare attribute name
(``getattr(x, "name")`` included), so the guard can miss an orphan method
whose name another class also uses, and any name the corpus happens to
mention.  A call from code that itself has no caller is not a caller: the
scan runs to a fixed point.  It never names code that is called.

Options follow the same rule (:func:`option_audit`): a *setter* of a
defaulted parameter is a call from ``src/repro`` outside the function's
own body, or from ``examples/`` or ``benchmarks/``, that passes it — by
keyword, by position, through ``*`` / ``**`` forwarding, or by handing the
callable to a table or another call that invokes it — or a ``name=``
mention under ``docs/`` or ``.github/``.  A keyword whose value is the
parameter's own default literal (``flag=True`` for ``flag=True``) restates
the constant and sets nothing.  Tests are witnesses here too.  An option no
one sets is the constant it always was; one kept anyway is listed in
:data:`ALLOWED_OPTIONS`, which cannot go stale either.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
CORPUS_DIRS = ("examples", "docs", "benchmarks", ".github")
CORPUS_SUFFIXES = {".py", ".md", ".yml", ".yaml"}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCTIONS + (ast.ClassDef,)

_LOOKUP = "one-call registry lookup of the library front door, re-exported by its package"
_REFERENCE = "reference implementation tests compare against"
_POOL = (
    "how tests/test_serve.py and tests/test_failure_injection.py observe worker "
    "death, replacement and timeouts"
)

#: qualified name -> why it stays although nothing calls it
ALLOWED: Dict[str, str] = {
    # input that arrives from outside
    "repro.features.criteo":
        "the Criteo TSV loader: an input format that arrives from outside the program",
    "repro.features.synthetic.generate_raw_table":
        "the one-call raw table the top-level package exports; the op, data-io, "
        "worker and Criteo tests build their inputs through it",
    # the element-at-a-time originals the vectorized paths must equal
    "repro.ops.sigridhash.sigrid_hash_scalar": _REFERENCE,
    "repro.ops.sigridhash.hash64": _REFERENCE,
    "repro.ops.bucketize.search_bucket_id": _REFERENCE,
    "repro.dataio.rowformat.RowFileWriter.write_scalar": _REFERENCE,
    # where tests of *other* behaviour look
    "repro.dataio.columnar.ColumnarFileReader.read_row_group":
        "the format's corruption and compatibility tests read single row groups "
        "through it",
    "repro.dataio.columnar.FileFooter.column_bytes":
        "tests/test_dataio_columnar.py and test_dataio_compat.py check selective "
        "reads against it",
    "repro.serve.pool.WorkerPool.inflight": _POOL,
    "repro.serve.pool.WorkerPool.jobs_timed_out": _POOL,
    "repro.serve.pool.WorkerPool.workers_replaced": _POOL,
    "repro.hardware.cpu.CpuCoreModel.cores_required":
        "tests/test_training.py pins the paper's 367 cores (RM5, 8 GPUs) through it",
    "repro.hardware.cpu.CpuCoreModel.disagg_throughput":
        "tests/test_hardware_cpu.py states linear disaggregated scaling, and the "
        "co-location de-rating against it, through it",
    "repro.experiments.table1_models.Table1Result.matches_paper":
        "tests/test_experiments.py asserts Table I cell for cell through it",
    "repro.experiments.table1_models.Table1Result.mismatches":
        "tests/test_experiments.py names the Table I rows that differ through it",
    "repro.ops.bucketize.Bucketizer.num_buckets":
        "tests/test_ops_pipeline.py checks the prepared kernel's cardinality through it",
    "repro.api.result.RunResult.starved":
        "the record's own reading of its utilization; tests/test_api.py asserts a "
        "one-worker run through it",
    "repro.serve.sources.SyntheticJobSource.exhausted":
        "tests/test_serve.py tells a drained source from a paused one through it",
    # the documented lookups of the public API
    "repro.api.registry.get_system": _LOOKUP,
    "repro.api.experiment.get_experiment": _LOOKUP,
    "repro.api.experiment.available_experiments": _LOOKUP,
}


def _module_name(path: Path, src_root: Path) -> str:
    parts = path.relative_to(src_root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _registers(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register_"):
            return True
    return False


def _imports(tree: ast.AST) -> Set[str]:
    """Dotted names a file imports or reaches through an imported package
    (``from repro import fleet`` ... ``fleet.run_fleet``)."""
    found: Set[str] = set()
    bound: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            for alias in node.names:
                found.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
                if alias.asname:
                    bound[alias.asname] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                found.add(f"{bound[node.value.id]}.{node.attr}")
    return found


def _reexported(tree: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(source module, name)`` for each name a package ``__init__``
    re-exports: its ``from module import name`` statements and the table it
    hands ``repro.lazy.lazy_exports`` (``{"module": ("name", ...)}``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", "") == "lazy_exports"):
            table = node.args[1]
            for source, names in zip(table.keys, table.values):
                for name in names.elts:
                    yield source.value, name.value


def audit(
    src_root: Path, corpus: Iterable[Path], allowed: Dict[str, str]
) -> Tuple[List[str], List[str]]:
    """``(orphans, stale)``: public definitions and modules under
    ``src_root`` with no caller and no ``allowed`` entry, and ``allowed``
    entries that name nothing, name something with a caller, or give no
    reason."""
    definitions: Dict[str, Tuple[Path, int, int]] = {}
    names: Dict[str, List[Tuple[Path, int]]] = {}
    attributes: Dict[str, List[Tuple[Path, int]]] = {}
    reexports: Dict[str, Dict[str, str]] = {}
    modules: Dict[str, Path] = {}
    registering: Set[str] = set()
    imported: Set[str] = set()

    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            for source, name in _reexported(tree):
                reexports.setdefault(module, {})[name] = source
        else:
            modules[module] = path
            imported |= _imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((path, node.lineno))
            elif (isinstance(node, ast.Call) and len(node.args) > 1
                  and getattr(node.func, "id", "") in ("getattr", "hasattr", "setattr")
                  and isinstance(node.args[1], ast.Constant)):
                attributes.setdefault(node.args[1].value, []).append((path, node.lineno))
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if _registers(node):
                registering.add(module)
                names.setdefault(node.name, []).append((path, 0))
            definitions[f"{module}.{node.name}"] = (path, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                        definitions[f"{module}.{node.name}.{member.name}"] = (
                            path, member.lineno, member.end_lineno)

    contents = {path: path.read_text(errors="replace") for path in corpus}
    text = "\n".join(contents.values())
    words = set(_WORD.findall(text))
    imported.update(_DOTTED.findall(text))
    for path, content in contents.items():
        if path.suffix == ".py":
            imported |= _imports(ast.parse(content, filename=str(path)))

    def defining_module(dotted: str) -> str:
        """Follow ``from package import name`` through ``__init__`` re-exports."""
        package, _, name = dotted.rpartition(".")
        hops = 0
        while name in reexports.get(package, ()) and hops < 8:
            package, hops = reexports[package][name], hops + 1
        return package

    imported |= {defining_module(name) for name in imported} | {
        f"{defining_module(name)}.{name.rpartition('.')[2]}" for name in imported
    }

    uncalled = {
        module for module in modules
        if module not in imported
        and module not in registering
        and module.replace(".", "/") + ".py" not in text
    }
    dead_files = {modules[module] for module in uncalled}

    def live(path: Path, line: int) -> bool:
        """A reference counts unless it sits in code that itself has no caller."""
        return path not in dead_files and not any(
            definitions[q][0] == path and definitions[q][1] <= line <= definitions[q][2]
            for q in uncalled if q in definitions
        )

    def has_caller(qualified: str) -> bool:
        path, start, end = definitions[qualified]
        name = qualified.rpartition(".")[2]
        if name in words:
            return True
        if _module_name(path, src_root) + "." + name == qualified:
            # module level: imported somewhere, or used in its own module
            return qualified in imported or any(
                ref_path == path and not start <= line <= end and live(ref_path, line)
                for ref_path, line in names.get(name, ())
            )
        return any(
            (ref_path != path or not start <= line <= end) and live(ref_path, line)
            for ref_path, line in attributes.get(name, ())
        )

    while True:  # to a fixed point: what only dead code calls is dead too
        found = {
            qualified for qualified, (path, _, _) in definitions.items()
            if qualified not in uncalled
            and path not in dead_files
            and not has_caller(qualified)
        }
        if not found:
            break
        uncalled |= found
    orphans = sorted(uncalled - set(allowed))
    stale = sorted(
        name for name, reason in allowed.items()
        if name not in uncalled or not reason.strip()
    )
    return orphans, stale


def corpus_files() -> List[Path]:
    return sorted(
        path
        for directory in CORPUS_DIRS
        for path in (REPO / directory).rglob("*")
        if path.is_file() and path.suffix in CORPUS_SUFFIXES
    )


def test_every_public_definition_has_a_caller():
    orphans, stale = audit(REPO / "src", corpus_files(), ALLOWED)
    assert not orphans, (
        "no caller in src/, examples/, docs/, benchmarks/ or .github/ (tests do "
        "not count) — delete it, or add it to ALLOWED with the reason it stays:\n  "
        + "\n  ".join(orphans)
    )
    assert not stale, (
        "ALLOWED entries that are gone, have a caller now, or give no reason:\n  "
        + "\n  ".join(stale)
    )


#: the synthetic package's re-exports, as import lists and as the lazy
#: table repro's own ``__init__`` files hand ``lazy_exports``
_EAGER_INIT = "from pkg.used import helper, Thing\nfrom pkg.orphan import lonely\n"
_LAZY_INIT = (
    "from repro.lazy import lazy_exports\n"
    "__getattr__, __dir__ = lazy_exports(__name__, {\n"
    '    "pkg.used": ("helper", "Thing"),\n'
    '    "pkg.orphan": ("lonely",),\n'
    "})\n"
)


def _synthetic_repo(root: Path, init: str = _EAGER_INIT) -> Tuple[Path, List[Path]]:
    """A three-module package plus one example: ``pkg.used`` has callers,
    ``pkg.orphan`` is re-exported by the ``__init__`` and called by nothing,
    ``chained`` is called only by a function nothing calls."""
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        init + '__all__ = ["helper", "Thing", "lonely", "never_called"]\n'
    )
    (package / "used.py").write_text(
        "def helper():\n    return 1\n\n"
        "def never_called():\n    return never_called and chained()\n\n"
        "def chained():\n    return 3\n\n"
        "class Thing:\n"
        "    def shown(self):\n        return helper()\n"
        "    def hidden(self):\n        return 0\n"
        "    def _private(self):\n        return 0\n"
    )
    (package / "orphan.py").write_text("def lonely():\n    return 2\n")
    (package / "cli.py").write_text(
        "from pkg import Thing\n\ndef main():\n    return Thing().shown()\n"
    )
    example = root / "examples" / "demo.py"
    example.parent.mkdir()
    example.write_text("from pkg.cli import main\nmain()\n")
    return root / "src", [example]


def test_an_orphan_is_named(tmp_path):
    src, corpus = _synthetic_repo(tmp_path)
    orphans, stale = audit(src, corpus, {})
    # the re-export, the __all__ string, the self-reference and the call
    # from dead code are not callers
    assert orphans == [
        "pkg.orphan", "pkg.used.Thing.hidden", "pkg.used.chained",
        "pkg.used.never_called",
    ]
    assert stale == []
    orphans, _ = audit(src, corpus, {"pkg.orphan": "arrives from outside"})
    assert "pkg.orphan" not in orphans and len(orphans) == 3


def test_a_lazy_table_resolves_like_the_import_lists(tmp_path):
    eager = audit(*_synthetic_repo(tmp_path / "eager"), {})
    assert audit(*_synthetic_repo(tmp_path / "lazy", _LAZY_INIT), {}) == eager


def test_a_stale_allowlist_entry_is_named(tmp_path):
    src, corpus = _synthetic_repo(tmp_path)
    allowed = {
        "pkg.orphan": "arrives from outside",
        "pkg.used.Thing.hidden": "  ",  # no reason given
        "pkg.used.helper": "has a caller now",
        "pkg.used.gone": "names nothing",
    }
    orphans, stale = audit(src, corpus, allowed)
    assert orphans == ["pkg.used.chained", "pkg.used.never_called"]
    assert stale == ["pkg.used.Thing.hidden", "pkg.used.gone", "pkg.used.helper"]


# -- options -----------------------------------------------------------------

_SEAM = (
    "the test seam tests/test_serve.py substitutes a fake clock through, so "
    "record timestamps and retry waits run without real time passing"
)

#: option ``qualified(param)`` -> why it stays although nothing sets it
ALLOWED_OPTIONS: Dict[str, str] = {
    "repro.serve.service.PreprocessService(clock)": _SEAM,
    "repro.serve.service.PreprocessService(sleep)": _SEAM,
}


def _literal(node: ast.AST) -> Optional[Tuple[type, str]]:
    """``(type, repr)`` of a literal expression (``True`` and ``1`` are
    different literals), or None for anything else."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None
    return type(value), repr(value)


class Option(NamedTuple):
    """One defaulted parameter and the calls that can reach it."""

    callee: str  # the bare name a call uses: function, method, or class
    path: Path
    start: int  # the defining function's lines, whose own calls don't count
    end: int
    param: str
    position: Optional[int]  # index among the positional arguments, if any
    exempt: bool  # a registered experiment runner: ExperimentRun sets it
    default: Optional[Tuple[type, str]]  # the default's :func:`_literal`


def _decorators(node: ast.AST) -> List[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.append(getattr(target, "attr", getattr(target, "id", "")))
    return names


def options(src_root: Path) -> Dict[str, Option]:
    """Defaulted parameters of the public functions, and of the public
    methods and ``__init__`` of the public classes, under ``src_root``:
    ``module.function(param)``, ``module.Class.method(param)`` or, for
    ``__init__``, ``module.Class(param)``."""
    found: Dict[str, Option] = {}

    def add(qualified: str, callee: str, function: ast.AST, path: Path,
            bound: bool, exempt: bool) -> None:
        args = function.args
        positional = [a.arg for a in args.posonlyargs + args.args][bound:]
        defaulted = positional[len(positional) - len(args.defaults):]
        for name, default in zip(defaulted, args.defaults):
            found[f"{qualified}({name})"] = Option(
                callee, path, function.lineno, function.end_lineno, name,
                positional.index(name), exempt, _literal(default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{qualified}({arg.arg})"] = Option(
                    callee, path, function.lineno, function.end_lineno,
                    arg.arg, None, exempt, _literal(default))

    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if isinstance(node, _FUNCTIONS):
                registered = "register_experiment" in _decorators(node)
                add(f"{module}.{node.name}", node.name, node, path, False,
                    registered)
                continue
            for member in node.body:
                if not isinstance(member, _FUNCTIONS):
                    continue
                if member.name == "__init__":
                    add(f"{module}.{node.name}", node.name, member, path, True,
                        False)
                elif not member.name.startswith("_"):
                    bound = "staticmethod" not in _decorators(member)
                    add(f"{module}.{node.name}.{member.name}", member.name,
                        member, path, bound, False)
    return found


class _Call(NamedTuple):
    path: Path
    line: int
    positional: int  # plain positional arguments before any ``*``
    starred: bool
    keywords: Dict[str, Optional[Tuple[type, str]]]  # keyword -> :func:`_literal`
    forwards: bool  # a ``**`` argument


def _calls(path: Path, tree: ast.AST, calls: Dict[str, List[_Call]],
           handed: Dict[str, List[Tuple[Path, int]]]) -> None:
    """Record every call by the bare name it uses (``cls(...)`` inside a
    class by that class too), and every callable handed on as a value: a
    table entry or an argument of another call."""

    def hand(value: ast.AST) -> None:
        name = getattr(value, "attr", getattr(value, "id", None))
        if name is not None:
            handed.setdefault(name, []).append((path, value.lineno))

    def visit(node: ast.AST, classes: Tuple[ast.ClassDef, ...]) -> None:
        if isinstance(node, ast.ClassDef):
            classes += (node,)
        elif isinstance(node, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
            for value in node.values if isinstance(node, ast.Dict) else node.elts:
                hand(value)
        elif isinstance(node, ast.Call):
            func = node.func
            names = [getattr(func, "attr", getattr(func, "id", ""))]
            if names == ["cls"] and classes:
                names.append(classes[-1].name)
            stars = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            call = _Call(
                path, node.lineno, stars[0] if stars else len(node.args),
                bool(stars),
                {k.arg: _literal(k.value) for k in node.keywords if k.arg},
                any(k.arg is None for k in node.keywords),
            )
            for name in names:
                calls.setdefault(name, []).append(call)
            if names[0] not in ("isinstance", "issubclass"):
                for value in node.args + [k.value for k in node.keywords]:
                    hand(value)
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    visit(tree, ())


def option_audit(
    src_root: Path, corpus: Iterable[Path], allowed: Dict[str, str],
    uncalled: Iterable[str] = (),
) -> Tuple[List[str], List[str]]:
    """``(unset, stale)``: options under ``src_root`` with no setter and no
    ``allowed`` entry, and ``allowed`` entries that name nothing, name an
    option with a setter, or give no reason.  Options of the ``uncalled``
    definitions (:data:`ALLOWED`'s) are not audited: nothing calls them."""
    calls: Dict[str, List[_Call]] = {}
    handed: Dict[str, List[Tuple[Path, int]]] = {}
    mentioned: Set[str] = set()
    for path in sorted(src_root.rglob("*.py")) + sorted(corpus):
        text = path.read_text(errors="replace")
        if path.suffix == ".py":
            _calls(path, ast.parse(text, filename=str(path)), calls, handed)
        else:
            mentioned.update(re.findall(r"([A-Za-z_][A-Za-z0-9_]*)=", text))

    def set_by(option: Option, call: _Call) -> bool:
        if call.path == option.path and option.start <= call.line <= option.end:
            return False
        if option.param in call.keywords:
            value = call.keywords[option.param]
            return value is None or value != option.default
        if call.forwards:
            return True
        return option.position is not None and (
            option.position < call.positional or call.starred)

    skip = set(uncalled)
    unset = set()
    for qualified, option in options(src_root).items():
        if option.exempt or qualified.partition("(")[0] in skip:
            continue
        if option.param in mentioned:
            continue
        if any(set_by(option, call) for call in calls.get(option.callee, ())):
            continue
        if any(path != option.path or not option.start <= line <= option.end
               for path, line in handed.get(option.callee, ())):
            continue
        unset.add(qualified)
    stale = sorted(
        name for name, reason in allowed.items()
        if name not in unset or not reason.strip()
    )
    return sorted(unset - set(allowed)), stale


def test_every_option_has_a_setter():
    unset, stale = option_audit(
        REPO / "src", corpus_files(), ALLOWED_OPTIONS, uncalled=ALLOWED)
    assert not unset, (
        "options no call in src/, examples/ or benchmarks/ passes and no "
        "docs/ or .github/ line names (tests do not count) — make each the "
        "constant it always was, or add it to ALLOWED_OPTIONS with the "
        "reason it stays:\n  " + "\n  ".join(unset)
    )
    assert not stale, (
        "ALLOWED_OPTIONS entries that are gone, have a setter now, or give "
        "no reason:\n  " + "\n  ".join(stale)
    )


def _options_repo(root: Path) -> Tuple[Path, List[Path]]:
    """A package whose options are set in every way the audit knows, plus
    ``only_tested(flag)``, which only a test passes."""
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "knobs.py").write_text(
        "def only_tested(x, flag=False):\n    return only_tested(x, flag=flag)\n\n"
        "def by_keyword(x, depth=1):\n    return depth\n\n"
        "def by_position(x, depth=1):\n    return depth\n\n"
        "def forwarded(x, depth=1, *, width=2):\n    return depth\n\n"
        "def tabled(x, depth=1):\n    return depth\n\n"
        "class Widget:\n"
        "    def __init__(self, size=1, color='red'):\n        self.size = size\n"
        "    @classmethod\n"
        "    def small(cls):\n        return cls(0)\n"
        "    def paint(self, color='blue'):\n        return color\n"
    )
    (package / "cli.py").write_text(
        "from pkg.knobs import Widget, by_keyword, by_position, forwarded, "
        "only_tested, tabled\n\n"
        "TABLE = {'tabled': tabled}\n\n"
        "def main(**options):\n"
        "    only_tested(1)\n"
        "    by_keyword(1, depth=2)\n"
        "    by_position(1, 2)\n"
        "    forwarded(1, **options)\n"
        "    return Widget.small(), TABLE\n"
    )
    tests = root / "tests"
    tests.mkdir()
    (tests / "test_knobs.py").write_text(
        "from pkg.knobs import Widget, only_tested\n\n"
        "def test_flag():\n    only_tested(1, flag=True)\n"
        "    Widget(color='green').paint(color='red')\n"
    )
    docs = root / "docs" / "knobs.md"
    docs.parent.mkdir()
    docs.write_text("Paint it with `widget.paint(color=...)`.\n")
    return root / "src", [docs]


def test_a_test_only_option_is_named(tmp_path):
    src, corpus = _options_repo(tmp_path)
    unset, stale = option_audit(src, corpus, {})
    # keyword, positional, cls(...), ** and table setters count; the
    # function's call of itself and the test's calls do not; the docs
    # line sets every option named color
    assert unset == ["pkg.knobs.only_tested(flag)"]
    assert stale == []
    assert len(options(src)) == 9
    # without the docs line nothing sets a color
    assert option_audit(src, [], {})[0] == [
        "pkg.knobs.Widget(color)", "pkg.knobs.Widget.paint(color)",
        "pkg.knobs.only_tested(flag)",
    ]


def test_a_stale_option_entry_is_named(tmp_path):
    src, corpus = _options_repo(tmp_path)
    allowed = {
        "pkg.knobs.only_tested(flag)": "a test seam",
        "pkg.knobs.by_keyword(depth)": "has a setter now",
        "pkg.knobs.gone(depth)": "names nothing",
    }
    unset, stale = option_audit(src, corpus, allowed)
    assert unset == []
    assert stale == ["pkg.knobs.by_keyword(depth)", "pkg.knobs.gone(depth)"]
    allowed = {"pkg.knobs.only_tested(flag)": " "}
    assert option_audit(src, corpus, allowed)[1] == ["pkg.knobs.only_tested(flag)"]


_KNOBS = (
    "def f(x, depth=1, *, width=2):\n    return depth\n\n"
    "class Widget:\n"
    "    def __init__(self, size=1):\n        self.size = size\n"
    "    @classmethod\n"
    "    def small(cls):\n        return cls()\n"
    "    @staticmethod\n"
    "    def make(depth=1):\n        return depth\n"
    "    def paint(self, color='blue'):\n        return color\n"
)

#: ``id -> (caller source, option, set?)``: one way of reaching one option
#: per case, alone
SETTER_FORMS = {
    "keyword": ("f(1, depth=2)", "pkg.knobs.f(depth)", True),
    "position": ("f(1, 2)", "pkg.knobs.f(depth)", True),
    "starred positionals": ("f(*ARGS)", "pkg.knobs.f(depth)", True),
    "** forwarding": ("f(1, **OPTIONS)", "pkg.knobs.f(width)", True),
    "keyword-only by keyword": ("f(1, width=3)", "pkg.knobs.f(width)", True),
    "table entry": ("TABLE = {'f': f}", "pkg.knobs.f(depth)", True),
    "handed to a call": ("register(f)", "pkg.knobs.f(depth)", True),
    "staticmethod position": ("Widget.make(2)", "pkg.knobs.Widget.make(depth)", True),
    "bound method position": ("Widget().paint('red')",
                              "pkg.knobs.Widget.paint(color)", True),
    "too few positionals": ("f(1)", "pkg.knobs.f(depth)", False),
    "keyword-only by position": ("f(1, 2)", "pkg.knobs.f(width)", False),
    "another keyword": ("f(1, depth=2)", "pkg.knobs.f(width)", False),
    "isinstance argument": ("isinstance(1, Widget)", "pkg.knobs.Widget(size)",
                            False),
    "class called by name": ("Widget(size=2)", "pkg.knobs.Widget(size)", True),
    "no call at all": ("X = 1", "pkg.knobs.Widget.paint(color)", False),
    "keyword with the default literal": ("f(1, depth=1)", "pkg.knobs.f(depth)",
                                         False),
    "keyword-only with the default literal": ("f(1, width=2)", "pkg.knobs.f(width)",
                                              False),
    "keyword with an equal literal of another type": ("f(1, depth=True)",
                                                      "pkg.knobs.f(depth)", True),
    "keyword with a name": ("f(1, depth=ARGS)", "pkg.knobs.f(depth)", True),
}


@pytest.mark.parametrize("form", SETTER_FORMS)
def test_each_setter_form_alone(form, tmp_path):
    caller, option, is_set = SETTER_FORMS[form]
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "knobs.py").write_text(_KNOBS)
    (package / "use.py").write_text(
        "from pkg.knobs import Widget, f\n"
        "ARGS = (1, 2)\nOPTIONS = {}\n\n"
        "def register(callable_):\n    return callable_\n\n"
        f"{caller}\n"
    )
    assert option in options(tmp_path / "src")
    unset, stale = option_audit(tmp_path / "src", [], {})
    assert (option not in unset) is is_set, unset
    assert stale == []


def test_cls_inside_its_class_is_a_call_of_that_class(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    knobs = package / "knobs.py"
    knobs.write_text(_KNOBS)
    assert "pkg.knobs.Widget(size)" in option_audit(tmp_path / "src", [], {})[0]
    knobs.write_text(_KNOBS.replace("return cls()", "return cls(0)"))
    assert "pkg.knobs.Widget(size)" not in option_audit(tmp_path / "src", [], {})[0]


def test_a_corpus_call_sets_and_a_test_call_does_not(tmp_path):
    """A call under ``examples/`` sets an option, a ``name=`` line in the
    docs sets every option so named, and ``tests/`` is never read."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "knobs.py").write_text(_KNOBS)
    (tmp_path / "examples").mkdir()
    demo = tmp_path / "examples" / "demo.py"
    demo.write_text("from pkg.knobs import f\nf(1, depth=2)\n")
    (tmp_path / "docs").mkdir()
    docs = tmp_path / "docs" / "knobs.md"
    docs.write_text("Call `paint(color='red')`.\n")
    src = tmp_path / "src"
    unset = option_audit(src, [], {})[0]
    assert {"pkg.knobs.f(depth)", "pkg.knobs.Widget.paint(color)"} <= set(unset)
    unset = option_audit(src, [demo, docs], {})[0]
    assert "pkg.knobs.f(depth)" not in unset
    assert "pkg.knobs.Widget.paint(color)" not in unset
    assert "pkg.knobs.f(width)" in unset
    assert not any(path.is_relative_to(REPO / "tests") for path in corpus_files())


def test_a_registered_experiment_runner_and_an_uncalled_definition_are_not_audited(
        tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "runners.py").write_text(
        "def register_experiment(name):\n    return lambda fn: fn\n\n"
        "@register_experiment('fig3')\n"
        "def fig3(scale=1.0):\n    return scale\n\n"
        "def orphan(depth=1):\n    return depth\n\n"
        "def plain(depth=1):\n    return depth\n"
    )
    src = tmp_path / "src"
    unset, _ = option_audit(src, [], {}, uncalled=["pkg.runners.orphan"])
    assert unset == ["pkg.runners.plain(depth)"]
    assert options(src)["pkg.runners.fig3(scale)"].exempt


def cli_flags(parser) -> int:
    """Optional flags of ``parser`` and every subcommand under it, walked
    recursively; ``-h/--help`` is not counted, and a subcommand reached
    twice (an alias) counts once."""
    import argparse

    seen: Set[int] = set()

    def walk(parser) -> int:
        count = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    if id(sub) not in seen:
                        seen.add(id(sub))
                        count += walk(sub)
            elif action.option_strings and not isinstance(
                action, argparse._HelpAction
            ):
                count += 1
        return count

    return walk(parser)


def test_cli_flags_counts_nested_subcommands_once_without_help():
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers()
    run = sub.add_parser("run", aliases=["r"])
    run.add_argument("ids", nargs="*")
    run.add_argument("--json", action="store_true")
    fleet = sub.add_parser("fleet").add_subparsers()
    fleet.add_parser("trace").add_argument("--seed", type=int)
    assert cli_flags(parser) == 3


if __name__ == "__main__":
    # the figures CI records beside the src/ line count
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    sys.stdout.write(
        f"options: {len(options(REPO / 'src'))} defaulted public parameters, "
        f"{len(ALLOWED_OPTIONS)} in ALLOWED_OPTIONS\n"
        f"CLI flags: {cli_flags(build_parser())} (argparse, --help excluded)\n"
    )
