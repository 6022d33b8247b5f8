"""Every public definition of ``src/repro`` has a caller.

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
import name`` is followed through the ``__init__`` re-exports to the module
that defines ``name``); a method is matched by bare attribute name
(``getattr(x, "name")`` included), so the guard can miss an orphan method
whose name another class also uses, and any name the corpus happens to
mention.  A call from code that itself has no caller is not a caller: the
scan runs to a fixed point.  It never names code that is called.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

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
    "repro.api.experiment.RunStore.fetch":
        "the single-run load / run / save cycle; TestRunStore observes the cache's "
        "hit, miss, force and key isolation through it",
    "repro.api.result.RunResult.starved":
        "the record's own reading of its utilization; tests/test_api.py asserts a "
        "one-worker run through it",
    "repro.serve.sources.SyntheticJobSource.exhausted":
        "tests/test_serve.py tells a drained source from a paused one through it",
    "repro.storage.smartssd.SmartSsd.tdp":
        "tests/test_storage.py checks the device stays inside the 25 W NVMe "
        "envelope through it",
    # the documented lookups of the public API
    "repro.api.registry.get_system": _LOOKUP,
    "repro.api.experiment.get_experiment": _LOOKUP,
    "repro.api.experiment.available_experiments": _LOOKUP,
    "repro.fleet.policy.available_policies":
        _LOOKUP + "; `repro fleet run --policy` help names it",
    "repro.fleet.autoscale.available_autoscalers": _LOOKUP,
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
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        reexports.setdefault(module, {})[alias.name] = node.module
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


def _synthetic_repo(root: Path) -> Tuple[Path, List[Path]]:
    """A three-module package plus one example: ``pkg.used`` has callers,
    ``pkg.orphan`` is re-exported by the ``__init__`` and called by nothing,
    ``chained`` is called only by a function nothing calls."""
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.used import helper, Thing\n"
        "from pkg.orphan import lonely\n"
        '__all__ = ["helper", "Thing", "lonely", "never_called"]\n'
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
