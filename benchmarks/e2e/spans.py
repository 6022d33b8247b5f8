"""In-memory spans around the calls into each layer, taken from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` swaps each
public function named in :data:`LAYER_CALLS` for a wrapper that records one
span (name, start, end, parent, phase, iteration) per call, and restores
the originals afterwards.  The untraced pass never installs anything, so
the end-to-end numbers carry no instrumentation cost.

A target that has moved (``ImportError`` / ``AttributeError``) is noted in
:attr:`Tracer.missing` and its layer reads 0 — later refactors cannot edit
this directory, so a moved helper must not take the benchmark down.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
import types
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: harness-owned span around one timed iteration body
ROOT = "workload.iteration"

#: (span name, module, dotted attribute[, label]) — the layer boundaries.
#: Module-level functions imported with ``from x import f`` are listed once
#: per importing module, because that module holds its own reference.
#: ``label(self)`` appends a per-call suffix to the span name.
LAYER_CALLS: Tuple[tuple, ...] = (
    ("features.synthetic.generate", "repro.features.synthetic",
     "SyntheticTableGenerator.generate"),
    ("dataio.partition.write", "repro.dataio.partition",
     "RowPartitioner.partition_all"),
    ("dataio.columnar.write", "repro.dataio.columnar", "ColumnarFileWriter.write"),
    ("dataio.columnar.read", "repro.dataio.columnar",
     "ColumnarFileReader.read_columns"),
    ("dataio.encoding.encode", "repro.dataio.encoding", "encode_column"),
    ("dataio.encoding.decode", "repro.dataio.encoding", "decode_column"),
    ("dataio.rowformat.write", "repro.dataio.rowformat", "RowFileWriter.write"),
    ("dataio.rowformat.read", "repro.dataio.rowformat",
     "RowFileReader.read_columns"),
    ("ops.pipeline.build", "repro.ops.pipeline", "PreprocessingPipeline.__init__"),
    # run_many calls run per partition; nested same-name spans count once
    ("ops.pipeline.transform", "repro.ops.pipeline",
     "PreprocessingPipeline.run_many"),
    ("ops.pipeline.transform", "repro.ops.pipeline", "PreprocessingPipeline.run"),
    ("ops.bucketize", "repro.ops.bucketize", "Bucketizer.__call__"),
    ("ops.sigridhash", "repro.ops.sigridhash", "SigridHasher.__call__"),
    ("ops.lognorm", "repro.ops.lognorm", "log_normalize"),
    ("ops.lognorm", "repro.ops.pipeline", "log_normalize"),
    ("ops.format", "repro.ops.format", "to_minibatch"),
    ("ops.format", "repro.ops.pipeline", "to_minibatch"),
    ("exec.executor.run", "repro.exec.executor", "ShardExecutor.run"),
    ("exec.executor.run", "repro.exec.executor", "ShardExecutor.run_staged"),
    ("api.preprocess.job_run", "repro.api.preprocess", "PreprocessJob.run"),
    ("api.preprocess.digest", "repro.api.preprocess", "minibatch_digest"),
    ("api.preprocess.digest", "repro.serve.service", "minibatch_digest"),
    ("core.systems.create", "repro.api.registry", "SystemRegistry.create"),
    ("core.manager.launch", "repro.core.manager", "PreprocessManager.launch"),
    ("training.trainer.measure", "repro.training.trainer",
     "TrainManager.measure_max_throughput"),
    ("core.endtoend.run", "repro.core.endtoend", "EndToEndSimulation.run"),
    ("fleet.trace.generate", "repro.fleet.trace", "generate_trace"),
    ("fleet.simulator.init", "repro.fleet.simulator", "FleetSimulator.__init__"),
    ("fleet.simulator.run", "repro.fleet.simulator", "FleetSimulator.run"),
    ("fleet.provision", "repro.core.systems", "PreprocessingSystem.provision_for"),
    ("experiments.report.run_all", "repro.experiments.report", "run_all"),
    ("experiments.report.render", "repro.experiments.report", "render_report"),
    ("experiments", "repro.api.experiment", "ExperimentRun.run",
     lambda run: "." + run.experiment),
    ("batch.runner.run", "repro.batch.runner", "BatchRunner.run"),
)

#: spans whose *self* time is the residual of a front-door call, not a
#: named layer: it does not count towards ``harness.ledger_coverage``
RESIDUAL = frozenset({
    ROOT,
    "exec.executor.run",
    "core.endtoend.run",
    "experiments.report.run_all",
    "api.preprocess.job_run",
    "fleet.day_1k",
    "fleet.day_3k",
})

#: a layer reports the first phase it appears in, in this order: the timed
#: body, the workload's probes, output verification, set-up
PHASE_ORDER = ("iter", "probe", "check", "setup")


class NullTracer:
    """The untraced pass: ``span`` is free and nothing is recorded."""

    phase = None
    iteration = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer:
    """Records spans in memory; written out once, when the pass ends."""

    def __init__(self) -> None:
        #: (id, parent id or -1, name, start, end, phase, iteration)
        self.spans: List[tuple] = []
        #: span name -> why its target could not be wrapped
        self.missing: Dict[str, str] = {}
        self.phase = "setup"
        self.iteration = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, self.phase, self.iteration)
            )

    def _wrap(self, name: str, fn: Callable, label: Optional[Callable]) -> Callable:
        spans, ids, stack_of, clock = (
            self.spans, self._ids, self._stack, time.perf_counter
        )

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                full = name + label(args[0]) if label else name
                spans.append(
                    (span_id, parent, full, start, end, self.phase, self.iteration)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Swap every layer call for its traced wrapper (idempotent)."""
        if self._originals:
            return
        for name, module_name, path, *rest in LAYER_CALLS:
            label = rest[0] if rest else None
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[name] = f"{module_name}:{path}: {exc!r}"
                continue
            if not isinstance(original, types.FunctionType):
                self.missing[name] = f"{module_name}:{path}: not a plain function"
                continue
            setattr(owner, attr, self._wrap(name, original, label))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def write(self, path: str, workload: str) -> None:
        """One JSON line per span (the ``--out`` artifact)."""
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, phase, iteration in sorted(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "phase": phase,
                    "iteration": iteration, "workload": workload,
                }) + "\n")


class Ledger:
    """Per-layer inclusive and self times computed from a finished trace."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        self._by_id = {span[0]: span for span in spans}
        #: (name, phase) -> its spans, so a query does not rescan the trace
        self._by_key: Dict[Tuple[str, str], List[tuple]] = {}
        self._child_time: Dict[int, float] = {}
        for span in self._by_id.values():
            _id, parent, name, start, end, phase, _iteration = span
            self._by_key.setdefault((name, phase), []).append(span)
            if parent >= 0:
                self._child_time[parent] = (
                    self._child_time.get(parent, 0.0) + (end - start)
                )

    def _own(self, span: tuple) -> float:
        """Seconds inside ``span`` and outside every child span."""
        return (span[4] - span[3]) - self._child_time.get(span[0], 0.0)

    def _ancestors(self, span: tuple) -> Iterable[str]:
        parent = span[1]
        while parent >= 0:
            span = self._by_id.get(parent)
            if span is None:  # parent still open when the trace was cut
                return
            yield span[2]
            parent = span[1]

    def names(self) -> List[str]:
        return sorted({name for name, _phase in self._by_key})

    def per_iteration(
        self, name: str, phase: str, under: Optional[str] = None
    ) -> Dict[int, float]:
        """iteration -> inclusive seconds of the outermost ``name`` spans.

        A span nested inside another of the same name is already counted by
        its ancestor.  ``under`` keeps only spans below a span of that name.
        """
        totals: Dict[int, float] = {}
        for span in self._by_key.get((name, phase), ()):
            above = list(self._ancestors(span))
            if name in above or (under is not None and under not in above):
                continue
            totals[span[6]] = totals.get(span[6], 0.0) + (span[4] - span[3])
        return totals

    def self_per_iteration(self, name: str, phase: str = "iter") -> Dict[int, float]:
        """iteration -> seconds in ``name`` spans outside any child span."""
        totals: Dict[int, float] = {}
        for span in self._by_key.get((name, phase), ()):
            totals[span[6]] = totals.get(span[6], 0.0) + self._own(span)
        return totals

    def coverage(self) -> Dict[int, float]:
        """iteration -> share of its wall held by named layers' self time."""
        walls = self.per_iteration(ROOT, "iter")
        named: Dict[int, float] = {}
        for (name, phase), spans in self._by_key.items():
            if phase == "iter" and name not in RESIDUAL:
                for span in spans:
                    named[span[6]] = named.get(span[6], 0.0) + self._own(span)
        return {
            iteration: named.get(iteration, 0.0) / wall
            for iteration, wall in walls.items() if wall > 0
        }
