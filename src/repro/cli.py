"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``report``          — run every registered experiment + ablation, print the
                        full paper-vs-measured report and claims scoreboard;
                        ``--only figures|tables|ablations`` narrows the set,
                        ``--json`` emits the structured payload, and results
                        are cached on disk (``--force`` re-runs,
                        ``--no-cache`` disables);
* ``list``            — list registered experiment ids (``--only`` filters);
* ``run <id> [...]``  — run one or more experiments by id (e.g. ``fig12``,
                        ``table2``, ``abl-lanes``) and print their tables;
                        ``--set param=value`` overrides experiment params
                        (e.g. ``--set model=RM1``) or calibration fields,
                        ``--json`` emits the structured results;
* ``run --model RM5 --system PreSto [--gpus N]`` — run one declarative
                        scenario through the :mod:`repro.api` front door;
* ``sweep``           — run a scenario grid (models x systems x gpus) and
                        tabulate the results;
* ``systems``         — list registered system design points;
* ``provision <model> [--gpus N]`` — print the T/P provisioning of every
                        system design point for one Table I model;
* ``export``          — write every experiment's rows (with a header row) as
                        CSV or, with ``--format json``, as JSON files;
* ``preprocess``      — actually run the sharded preprocessing data plane
                        (write -> read -> transform across a process pool)
                        for one model and print the throughput/digest
                        summary; ``--check`` proves the parallel run is
                        byte-identical to the serial pipeline;
* ``serve``           — run the streaming preprocessing daemon: a bounded
                        work queue feeding a persistent worker pool, watched
                        job sources (``--watch DIR``, ``--synthetic SPEC``),
                        a JSONL job index in the spool directory, and a
                        line-oriented JSON socket protocol for clients;
* ``submit``/``status``/``jobs``/``cancel``/``shutdown`` — the client
                        surface of a running daemon: submit a preprocessing
                        job (``--wait`` streams it to completion), poll one
                        job or list all of them, cancel a queued job, or
                        stop the daemon (draining by default).  Clients find
                        the daemon through ``--spool`` (its
                        ``endpoint.json``) or an explicit ``--host/--port``;
* ``chaos``           — run the seeded fault matrix against one tier
                        (``--tier serve|batch|fleet``) and gate its
                        invariants; ``--json`` is byte-stable per seed;
* ``fleet run`` / ``fleet trace gen|replay`` — simulate an arrival trace on
                        the multi-tenant fleet (placement policy, autoscaler,
                        optional node faults), or generate / round-trip a
                        seeded JSONL trace.

``repro <command> --help`` is the authority on each command's flags.

Experiments are resolved through :data:`repro.api.EXPERIMENT_REGISTRY`, so a
user-registered experiment (see ``examples/custom_experiment.py``) shows up
in ``list``/``run``/``report``/``export`` without touching this module —
point ``$REPRO_EXPERIMENTS`` at a comma-separated list of importable modules
and the registry loads them before resolving ids.

:func:`main` is the one typed-error boundary: a ``ReproError``/``OSError``
escaping any command exits 1 with its one-line message, so commands never
catch-and-exit themselves (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.api import (
    EXPERIMENT_REGISTRY,
    REGISTRY,
    BatchPolicy,
    ExperimentRun,
    RunResult,
    RunStore,
    Scenario,
    available_systems,
    run_experiments,
)
from repro.api.experiment import format_table
from repro.errors import ConfigurationError, ProvisioningError, ReproError
from repro.features.specs import MODEL_NAMES, get_model
from repro.hardware.calibration import FIELD_DOMAINS

#: ``--only`` choices -> registry kinds
_ONLY_KINDS = {"figures": "figure", "tables": "table", "ablations": "ablation"}

#: ``run``'s scenario flags -> the :class:`Scenario` field each sets
_SCENARIO_FLAGS = {
    "gpus": "num_gpus",
    "workers": "num_workers",
    "batches": "num_batches",
    "queue": "queue_capacity",
}

#: ``chaos`` flags -> the episode keyword each sets
_CHAOS_FLAGS = {
    "jobs": "num_jobs",
    "rows": "rows",
    "shards": "shards",
    "workers": "workers",
    "timeout": "job_timeout_s",
}

#: columns of the scenario/sweep result table
RESULT_HEADERS = (
    "model",
    "system",
    "GPUs",
    "workers",
    "util (%)",
    "steady util (%)",
    "supply (samples/s)",
    "power (W)",
    "CapEx ($)",
)


def _result_row(result: RunResult) -> tuple:
    scenario = result.scenario
    return (
        scenario.model,
        scenario.system,
        scenario.num_gpus,
        result.num_workers,
        100.0 * result.gpu_utilization,
        100.0 * result.steady_state_utilization,
        result.preprocessing_throughput,
        result.power_watts,
        result.capex_dollars,
    )


def _given(args: argparse.Namespace, flags: Dict[str, str]) -> Dict[str, Any]:
    """``{keyword: value}`` for each of ``flags`` (dest -> keyword) given
    on the command line; an omitted flag leaves the callee's default."""
    return {
        keyword: getattr(args, dest)
        for dest, keyword in flags.items()
        if getattr(args, dest, None) is not None
    }


def _print_results(results: List[RunResult], title: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
        return
    print(format_table(RESULT_HEADERS, [_result_row(r) for r in results], title))


def _parse_overrides(pairs: Optional[List[str]]) -> Dict[str, float]:
    """Scenario-path ``--set``: calibration overrides only, all numeric."""
    overrides: Dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--set expects field=value, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise SystemExit(f"--set {name}: {value!r} is not a number")
    return overrides


def _parse_set_pairs(pairs: Optional[List[str]]) -> Dict[str, Any]:
    """Experiment-path ``--set``: values parse as JSON when possible (ints,
    floats, lists), else stay strings (``--set model=RM1``)."""
    parsed: Dict[str, Any] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--set expects param=value, got {pair!r}")
        try:
            parsed[name] = json.loads(value)
        except ValueError:
            parsed[name] = value
    return parsed


def _experiment_runs_for(
    command_ids: List[str], overrides: Optional[Dict[str, Any]] = None
) -> List[ExperimentRun]:
    """Resolve ``command_ids`` and split ``--set`` overrides per experiment.

    Each override applies to every listed experiment that accepts it — as a
    parameter, or as a calibration field when the experiment takes
    calibration.  A name no listed experiment can consume is an error.
    """
    # the registry's own errors are already actionable: unknown ids
    # list the registered experiments, $REPRO_EXPERIMENTS import
    # failures name the broken module
    specs = [EXPERIMENT_REGISTRY.get(command_id) for command_id in command_ids]
    overrides = overrides or {}
    for name in overrides:
        takes_param = any(name in spec.param_names() for spec in specs)
        takes_cal = name in FIELD_DOMAINS and any(
            spec.takes_calibration for spec in specs
        )
        if not takes_param and not takes_cal:
            known = sorted({p for spec in specs for p in spec.param_names()})
            raise SystemExit(
                f"--set {name}: no listed experiment has such a parameter "
                f"(parameters: {', '.join(known) or 'none'}) and it is not "
                "an applicable calibration field"
            )
    runs = []
    for spec in specs:
        params = {
            name: value
            for name, value in overrides.items()
            if name in spec.param_names()
        }
        calibration = {
            name: value
            for name, value in overrides.items()
            if name in FIELD_DOMAINS
            and name not in params
            and spec.takes_calibration
        }
        runs.append(
            ExperimentRun(spec.id, params=params, calibration=calibration)
        )
    return runs


def _parse_only(only: Optional[str]) -> Optional[List[str]]:
    """``--only figures,tables`` -> registry kinds (or None for all)."""
    if not only:
        return None
    kinds = []
    for token in _csv(only):
        kind = _ONLY_KINDS.get(token.lower())
        if kind is None:
            raise SystemExit(
                f"--only expects a comma list of {'|'.join(_ONLY_KINDS)}, "
                f"got {token!r}"
            )
        kinds.append(kind)
    return kinds


def _store_from_args(args: argparse.Namespace) -> Optional[RunStore]:
    """The result cache the command should use (None when disabled)."""
    if getattr(args, "no_cache", False):
        return None
    return RunStore(getattr(args, "cache_dir", None) or None)


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _batch_journal(args: argparse.Namespace):
    """``(journal, resume)`` from ``--run-id``/``--resume``.

    ``--resume RUN_ID`` implies the journal of that run; ``--run-id``
    starts a fresh journaled run.  With neither, no journal is written.
    The journal lives under ``<cache-dir>/batch`` when ``--cache-dir``
    is given, else under the default store root.
    """
    from repro.batch import BatchJournal

    resume_id = getattr(args, "resume", None)
    run_id = resume_id or getattr(args, "run_id", None)
    if run_id is None:
        return None, False
    cache_dir = getattr(args, "cache_dir", None)
    root = os.path.join(cache_dir, "batch") if cache_dir else None
    journal = BatchJournal.for_run(run_id, root=root)
    return journal, resume_id is not None


def _print_outcomes(outcomes, title: str, as_json: bool) -> None:
    """Degrade-mode sweep output: ok rows tabulated, failures named."""
    if as_json:
        payload = []
        for outcome in outcomes:
            record = outcome.to_dict()
            if outcome.ok:
                record["result"] = outcome.result.to_dict()
            payload.append(record)
        print(json.dumps(payload, indent=2))
        return
    ok = [outcome.result for outcome in outcomes if outcome.ok]
    if ok:
        print(format_table(
            RESULT_HEADERS, [_result_row(r) for r in ok], title
        ))
    for outcome in outcomes:
        if not outcome.ok:
            print(
                f"FAILED {outcome.label}: {outcome.state} after "
                f"{outcome.attempts} attempt(s): {outcome.error}"
            )


def cmd_report(args: argparse.Namespace) -> int:
    """Full report (cached, optionally JSON)."""
    from repro.experiments import report as report_mod

    journal, resume = _batch_journal(args)
    results = report_mod.run_all(
        kinds=_parse_only(args.only),
        store=_store_from_args(args),
        force=args.force,
        policy=BatchPolicy(failure_mode=args.failure_mode),
        journal=journal,
        resume=resume,
    )
    if args.json:
        print(json.dumps(report_mod.report_payload(results), indent=2))
    else:
        print(report_mod.render_report(results))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """Registered experiments, in paper order."""
    kinds = _parse_only(args.only)
    specs = [
        spec
        for spec in EXPERIMENT_REGISTRY.experiments()
        if kinds is None or spec.kind in kinds
    ]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "id": spec.id,
                        "title": spec.title,
                        "kind": spec.kind,
                        "params": spec.default_params(),
                        "doc": spec.doc,
                    }
                    for spec in specs
                ],
                indent=2,
            )
        )
        return 0
    for spec in specs:
        params = ", ".join(spec.param_names())
        suffix = f"  [{params}]" if params else ""
        print(f"{spec.id:15} {spec.kind:9} -> {spec.title}{suffix}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run experiments by id, or one declarative scenario via --model/--system."""
    wants_scenario = args.model or args.system
    shape = _given(args, _SCENARIO_FLAGS)
    if wants_scenario:
        if args.ids:
            raise SystemExit("pass experiment ids OR --model/--system, not both")
        if not (args.model and args.system):
            raise SystemExit("scenario runs need both --model and --system")
        scenario = Scenario(
            model=args.model,
            system=args.system,
            calibration=_parse_overrides(args.set),
            **shape,
        )
        result = scenario.run()
        _print_results([result], f"Scenario {scenario.label}", args.json)
        if not args.json:
            print(result.summary())
        return 0
    if not args.ids:
        raise SystemExit("pass experiment ids (see `list`) or --model/--system")
    if shape:
        flags = ", ".join(
            f"--{dest}" for dest, field in _SCENARIO_FLAGS.items()
            if field in shape
        )
        raise SystemExit(
            f"{flags}: scenario flags need --model/--system; experiment "
            "ids take --set param=value"
        )
    from repro.experiments import report as report_mod

    payloads = []
    for run in _experiment_runs_for(args.ids, _parse_set_pairs(args.set)):
        result = run.run()
        if args.json:
            payloads.append(report_mod.experiment_record(result, run=run))
        else:
            print(result.render())
            print()
    if args.json:
        print(json.dumps(payloads, indent=2))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a scenario grid (models x systems x gpus) and tabulate it."""
    from repro.api import Sweep

    journal, resume = _batch_journal(args)
    shape = _given(args, _SCENARIO_FLAGS)
    if args.gpus is not None:  # a comma list here, one grid axis
        shape["num_gpus"] = [int(g) for g in _csv(args.gpus)]
    sweep = Sweep.grid(
        models=_csv(args.models),
        systems=_csv(args.systems),
        calibration=_parse_overrides(args.set),
        **shape,
    )
    policy = BatchPolicy(
        max_retries=args.max_retries, failure_mode=args.failure_mode
    )
    results = sweep.run(policy=policy, journal=journal, resume=resume)
    if args.failure_mode == "degrade":
        _print_outcomes(
            results, f"Sweep: {len(results)} scenarios", args.json
        )
        return 0 if all(outcome.ok for outcome in results) else 1
    _print_results(
        results, f"Sweep: {len(results)} scenarios", args.json
    )
    return 0


def cmd_systems(_: argparse.Namespace) -> int:
    """Registered system design points."""
    for name in available_systems():
        doc = (REGISTRY.get(name).__doc__ or "").strip()
        first_line = doc.splitlines()[0] if doc else "(no description)"
        print(f"{name:14} {first_line}")
    return 0


def cmd_provision(args: argparse.Namespace) -> int:
    """Provisioning summary across system designs."""
    spec = get_model(args.model)
    if args.gpus <= 0:
        raise ConfigurationError("num_gpus must be positive")
    print(
        f"{spec.name}: provisioning for {args.gpus} GPU(s), "
        f"batch {spec.batch_size}"
    )
    for name in available_systems():
        system = REGISTRY.create(name, spec)
        try:
            plan = system.provision_for(args.gpus)
        except (ConfigurationError, ProvisioningError) as exc:  # co-located caps
            print(f"  {name:14} not provisionable: {exc}")
            continue
        print(
            f"  {name:14} {plan.num_workers:5d} workers  "
            f"(P = {plan.worker_throughput:12,.0f} samples/s, "
            f"headroom {plan.headroom:.2f}x)"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Write every experiment's rows (with header) as CSV or JSON files."""
    import csv

    os.makedirs(args.dir, exist_ok=True)
    runs = _experiment_runs_for(args.ids or list(EXPERIMENT_REGISTRY.ids()))
    results = run_experiments(
        runs, store=_store_from_args(args), force=args.force
    )
    written = []
    for run, result in zip(runs, results):
        try:
            columns = list(result.columns())
            rows = [list(row) for row in result.rows()]
        except NotImplementedError:
            print(
                f"warning: skipping {run.experiment!r} — its result does not "
                "implement columns()/rows()",
                file=sys.stderr,
            )
            continue
        if args.format == "json":
            path = os.path.join(args.dir, f"{run.experiment}.json")
            with open(path, "w") as handle:
                json.dump(
                    {
                        "id": run.experiment,
                        "title": run.spec.title,
                        "columns": columns,
                        "rows": rows,
                    },
                    handle,
                    indent=2,
                )
                handle.write("\n")
        else:
            path = os.path.join(args.dir, f"{run.experiment}.csv")
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(columns)
                writer.writerows(rows)
        written.append(path)
    for path in written:
        print(path)
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    """Run the sharded preprocessing data plane and summarize it."""
    from repro.api import PreprocessJob

    job = PreprocessJob(
        model=args.model,
        num_rows=args.rows,
        num_shards=args.shards,
        processes=args.processes,
        seed=args.seed,
    )
    start = time.perf_counter()
    result = job.run(parallel=not args.serial)
    elapsed = time.perf_counter() - start

    check_digest = None
    if args.check and not args.serial:
        check_digest = job.run(parallel=False).digest
        if check_digest != result.digest:
            raise SystemExit(
                f"digest mismatch: parallel {result.digest} != "
                f"serial {check_digest} — sharded run is not serial-identical"
            )

    stats = result.stats
    payload = {
        "job": job.to_dict(),
        "num_shards": stats.num_shards,
        "num_rows": stats.num_rows,
        "file_bytes": stats.file_bytes,
        "bytes_read": stats.bytes_read,
        "transform_elements": stats.transform_elements,
        "elapsed_s": elapsed,
        "rows_per_s": stats.num_rows / elapsed if elapsed else 0.0,
        "digest": result.digest,
        "serial_identical": (
            check_digest == result.digest if check_digest else None
        ),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"Preprocess {job.label}" + (" (serial)" if args.serial else ""))
    print(f"  shards              {stats.num_shards}")
    print(f"  rows                {stats.num_rows}")
    print(f"  transform elements  {stats.transform_elements}")
    print(f"  extract bytes       {stats.bytes_read} of {stats.file_bytes}")
    print(f"  wall time           {elapsed:.3f} s "
          f"({payload['rows_per_s']:,.0f} rows/s)")
    print(f"  digest              {result.digest}")
    if check_digest is not None:
        print("  serial check        byte-identical")
    return 0


#: default spool directory shared by the daemon and its clients
DEFAULT_SPOOL = ".repro-serve"


def _parse_synthetic(spec: str):
    """``MODEL[:ROWS[:SHARDS[:COUNT]]]`` -> a synthetic job source."""
    from repro.serve import SyntheticJobSource

    parts = spec.split(":")
    if len(parts) > 4 or not parts[0]:
        raise SystemExit(
            f"--synthetic expects MODEL[:ROWS[:SHARDS[:COUNT]]], got {spec!r}"
        )
    try:
        kwargs = {"model": parts[0]}
        if len(parts) > 1:
            kwargs["num_rows"] = int(parts[1])
        if len(parts) > 2:
            kwargs["num_shards"] = int(parts[2])
        if len(parts) > 3:
            kwargs["count"] = int(parts[3])
        return SyntheticJobSource(**kwargs)
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"--synthetic {spec!r}: {exc}")


def _client_from_args(args: argparse.Namespace):
    """A protocol client found via --host/--port or the spool endpoint."""
    from repro.serve import ServiceClient

    return ServiceClient(
        host=args.host, port=args.port, spool_dir=args.spool
    )


def _record_lines(record, verbose: bool = False) -> List[str]:
    """Human-readable lines for one job record."""
    lines = [
        f"{record.job_id}  {record.state:9}  {record.job.label:28}  "
        f"source={record.source}  attempts={record.attempts}"
    ]
    if record.digest:
        lines.append(f"    digest  {record.digest}")
    if record.error:
        lines.append(f"    error   {record.error}")
    if verbose:
        for event in record.stages:
            elapsed = (
                f" {event.elapsed_s * 1e3:8.1f} ms"
                if event.elapsed_s is not None
                else ""
            )
            metrics = (
                "  " + ", ".join(f"{k}={v}" for k, v in event.metrics.items())
                if event.metrics
                else ""
            )
            error = f"  error={event.error}" if event.error else ""
            lines.append(
                f"    stage   {event.stage:10} {event.status:9}"
                f"{elapsed}{metrics}{error}"
            )
    return lines


def _print_record(record, as_json: bool, verbose: bool = False) -> None:
    if as_json:
        print(json.dumps(record.to_dict(), indent=2))
    else:
        print("\n".join(_record_lines(record, verbose=verbose)))


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming preprocessing daemon until shutdown."""
    from repro.serve import DirectoryJobSource, PreprocessService, ServiceServer

    if args.faults:
        from repro.faults import FaultInjector, FaultPlan, install
        from repro.faults.plan import check_probed

        plan = FaultPlan.load(args.faults)
        check_probed("serve", (rule.point for rule in plan.rules))
        install(FaultInjector(plan))
    service = PreprocessService(
        spool_dir=args.spool,
        queue_capacity=args.queue,
        num_workers=args.workers,
        policy=args.policy,
        max_retries=args.max_retries,
        backoff_s=args.backoff,
        job_timeout_s=args.job_timeout,
        index_fsync=not args.no_fsync,
    )
    for path in args.watch or []:
        service.attach_source(DirectoryJobSource(path))
    for spec in args.synthetic or []:
        service.attach_source(_parse_synthetic(spec))
    server = ServiceServer(service, host=args.host, port=args.port)
    server.start()
    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(spool {args.spool}, {args.workers} workers, "
        f"queue {args.queue}/{args.policy})",
        flush=True,
    )
    if service.recovered_jobs:
        print(
            f"repro serve: recovered {len(service.recovered_jobs)} "
            f"interrupted job(s): {', '.join(service.recovered_jobs)}",
            flush=True,
        )
    try:
        while not server.wait(timeout=0.5):
            pass
        print("repro serve: shut down", flush=True)
    except KeyboardInterrupt:
        print("repro serve: interrupted — draining", flush=True)
        server.stop(drain=True)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one preprocessing job to a running daemon."""
    from repro.api import PreprocessJob

    job = PreprocessJob(
        model=args.model,
        num_rows=args.rows,
        num_shards=args.shards,
        seed=args.seed,
    )
    client = _client_from_args(args)
    record = client.submit(
        job, wait=args.wait, wait_timeout=args.timeout
    )
    _print_record(record, args.json, verbose=args.wait)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show one job's full lifecycle record."""
    client = _client_from_args(args)
    if args.follow:
        record = None
        for record in client.watch(args.job_id, timeout=args.timeout):
            if not args.json:
                print(_record_lines(record)[0])
        _print_record(record, args.json, verbose=True)
    else:
        _print_record(
            client.status(args.job_id), args.json, verbose=True
        )
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """List every job the daemon knows about."""
    client = _client_from_args(args)
    records = client.jobs(state=args.state)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
        return 0
    if not records:
        print("no jobs")
        return 0
    for record in records:
        print(_record_lines(record)[0])
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued job (running jobs are not cancellable)."""
    client = _client_from_args(args)
    cancelled = client.cancel(args.job_id)
    print(f"{args.job_id}: {'cancelled' if cancelled else 'not cancellable'}")
    return 0 if cancelled else 1


def cmd_shutdown(args: argparse.Namespace) -> int:
    """Ask a running daemon to stop (draining queued work by default)."""
    client = _client_from_args(args)
    client.shutdown(drain=not args.no_drain)
    print("shutdown requested" + (" (no drain)" if args.no_drain else ""))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the seeded fault matrix against a live service; gate on invariants."""
    from repro.faults import ChaosError
    from repro.faults.chaos import (
        check_report,
        deterministic_view,
        render_report,
        run_chaos,
    )

    faults = (
        tuple(f.strip() for f in args.faults.split(",") if f.strip())
        if args.faults
        else None
    )
    report = run_chaos(
        faults,
        seed=args.seed,
        spool_root=args.spool_root,
        tier=args.tier,
        **_given(args, _CHAOS_FLAGS),
    )
    if args.json:
        print(json.dumps(deterministic_view(report), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    try:
        check_report(report)
    except ChaosError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _fleet_injector(faults: str, seed: int):
    """A fresh :class:`FaultInjector` for a comma-separated fault list, or None."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FAULT_POINTS, FaultPlan, FaultRule, check_probed

    points = check_probed(
        "fleet", (f.strip() for f in faults.split(",") if f.strip())
    )
    if not points:
        return None
    return FaultInjector(FaultPlan(seed=seed, rules=tuple(
        FaultRule(point=point, rate=FAULT_POINTS[point].rate) for point in points
    )))


def _fleet_trace(args: argparse.Namespace):
    """The arrival trace a fleet subcommand runs: loaded from ``--trace``
    when given, else generated from the seeded ``--kind`` parameters."""
    from repro.fleet import Trace, generate_trace

    if getattr(args, "trace", None):
        return Trace.load(args.trace)
    return generate_trace(args.kind, num_jobs=args.jobs, seed=args.seed)


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run one trace through the fleet simulator; print or save the result.
    A mistyped name is refused before the trace is generated or loaded."""
    from repro.fleet.simulator import AUTOSCALERS, POLICIES, _lookup, run_fleet

    _lookup(POLICIES, "placement policy", args.policy)
    _lookup(AUTOSCALERS, "autoscaler", args.autoscale)
    injector = (
        _fleet_injector(args.faults, args.fault_seed)
        if args.faults else None
    )
    trace = _fleet_trace(args)
    result = run_fleet(
        trace,
        policy=args.policy,
        autoscaler=args.autoscale,
        injector=injector,
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"fleet run: {result.num_jobs} jobs ({result.trace_kind} trace, "
        f"seed {result.trace_seed}), policy {result.policy}, "
        f"autoscaler {result.autoscaler}"
    )
    print(
        f"  completed {result.completed}  rejected {result.rejected}  "
        f"displacements {result.displacements}  "
        f"reschedules {result.reschedules}  "
        f"lost work {result.lost_work_hours:.1f}h"
    )
    print(
        f"  makespan {result.makespan_s:.0f}s  "
        f"queue mean/p95 {result.mean_queue_s:.0f}/"
        f"{result.p95_queue_s:.0f}s  "
        f"SLO {result.slo_attainment:.3f}  util {result.utilization:.3f}  "
        f"cost ${result.total_cost:,.0f}"
    )
    for pool in result.pools:
        print(
            f"  pool {pool.name} ({pool.system}): peak {pool.peak_nodes} "
            f"nodes  completed {pool.jobs_completed}  "
            f"failures {pool.node_failures}  "
            f"energy {pool.energy_kwh:.1f} kWh  util {pool.utilization:.3f}"
        )
    if result.fault_fires:
        fires = ", ".join(
            f"{point}={count}"
            for point, count in sorted(result.fault_fires.items())
        )
        print(f"  fault fires: {fires}")
    print(f"  digest {result.digest}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_fleet_trace_gen(args: argparse.Namespace) -> int:
    """Generate a seeded arrival trace and write it as replayable JSONL."""
    trace = _fleet_trace(args)
    trace.save(args.out)
    if args.json:
        print(json.dumps({
            "kind": trace.kind,
            "seed": trace.seed,
            "jobs": len(trace),
            "horizon_s": trace.horizon_s,
            "path": args.out,
        }, indent=2, sort_keys=True))
    else:
        print(
            f"wrote {len(trace)} arrivals ({trace.kind} trace, seed "
            f"{trace.seed}, horizon {trace.horizon_s:.0f}s) -> {args.out}"
        )
    return 0


def cmd_fleet_trace_replay(args: argparse.Namespace) -> int:
    """Load a trace file, prove it re-serializes byte-identically, and
    summarize it; exits 1 when the round-trip diverges."""
    from repro.fleet import Trace

    with open(args.path) as handle:
        original = handle.read()
    trace = Trace.load(args.path)
    identical = trace.to_jsonl() == original
    by_model: Dict[str, int] = {}
    for arrival in trace.arrivals:
        by_model[arrival.model] = by_model.get(arrival.model, 0) + 1
    payload = {
        "path": args.path,
        "kind": trace.kind,
        "seed": trace.seed,
        "jobs": len(trace),
        "horizon_s": trace.horizon_s,
        "models": by_model,
        "byte_identical": identical,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        models = ", ".join(
            f"{model}x{count}" for model, count in sorted(by_model.items())
        )
        print(
            f"{args.path}: {len(trace)} arrivals ({trace.kind} trace, seed "
            f"{trace.seed}), models {models}"
        )
        print(
            "round-trip byte-identical"
            if identical
            else "ROUND-TRIP DIVERGED: re-serialized JSONL differs"
        )
    return 0 if identical else 1


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--batches", type=int, default=None,
                        help="training iterations to simulate (default: "
                             "Scenario.num_batches)")
    parser.add_argument("--queue", type=int, default=None,
                        help="input queue capacity in mini-batches "
                             "(default: Scenario.queue_capacity)")
    parser.add_argument("--set", action="append", metavar="FIELD=VALUE",
                        help="calibration override (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="emit RunResult records as JSON")


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--force", action="store_true",
                        help="re-run experiments even when cached")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache root (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro/experiments)")


def _add_batch_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--run-id", default=None, metavar="RUN_ID",
                        help="journal this batch under RUN_ID so an "
                             "interrupted run can be resumed")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="replay RUN_ID's journal: skip completed tasks, "
                             "re-run only interrupted/failed ones")
    parser.add_argument("--failure-mode", choices=("strict", "degrade"),
                        default="strict",
                        help="strict aborts on the first failure (default); "
                             "degrade keeps going and reports per-task "
                             "outcomes")


class _FleetRunHelp(argparse.HelpFormatter):
    """``fleet run --help`` with the placement policies, autoscalers and
    fleet fault points filled in when it is printed, so that building the
    parser imports no part of the fleet tier."""

    def _get_help_string(self, action: argparse.Action) -> str:
        from repro.faults.plan import probed_by
        from repro.fleet import AUTOSCALERS, POLICIES

        return action.help.replace("{policies}", ", ".join(POLICIES)).replace(
            "{autoscalers}", ", ".join(AUTOSCALERS)).replace(
            "{fleet_faults}", ", ".join(probed_by("fleet")))


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PreSto (ISCA 2024) reproduction — experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="run everything, print the full report"
    )
    report.add_argument("--only", default=None, metavar="KINDS",
                        help="comma list of figures|tables|ablations")
    report.add_argument("--json", action="store_true",
                        help="emit the structured report payload as JSON")
    _add_cache_options(report)
    _add_batch_options(report)
    report.set_defaults(func=cmd_report)

    list_parser = sub.add_parser("list", help="list experiment ids")
    list_parser.add_argument("--only", default=None, metavar="KINDS",
                             help="comma list of figures|tables|ablations")
    list_parser.add_argument("--json", action="store_true",
                             help="emit the experiment catalog as JSON")
    list_parser.set_defaults(func=cmd_list)

    run_parser = sub.add_parser(
        "run", help="run experiments by id, or one scenario via --model/--system"
    )
    run_parser.add_argument("ids", nargs="*", help="experiment ids (see `list`)")
    run_parser.add_argument("--model", help="Table I model for a scenario run")
    run_parser.add_argument("--system", help="registered system (see `systems`)")
    run_parser.add_argument("--gpus", type=int, default=None,
                            help="GPUs to feed (default: Scenario.num_gpus)")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="explicit worker count (default: ceil(T/P))")
    _add_scenario_options(run_parser)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="run a models x systems x gpus scenario grid"
    )
    sweep_parser.add_argument("--models", default=",".join(MODEL_NAMES),
                              help="comma-separated Table I models")
    sweep_parser.add_argument("--systems", default="Disagg,PreSto",
                              help="comma-separated registered systems")
    sweep_parser.add_argument("--gpus", default=None,
                              help="comma-separated GPU counts (default: "
                                   "Sweep.grid's)")
    sweep_parser.add_argument("--max-retries", type=int, default=1,
                              help="retries per scenario before it counts "
                                   "as failed")
    _add_scenario_options(sweep_parser)
    _add_batch_options(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    sub.add_parser(
        "systems", help="list registered system design points"
    ).set_defaults(func=cmd_systems)

    export = sub.add_parser(
        "export", help="write experiment rows (with header) as CSV/JSON"
    )
    export.add_argument("--dir", default="results")
    export.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    export.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    _add_cache_options(export)
    export.set_defaults(func=cmd_export)

    prov = sub.add_parser("provision", help="T/P provisioning for one model")
    prov.add_argument("model", choices=MODEL_NAMES + [m.lower() for m in MODEL_NAMES])
    prov.add_argument("--gpus", type=int, default=8)
    prov.set_defaults(func=cmd_provision)

    prep = sub.add_parser(
        "preprocess",
        help="run the sharded preprocessing data plane for one model",
    )
    prep.add_argument("--model", default="RM1",
                      help="Table I model (default RM1)")
    prep.add_argument("--rows", type=int, default=8192,
                      help="synthetic rows to preprocess")
    prep.add_argument("--shards", type=int, default=1,
                      help="number of partitions / mini-batches")
    prep.add_argument("--processes", type=int, default=None,
                      help="pool size (default: CPU count)")
    prep.add_argument("--seed", type=int, default=0,
                      help="synthetic data seed")
    prep.add_argument("--serial", action="store_true",
                      help="run shards inline instead of across a pool")
    prep.add_argument("--check", action="store_true",
                      help="also run serially and assert byte-identical output")
    prep.add_argument("--json", action="store_true",
                      help="emit the summary as JSON")
    prep.set_defaults(func=cmd_preprocess)

    serve = sub.add_parser(
        "serve", help="run the streaming preprocessing daemon"
    )
    serve.add_argument("--spool", default=DEFAULT_SPOOL,
                       help="spool directory (job index + endpoint file)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default 0 = ephemeral; the chosen "
                            "port lands in the spool's endpoint.json)")
    serve.add_argument("--queue", type=int, default=16,
                       help="bounded queue capacity (default 16)")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent pool size (default 2)")
    serve.add_argument("--policy", choices=("block", "reject"),
                       default="block",
                       help="full-queue backpressure: block or reject")
    serve.add_argument("--max-retries", type=int, default=1,
                       help="extra attempts per job on transient failure")
    serve.add_argument("--backoff", type=float, default=0.05,
                       help="base retry backoff seconds (doubles per retry)")
    serve.add_argument("--watch", action="append", metavar="DIR",
                       help="watch a directory for dropped job-spec JSON "
                            "files (repeatable)")
    serve.add_argument("--synthetic", action="append", metavar="SPEC",
                       help="attach a synthetic source, "
                            "MODEL[:ROWS[:SHARDS[:COUNT]]] (repeatable)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="per-job deadline in seconds; a watchdog fails "
                            "jobs that blow it and replaces their worker")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on job-index appends (faster, but a "
                            "host crash can lose the latest transitions)")
    serve.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="install a FaultPlan JSON file (deterministic "
                            "fault injection, for drills and tests)")
    serve.set_defaults(func=cmd_serve)

    def client_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spool", default=DEFAULT_SPOOL,
                       help="daemon spool directory (endpoint discovery)")
        p.add_argument("--host", default=None,
                       help="daemon host (overrides endpoint file)")
        p.add_argument("--port", type=int, default=None,
                       help="daemon port (overrides endpoint file)")
        return p

    submit = client_parser("submit", "submit one job to a running daemon")
    submit.add_argument("--model", default="RM1",
                        help="Table I model (default RM1)")
    submit.add_argument("--rows", type=int, default=8192,
                        help="synthetic rows to preprocess")
    submit.add_argument("--shards", type=int, default=1,
                        help="number of partitions / mini-batches")
    submit.add_argument("--seed", type=int, default=0,
                        help="synthetic data seed")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal")
    submit.add_argument("--timeout", type=float, default=None,
                        help="--wait timeout in seconds")
    submit.add_argument("--json", action="store_true",
                        help="emit the job record as JSON")
    submit.set_defaults(func=cmd_submit)

    status = client_parser("status", "show one job's lifecycle record")
    status.add_argument("job_id", help="job id (see `jobs`)")
    status.add_argument("--follow", action="store_true",
                        help="stream transitions until the job is terminal")
    status.add_argument("--timeout", type=float, default=None,
                        help="--follow timeout in seconds")
    status.add_argument("--json", action="store_true",
                        help="emit the job record as JSON")
    status.set_defaults(func=cmd_status)

    jobs = client_parser("jobs", "list the daemon's jobs")
    jobs.add_argument("--state", default=None,
                      choices=("queued", "running", "interrupted",
                               "completed", "failed", "cancelled"),
                      help="only jobs in this state")
    jobs.add_argument("--json", action="store_true",
                      help="emit job records as JSON")
    jobs.set_defaults(func=cmd_jobs)

    cancel = client_parser("cancel", "cancel a queued job")
    cancel.add_argument("job_id", help="job id (see `jobs`)")
    cancel.set_defaults(func=cmd_cancel)

    shutdown = client_parser("shutdown", "stop a running daemon")
    shutdown.add_argument("--no-drain", action="store_true",
                          help="cancel queued jobs instead of draining them")
    shutdown.set_defaults(func=cmd_shutdown)

    chaos = sub.add_parser(
        "chaos",
        help="run the seeded fault matrix against a live service",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault plan seed (same seed => same matrix)")
    chaos.add_argument("--faults", default=None,
                       help="comma-separated fault classes (default: the "
                            "tier's fault matrix)")
    chaos.add_argument("--tier", choices=("serve", "batch", "fleet"),
                       default="serve",
                       help="which tier to attack: the streaming service, "
                            "the batch runner, or the simulated fleet "
                            "(default serve)")
    # each flag left out keeps the episode's own default; one the chosen
    # tier does not take is refused, never ignored
    chaos.add_argument("--jobs", type=int, default=None,
                       help="jobs per episode")
    chaos.add_argument("--rows", type=int, default=None,
                       help="synthetic rows per job (serve, batch)")
    chaos.add_argument("--shards", type=int, default=None,
                       help="shards per job (serve, batch)")
    chaos.add_argument("--workers", type=int, default=None,
                       help="pool workers per episode (serve, batch)")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-job watchdog deadline seconds (serve, batch)")
    chaos.add_argument("--spool-root", default=None, metavar="DIR",
                       help="keep each episode's spool (journals, indexes) "
                            "under DIR instead of a deleted temp dir — CI "
                            "uploads these as the run's artifacts")
    chaos.add_argument("--json", action="store_true",
                       help="emit the deterministic report as JSON")
    chaos.set_defaults(func=cmd_chaos)

    fleet = sub.add_parser(
        "fleet",
        help="trace-driven multi-tenant fleet simulation (scheduling, "
             "autoscaling, failure injection)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _add_fleet_trace_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=("poisson", "diurnal", "bursty"),
                       default="diurnal",
                       help="arrival process (default diurnal)")
        p.add_argument("--jobs", type=int, default=200,
                       help="number of arrivals to generate (default 200)")
        p.add_argument("--seed", type=int, default=0,
                       help="trace seed (same seed => same trace)")

    fleet_run = fleet_sub.add_parser(
        "run", help="simulate one trace on the fleet; print the result",
        formatter_class=_FleetRunHelp,
    )
    fleet_run.add_argument("--trace", default=None, metavar="PATH",
                           help="replay a recorded JSONL trace instead of "
                                "generating one")
    _add_fleet_trace_options(fleet_run)
    fleet_run.add_argument("--policy", default="first-fit",
                           help="placement policy: {policies} (default "
                                "first-fit)")
    fleet_run.add_argument("--autoscale", default="target-utilization",
                           help="autoscaling policy: {autoscalers} (default "
                                "target-utilization)")
    fleet_run.add_argument("--faults", default=None,
                           help="comma-separated fleet faults to inject: "
                                "{fleet_faults}")
    fleet_run.add_argument("--fault-seed", type=int, default=0,
                           help="fault plan seed (default 0)")
    fleet_run.add_argument("--out", default=None, metavar="PATH",
                           help="also write the FleetResult as JSON "
                                "(FleetResult.from_dict reads it back)")
    fleet_run.add_argument("--json", action="store_true",
                           help="print the full result as byte-stable JSON")
    fleet_run.set_defaults(func=cmd_fleet_run)

    fleet_trace = fleet_sub.add_parser(
        "trace", help="generate or inspect replayable arrival traces"
    )
    fleet_trace_sub = fleet_trace.add_subparsers(
        dest="fleet_trace_command", required=True
    )

    trace_gen = fleet_trace_sub.add_parser(
        "gen", help="generate a seeded trace as replayable JSONL"
    )
    _add_fleet_trace_options(trace_gen)
    trace_gen.add_argument("--out", required=True, metavar="PATH",
                           help="JSONL output path")
    trace_gen.add_argument("--json", action="store_true",
                           help="print the trace summary as JSON")
    trace_gen.set_defaults(func=cmd_fleet_trace_gen)

    trace_replay = fleet_trace_sub.add_parser(
        "replay",
        help="load a trace file, verify it re-serializes byte-identically, "
             "and summarize it",
    )
    trace_replay.add_argument("path", help="trace JSONL path")
    trace_replay.add_argument("--json", action="store_true",
                              help="print the summary as JSON")
    trace_replay.set_defaults(func=cmd_fleet_trace_replay)

    return parser


def main(argv: List[str] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:  # TimeoutError is an OSError
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
