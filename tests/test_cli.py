"""Tests for the command-line interface."""

import time

import pytest

from repro.api import EXPERIMENT_REGISTRY, REGISTRY
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trend_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["trend", "report"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'trend'" in capsys.readouterr().err

    def test_bench_is_not_a_command(self, capsys):
        """Scaling is a tier-1 call-count law (tests/test_count_laws.py),
        not a timed command."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_known_commands(self):
        parser = build_parser()
        assert parser.parse_args(["report"]).command == "report"
        assert parser.parse_args(["list"]).command == "list"
        args = parser.parse_args(["run", "fig12", "fig13"])
        assert args.ids == ["fig12", "fig13"]
        args = parser.parse_args(["provision", "RM5", "--gpus", "4"])
        assert args.model == "RM5"
        assert args.gpus == 4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for command_id in EXPERIMENT_REGISTRY.ids():
            assert command_id in out

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_ablation(self, capsys):
        assert main(["run", "abl-lanes"]) == 0
        assert "lane sweep" in capsys.readouterr().out

    def test_run_unknown_id(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["run", "fig99"])

    def test_provision(self, capsys):
        assert main(["provision", "RM5"]) == 0
        out = capsys.readouterr().out
        assert "PreSto" in out
        assert "367" in out  # the Disagg allocation

    def test_provision_lowercase(self, capsys):
        assert main(["provision", "rm1"]) == 0
        assert "RM1" in capsys.readouterr().out

    def test_provision_names_the_design_that_cannot_sustain_the_job(self, capsys):
        assert main(["provision", "RM5"]) == 0
        unfit = [
            line for line in capsys.readouterr().out.splitlines()
            if "not provisionable" in line
        ]
        assert len(unfit) == 1 and unfit[0].split()[0] == "Co-located"
        assert "co-located cores per GPU supply only" in unfit[0]

    def test_provision_rejects_a_non_positive_gpu_count(self, capsys):
        """Exit 1 with one line — it used to exit 0 printing "not
        provisionable: num_gpus must be positive" for every system, an
        untyped ValueError swallowed under ``except Exception``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["provision", "RM5", "--gpus", "0"])
        assert str(excinfo.value) == "num_gpus must be positive"
        assert capsys.readouterr().out == ""

    def test_systems_lists_every_design_point(self, capsys):
        assert main(["systems"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:14].strip() for line in lines] == list(REGISTRY.names())
        assert len(lines) == 6
        assert all(line[15:].strip() for line in lines)  # each has its docstring

    def test_scenario_run_prints_the_result_table(self, capsys):
        assert main(
            ["run", "--model", "RM5", "--system", "PreSto", "--batches", "50"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "Scenario RM5/PreSto/8gpu"
        assert out[1].split()[:4] == ["model", "system", "GPUs", "workers"]
        assert out[3].split()[:4] == ["RM5", "PreSto", "8", "9"]
        assert out[-1].startswith("RM5/PreSto: 9 workers feed 8 GPU(s)")

    def test_sweep_prints_one_row_per_scenario(self, capsys):
        assert main(
            ["sweep", "--models", "RM5", "--systems", "Disagg,PreSto",
             "--gpus", "8", "--batches", "50"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "Sweep: 2 scenarios"
        assert [line.split()[:4] for line in out[3:]] == [
            ["RM5", "Disagg", "8", "367"], ["RM5", "PreSto", "8", "9"],
        ]

    def test_degrade_sweep_names_the_failed_scenario_and_exits_1(self, capsys):
        assert main(
            ["sweep", "--models", "RM5", "--systems", "PreSto,Co-located",
             "--gpus", "8", "--batches", "50",
             "--failure-mode", "degrade"]
        ) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "Sweep: 2 scenarios"
        assert out[3].split()[:4] == ["RM5", "PreSto", "8", "9"]
        assert out[4:] == [
            "FAILED RM5/Co-located/gpus=8: failed after 1 attempt(s): "
            "ConfigurationError: RM5: 16 co-located cores per GPU supply only "
            "24,055 samples/s of the 133,421 demanded"
        ]

    def test_every_run_id_works(self, capsys):
        # the cheap ones; fig11/15 style experiments are covered elsewhere
        for command_id in ("fig3", "fig6", "table2", "abl-batch"):
            assert main(["run", command_id]) == 0
        assert capsys.readouterr().out


class TestExport:
    def test_export_selected(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["export", "--dir", str(tmp_path), "fig4", "table1"]) == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["fig4.csv", "table1.csv"]
        content = (tmp_path / "fig4.csv").read_text()
        assert "RM5" in content and "367" in content


class TestPreprocess:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["preprocess"])
        assert args.model == "RM1"
        assert args.shards == 1
        assert not args.check

    def test_serial_run_with_check_flag_ignored(self, capsys):
        # --check is meaningful only for parallel runs; serial just runs
        assert main(
            ["preprocess", "--rows", "64", "--shards", "2", "--serial",
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "rows/s" in out.replace(",", "")
        assert "byte-identical" not in out  # no redundant serial self-check

    def test_check_asserts_byte_identity(self, capsys):
        assert main(
            ["preprocess", "--rows", "48", "--shards", "4", "--processes",
             "2", "--check"]
        ) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        import json as json_mod

        assert main(
            ["preprocess", "--rows", "32", "--shards", "2", "--serial",
             "--json"]
        ) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["num_shards"] == 2
        assert payload["num_rows"] == 32
        assert payload["job"]["model"] == "RM1"
        assert len(payload["digest"]) == 64

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["preprocess", "--model", "RM99", "--rows", "16"])


class TestServeCli:
    def test_parser_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.spool == ".repro-serve"
        assert args.queue == 16 and args.workers == 2
        assert args.policy == "block"
        args = build_parser().parse_args(
            ["serve", "--queue", "4", "--policy", "reject",
             "--synthetic", "RM1:512:2:3", "--watch", "inbox"]
        )
        assert args.queue == 4 and args.policy == "reject"
        assert args.synthetic == ["RM1:512:2:3"]
        assert args.watch == ["inbox"]

    def test_parser_client_commands(self):
        parser = build_parser()
        args = parser.parse_args(["submit", "--rows", "128", "--wait"])
        assert args.rows == 128 and args.wait
        args = parser.parse_args(["status", "job-000001", "--follow"])
        assert args.job_id == "job-000001" and args.follow
        args = parser.parse_args(["jobs", "--state", "completed"])
        assert args.state == "completed"
        args = parser.parse_args(["shutdown", "--no-drain"])
        assert args.no_drain

    def test_parse_synthetic_spec(self):
        from repro.cli import _parse_synthetic

        source = _parse_synthetic("RM2:1024:4:7")
        assert source.count == 7
        with pytest.raises(SystemExit):
            _parse_synthetic("")
        with pytest.raises(SystemExit):
            _parse_synthetic("RM1:not-a-number")
        with pytest.raises(SystemExit):
            _parse_synthetic("RM1:1:2:3:4")

    def test_a_plan_on_a_point_the_daemon_never_probes_is_refused(
            self, tmp_path, capsys):
        """A ``node-down`` rule would never fire in the daemon: refused
        before any injector is installed, spool made or port bound."""
        from unittest import mock

        from repro.faults import FaultPlan, FaultRule, active_injector

        plan = str(tmp_path / "plan.json")
        FaultPlan(seed=1, rules=(FaultRule("node-down"),)).save(plan)

        def serving(*args, **kwargs):
            raise AssertionError("serve got past its plan's check")

        with mock.patch("repro.serve.ServiceServer", serving), \
                pytest.raises(SystemExit) as excinfo:
            main(["serve", "--spool", str(tmp_path / "spool"),
                  "--faults", plan])
        assert excinfo.value.code == (
            "unknown serve fault 'node-down'; known: conn-drop, disk-full, "
            "hung-stage, queue-stall, slow-stage, stage-error, torn-write, "
            "worker-crash"
        )
        assert capsys.readouterr().out == ""
        assert active_injector() is None
        assert not (tmp_path / "spool").exists()

    def test_client_without_daemon_exits_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="repro serve"):
            main(["jobs", "--spool", str(tmp_path / "no-daemon")])

    @pytest.fixture
    def daemon(self, tmp_path, capsys):
        """``repro serve --workers 1`` on a fresh spool, run by ``main()`` in
        a thread; yields ``(spool, thread)`` and stops whatever is left."""
        import threading

        spool = str(tmp_path / "spool")
        thread = threading.Thread(
            target=main,
            args=(["serve", "--spool", spool, "--workers", "1"],),
            daemon=True,
        )
        thread.start()
        endpoint = tmp_path / "spool" / "endpoint.json"
        # wait until the daemon is up AND its banner has flushed, so the
        # captured stdout below contains only the client commands' output
        banner = ""
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            banner += capsys.readouterr().out
            if endpoint.exists() and "listening" in banner:
                break
            time.sleep(0.02)
        assert endpoint.exists() and "listening" in banner
        yield spool, thread
        if thread.is_alive():
            main(["shutdown", "--spool", spool, "--no-drain"])
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_daemon_round_trip_through_cli(self, daemon, tmp_path, capsys):
        """serve -> submit --wait -> jobs -> shutdown, all via main()."""
        import json as json_mod

        spool, daemon = daemon
        endpoint = tmp_path / "spool" / "endpoint.json"
        assert main(
            ["submit", "--spool", spool, "--rows", "256", "--shards", "2",
             "--wait", "--json"]
        ) == 0
        record = json_mod.loads(capsys.readouterr().out)
        assert record["state"] == "completed"
        assert len(record["digest"]) == 64
        # the digest matches the serial batch path for the same spec
        assert main(
            ["preprocess", "--rows", "256", "--shards", "2", "--serial",
             "--json"]
        ) == 0
        serial = json_mod.loads(capsys.readouterr().out)
        assert serial["digest"] == record["digest"]

        assert main(["jobs", "--spool", spool]) == 0
        assert record["job_id"] in capsys.readouterr().out
        assert main(["shutdown", "--spool", spool]) == 0
        daemon.join(timeout=30.0)
        assert not daemon.is_alive()
        assert not endpoint.exists()
        assert (tmp_path / "spool" / "jobs.jsonl").exists()

    @pytest.fixture
    def gate(self, monkeypatch):
        """Hold every job inside the runner until released, so one job
        occupies the single worker while the next one sits in the queue."""
        import threading

        from repro.serve import service

        release = threading.Event()

        def held(job, record_stage):
            assert release.wait(30.0)
            return "0" * 64

        monkeypatch.setattr(service, "_default_runner", held)
        yield release
        release.set()

    def test_status_and_cancel_through_cli(self, gate, daemon, capsys):
        """status <id> / --json / --follow, cancel of a queued, a running
        and an unknown job — the client commands no other test drives."""
        import json as json_mod

        spool, _ = daemon

        def submit() -> str:
            assert main(["submit", "--spool", spool, "--rows", "64", "--json"]) == 0
            return json_mod.loads(capsys.readouterr().out)["job_id"]

        def state(job_id: str) -> str:
            assert main(["status", job_id, "--spool", spool, "--json"]) == 0
            return json_mod.loads(capsys.readouterr().out)["state"]

        running = submit()
        deadline = time.monotonic() + 30.0
        while state(running) != "running" and time.monotonic() < deadline:
            time.sleep(0.02)
        assert state(running) == "running"
        queued = submit()
        assert main(["status", queued, "--spool", spool]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.split()[:2] == [queued, "queued"] and "attempts=0" in line

        assert main(["cancel", queued, "--spool", spool]) == 0
        assert capsys.readouterr().out == f"{queued}: cancelled\n"
        assert state(queued) == "cancelled"
        assert main(["cancel", running, "--spool", spool]) == 1
        assert capsys.readouterr().out == f"{running}: not cancellable\n"
        with pytest.raises(SystemExit) as excinfo:
            main(["cancel", "job-999999", "--spool", spool])
        assert "job-999999" in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

        gate.set()
        assert main(["status", running, "--spool", spool, "--follow"]) == 0
        followed = capsys.readouterr().out
        assert f"{running}  completed" in followed
        assert "digest  " + "0" * 64 in followed


class TestChaos:
    def test_chaos_json_deterministic(self, capsys):
        import json as json_mod

        argv = [
            "chaos", "--seed", "7", "--jobs", "3", "--rows", "128",
            "--shards", "2", "--timeout", "2", "--faults", "worker-crash",
            "--json",
        ]
        assert main(argv) == 0
        first = json_mod.loads(capsys.readouterr().out)
        assert first["ok"] is True
        assert first["faults"] == ["worker-crash"]
        assert len(first["episodes"]) == 1
        episode = first["episodes"][0]
        assert episode["jobs"] >= 3
        assert not episode["violations"]
        assert "elapsed_s" not in episode  # deterministic view only

        assert main(argv) == 0
        second = json_mod.loads(capsys.readouterr().out)
        assert second == first

    def test_chaos_table_output(self, capsys):
        assert main(
            ["chaos", "--seed", "3", "--jobs", "2", "--rows", "128",
             "--timeout", "2", "--faults", "torn-write"]
        ) == 0
        out = capsys.readouterr().out
        assert "Chaos matrix (seed 3)" in out
        assert "torn-write" in out
        assert "all invariants held" in out

    def test_chaos_rejects_unknown_fault(self):
        with pytest.raises(SystemExit, match="unknown serve fault 'bogus'"):
            main(["chaos", "--faults", "bogus"])

    def test_flags_the_fleet_does_not_take_are_refused(self, capsys):
        """The fleet episode used to drop ``--rows``, ``--workers`` and
        ``--timeout`` without a word."""
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--tier", "fleet", "--rows", "64", "--workers",
                  "9", "--timeout", "1"])
        assert excinfo.value.code == (
            "chaos tier 'fleet' takes no keyword(s) ['job_timeout_s', "
            "'rows', 'workers']; it takes ['autoscaler', 'num_jobs', "
            "'policy', 'rate', 'trace_kind']"
        )
        assert capsys.readouterr().out == ""


def _typed_failures():
    """``(argv, message)`` params — ``{tmp}`` is the test's scratch directory.

    Each is the exact one line ``main()``'s boundary prints: commands do
    not catch-and-exit themselves.
    """
    missing = "[Errno 2] No such file or directory:"
    cases = [
        ("fleet-trace", ["fleet", "run", "--trace", "/nonexistent.jsonl"],
         f"cannot read trace /nonexistent.jsonl: {missing} "
         "'/nonexistent.jsonl'"),
        ("chaos-fault", ["chaos", "--tier", "fleet", "--faults", "nope"],
         "unknown fleet fault 'nope'; known: "
         "arrival-burst, node-down, slow-node"),
        # its episodes used to inject nothing and print ``ok: true``
        ("chaos-foreign-fault",
         ["chaos", "--tier", "fleet", "--faults", "hung-stage,worker-crash",
          "--jobs", "1"],
         "unknown fleet fault 'hung-stage'; known: "
         "arrival-burst, node-down, slow-node"),
        *[(f"chaos-jobs-{tier}", ["chaos", "--tier", tier, "--jobs", "0"],
           "num_jobs must be a positive int, got 0")
          for tier in ("serve", "batch", "fleet")],
        ("sweep-gpus", ["sweep", "--gpus", "0"],
         "num_gpus must be a positive int, got 0"),
        ("run-id", ["run", "nope"],
         "unknown experiment 'nope'; registered experiments: "
         + ", ".join(EXPERIMENT_REGISTRY.ids())),
        ("submit-no-daemon", ["submit", "--spool", "{tmp}"],
         "no daemon endpoint at {tmp}/endpoint.json — is `repro serve` "
         "running with this spool?"),
        ("trace-replay", ["fleet", "trace", "replay", "/nonexistent.jsonl"],
         f"{missing} '/nonexistent.jsonl'"),
        # a traceback on the parent: its os.makedirs sat outside any try
        ("export-dir", ["export", "--dir", "{tmp}/blocker/out", "fig11"],
         "[Errno 20] Not a directory: '{tmp}/blocker/out'"),
    ]
    return [pytest.param(argv, message, id=name) for name, argv, message in cases]


#: ``(id, argv, message)``: retry, deadline and pool values the CLI hands
#: to ``BatchPolicy`` (sweep), the shard executor (preprocess) or
#: ``WorkerPool`` (serve), refused before any work starts.  A NaN or
#: infinite deadline or backoff used to pass: ``serve --job-timeout nan``
#: timed out every job at the first tick.  ``BatchPolicy``'s own
#: ``processes`` / ``task_timeout_s`` checks are
#: ``tests/test_batch.py::TestBatchPolicy::test_rejects_bad_values``.
POLICY_FAILURES = [
    ("preprocess-processes-0", ["preprocess", "--processes", "0"],
     "processes must be a positive int, got 0"),
    ("sweep-max-retries-negative", ["sweep", "--max-retries", "-1"],
     "max_retries must be a non-negative int, got -1"),
    ("serve-job-timeout-nan", ["serve", "--spool", "{tmp}", "--job-timeout", "nan"],
     "job_timeout_s must be positive and finite, got nan"),
    ("serve-job-timeout-inf", ["serve", "--spool", "{tmp}", "--job-timeout", "inf"],
     "job_timeout_s must be positive and finite, got inf"),
    ("serve-backoff-nan", ["serve", "--spool", "{tmp}", "--backoff", "nan"],
     "backoff_s must be finite and >= 0, got nan"),
    ("serve-backoff-inf", ["serve", "--spool", "{tmp}", "--backoff", "inf"],
     "backoff_s must be finite and >= 0, got inf"),
]


class TestTypedErrorBoundary:
    """``main()`` is the one place a ReproError/OSError becomes an exit."""

    @pytest.fixture
    def scratch(self, tmp_path):
        (tmp_path / "blocker").write_text("a file where a directory is wanted")
        return tmp_path

    @pytest.mark.parametrize("argv, message", _typed_failures())
    def test_typed_failure_exits_clean(self, argv, message, scratch, capsys):
        argv = [arg.format(tmp=scratch) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        # a str code is what the interpreter prints, one line, exit status 1
        assert excinfo.value.code == message.format(tmp=scratch)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [pytest.param(argv, message, id=name)
         for name, argv, message in POLICY_FAILURES],
    )
    def test_bad_policy_value_exits_before_any_work(
            self, argv, message, tmp_path, capsys):
        from unittest import mock

        argv = [arg.format(tmp=tmp_path) for arg in argv]

        def serving(*args, **kwargs):  # a value let through would serve forever
            raise AssertionError("serve got past its pool's validation")

        with mock.patch("repro.serve.ServiceServer", serving), \
                pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == message
        captured = capsys.readouterr()
        # refused up front: no table, no listening line, no traceback
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--serial"],
        ["sweep", "--processes", "2"],
        ["sweep", "--task-timeout", "5"],
        ["report", "--parallel"],
        ["report", "--processes", "2"],
    ], ids=" ".join)
    def test_removed_fan_out_flags_are_usage_errors(self, argv, capsys):
        """``sweep`` and ``report`` always run serially: their fan-out
        flags are gone, and argparse refuses them with exit status 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--gpus", "4"], ["--workers", "9"], ["--batches", "3"],
        ["--queue", "4"], ["--gpus", "4", "--batches", "3", "--workers", "9"],
    ], ids=" ".join)
    def test_scenario_flags_on_experiment_ids_are_refused(self, flags, capsys):
        """``repro run fig3 --gpus 4 --batches 3 --workers 9`` printed
        exactly what ``repro run fig3`` prints: a flag that changes nothing
        is refused with one line, before any experiment runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig3", *flags])
        named = ", ".join(
            flag for flag in ("--gpus", "--workers", "--batches", "--queue")
            if flag in flags
        )
        assert excinfo.value.code == (
            f"{named}: scenario flags need --model/--system; experiment "
            "ids take --set param=value"
        )
        assert capsys.readouterr().out == ""

    def test_submit_has_no_processes_flag(self, capsys):
        """The daemon runs every job's shards inline, so a per-job pool
        size changed nothing; argparse refuses it with exit status 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--processes", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --processes 2" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("value, message", [
        # the parent: ZeroDivisionError from the CPU worker's read time
        ("0", r"calibration field 'network_bandwidth' must be positive, "
              r"got 0\.0"),
        # the parent: OverflowError from ceil(T / P) in workers_for
        ("1e-300", r"T / P = \S+ / \S+ samples/s has no exact worker count"),
    ])
    def test_calibration_out_of_its_domain_is_one_line(self, value, message):
        import re

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--model", "RM1", "--system", "Disagg",
                  "--set", f"network_bandwidth={value}", "--batches", "3"])
        assert re.fullmatch(message, excinfo.value.code)

    def test_an_astronomic_plan_runs(self, capsys):
        """A tiny but in-domain bandwidth plans 4,177,943,862,398 workers;
        only the 3 that get a batch are launched (the parent raised
        ``MemoryError`` building a share per planned worker)."""
        assert main(["run", "--model", "RM1", "--system", "Disagg",
                     "--set", "network_bandwidth=1e-3", "--batches", "3"]) == 0
        assert "4177943862398" in capsys.readouterr().out

    def test_uncreatable_export_dir_is_one_line_on_stderr(self, scratch):
        import os
        import subprocess
        import sys

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        target = scratch / "blocker" / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "export", "--dir",
             str(target), "fig11"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"[Errno 20] Not a directory: '{target}'\n"

    def test_handlers_that_do_more_than_exit_stay(self, capsys):
        # argument parsers keep their own, more specific messages
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--model", "RM1", "--system", "PreSto", "--set", "x"])
        assert excinfo.value.code == "--set expects field=value, got 'x'"
        # provision reports a per-system failure and keeps going
        assert main(["provision", "RM5"]) == 0
        assert "not provisionable" in capsys.readouterr().out
