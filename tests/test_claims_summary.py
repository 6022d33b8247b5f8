"""Tests for ``benchmarks/claims_summary.py``.

``render_timings`` turns a batch journal into the Markdown table CI
appends to its step summary.  The expected bytes are pinned here: one
row per terminal task, sorted by label (the content key when a line
predates labels), cached when ``attempts == 0`` or the line is stamped
``cached``.  ``main`` prints the claims scoreboard first and exits 2 on
a usage error or an unreadable journal.
"""

import importlib.util
import io
import json
import os

import pytest

from repro.batch import BatchJournal, BatchOutcome, BatchPolicy
from repro.errors import ReproError

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "claims_summary.py")


@pytest.fixture(scope="module")
def claims_summary():
    spec = importlib.util.spec_from_file_location("claims_summary", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD_KEY = "0abc123"

EXPECTED = "\n".join([
    "### Experiment timings (from the run journal)",
    "",
    "| experiment | outcome | attempts | elapsed | cached |",
    "| --- | :---: | ---: | ---: | :---: |",
    "| 0abc123 | ✅ | 1 | 0.500s | — |",
    "| fig11 | ✅ | 1 | 0.250s | — |",
    "| fig12 | ✅ | 0 | 0.000s | cache |",
    "| fig13 | ❌ failed | 2 | 0.125s | — |",
    "| fig14 | ✅ | 1 | — | cache |",
    "",
])


def write_journal(path):
    """A journal with an ok, a cache-prefilled and a failed task, a line
    written before labels were stamped, and a hand-stamped cached line
    with no timing."""
    outcomes = [
        BatchOutcome(index=0, key="k-fig11", label="fig11", state="ok",
                     attempts=1, elapsed_s=0.25, result={}),
        BatchOutcome(index=1, key="k-fig12", label="fig12", state="ok",
                     attempts=0, elapsed_s=0.0, result={}),
        BatchOutcome(index=2, key="k-fig13", label="fig13", state="failed",
                     attempts=2, elapsed_s=0.125, error="boom"),
    ]
    journal = BatchJournal(str(path), run_id="claims")
    journal.start_run([o.key for o in outcomes] + [OLD_KEY, "k-fig14"],
                      BatchPolicy())
    for outcome in outcomes:
        journal.task_done(outcome, payload={})
    with open(path, "a") as handle:
        handle.write(json.dumps({
            "type": "task", "index": 3, "key": OLD_KEY, "status": "ok",
            "attempts": 1, "elapsed_s": 0.5, "error": None, "at": 2.0,
            "result": {},
        }) + "\n")
        handle.write(json.dumps({
            "type": "task", "index": 4, "key": "k-fig14", "label": "fig14",
            "status": "ok", "attempts": 1, "cached": True, "error": None,
            "at": 3.0, "result": {},
        }) + "\n")
    return str(path)


def test_render_timings_is_pinned(claims_summary, tmp_path):
    path = write_journal(tmp_path / "claims.jsonl")
    assert claims_summary.render_timings(path) == EXPECTED


def test_main_prints_scoreboard_then_timings(claims_summary, tmp_path,
                                             capsys):
    journal = write_journal(tmp_path / "claims.jsonl")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "scoreboard": {"held": 1, "total": 1},
        "experiments": [{"id": "fig11", "title": "Fig. 11", "claims": [{
            "description": "speedup", "holds": True, "paper_value": 2.0,
            "measured_value": 2.1, "relative_error": 0.05,
        }]}],
    }))
    assert claims_summary.main(
        ["claims_summary.py", str(report), "--journal", journal]) == 0
    out = capsys.readouterr().out
    assert "| Fig. 11 | speedup | 2 | 2.1 | 5% | ✅ |" in out
    assert out.endswith(EXPECTED + "\n")


def test_missing_journal_is_loud(claims_summary, tmp_path):
    with pytest.raises(ReproError, match="no run header"):
        claims_summary.render_timings(str(tmp_path / "nope.jsonl"))


REPORT = {
    "scoreboard": {"held": 0, "total": 1},
    "experiments": [{"id": "fig12", "claims": [{
        "description": "throughput", "holds": False, "paper_value": 4.0,
        "measured_value": 3.0, "relative_error": -0.25,
    }]}],
}


def test_render_falls_back_to_the_experiment_id(claims_summary):
    assert claims_summary.render(REPORT).splitlines()[2:] == [
        "**0/1 claims within tolerance**",
        "",
        "| experiment | claim | paper | measured | err | holds |",
        "| --- | --- | ---: | ---: | ---: | :---: |",
        "| fig12 | throughput | 4 | 3 | -25% | ❌ |",
    ]


def test_report_is_read_from_stdin(claims_summary, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(REPORT)))
    assert claims_summary.main(["claims_summary.py", "-"]) == 0
    assert capsys.readouterr().out == claims_summary.render(REPORT) + "\n"


@pytest.mark.parametrize("args", [[], ["a.json", "b.json"]],
                         ids=["no-report", "two-reports"])
def test_exactly_one_report_is_required(claims_summary, capsys, args):
    assert claims_summary.main(["claims_summary.py", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Usage:" in captured.err


def test_journal_flag_needs_a_path(claims_summary, capsys):
    assert claims_summary.main(
        ["claims_summary.py", "report.json", "--journal"]) == 2
    assert capsys.readouterr().err == "--journal requires a path\n"


def test_unreadable_journal_exits_2_after_the_scoreboard(claims_summary,
                                                         tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(REPORT))
    journal = str(tmp_path / "nope.jsonl")
    assert claims_summary.main(
        ["claims_summary.py", str(report), "--journal", journal]) == 2
    captured = capsys.readouterr()
    assert captured.out == claims_summary.render(REPORT) + "\n"
    assert captured.err.startswith(
        f"claims-summary: cannot read journal: batch journal {journal} "
        "has no run header"
    )
