"""Render a `repro report --json` payload as a Markdown claims scoreboard.

CI runs a fast registry-driven subset of the report, pipes the JSON here,
and appends the output to ``$GITHUB_STEP_SUMMARY`` — a per-run record of
which paper claims hold.  With ``--journal`` the run's batch journal (the
authoritative per-experiment timing record, read through
:class:`~repro.batch.BatchJournal`) is rendered as a second table, so the
summary also says how long each experiment took and how hard it was
retried.
Report-only: exit code is always 0 when inputs parse; the test suite, not
CI formatting, gates claim regressions.

Usage:
    python benchmarks/claims_summary.py report.json
    python benchmarks/claims_summary.py report.json --journal run.jsonl
    python -m repro.cli report --json | python benchmarks/claims_summary.py -
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
))

from repro.batch import BatchJournal  # noqa: E402
from repro.errors import ReproError  # noqa: E402


def render(payload: dict) -> str:
    scoreboard = payload.get("scoreboard", {})
    held = scoreboard.get("held", 0)
    total = scoreboard.get("total", 0)
    lines = [
        "## Paper claims scoreboard",
        "",
        f"**{held}/{total} claims within tolerance**",
        "",
        "| experiment | claim | paper | measured | err | holds |",
        "| --- | --- | ---: | ---: | ---: | :---: |",
    ]
    for experiment in payload.get("experiments", []):
        title = experiment.get("title", experiment.get("id", "?"))
        for claim in experiment.get("claims", []):
            status = "✅" if claim["holds"] else "❌"
            lines.append(
                f"| {title} | {claim['description']} "
                f"| {claim['paper_value']:g} "
                f"| {claim['measured_value']:.4g} "
                f"| {100 * claim['relative_error']:.0f}% "
                f"| {status} |"
            )
    lines.append("")
    return "\n".join(lines)


def _task(line: dict) -> str:
    return str(line.get("label") or line.get("key"))


def render_timings(journal_path: str) -> str:
    """Per-experiment timing table from the run's batch journal.

    One row per terminal task line, named by its label (the content key
    for lines written before labels were stamped).  A row is cached when
    the task made no attempt or its line is stamped ``cached``.
    """
    outcomes = BatchJournal(journal_path).load().outcomes
    terminal = [outcomes[index] for index in sorted(outcomes)]
    rows = [
        "### Experiment timings (from the run journal)",
        "",
        "| experiment | outcome | attempts | elapsed | cached |",
        "| --- | :---: | ---: | ---: | :---: |",
    ]
    for line in sorted(terminal, key=_task):
        attempts = int(line.get("attempts") or 0)
        elapsed = line.get("elapsed_s")
        elapsed = "—" if elapsed is None else f"{float(elapsed):.3f}s"
        status = line.get("status")
        mark = "✅" if status == "ok" else f"❌ {status}"
        cached = bool(line.get("cached")) or attempts == 0
        rows.append(
            f"| {_task(line)} | {mark} | {attempts} | {elapsed} "
            f"| {'cache' if cached else '—'} |"
        )
    rows.append("")
    return "\n".join(rows)


def main(argv: List[str]) -> int:
    args = list(argv[1:])
    journal: Optional[str] = None
    if "--journal" in args:
        at = args.index("--journal")
        try:
            journal = args[at + 1]
        except IndexError:
            print("--journal requires a path", file=sys.stderr)
            return 2
        del args[at:at + 2]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    if args[0] == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args[0]) as handle:
            payload = json.load(handle)
    print(render(payload))
    if journal is not None:
        try:
            print(render_timings(journal))
        except ReproError as exc:
            print(f"claims-summary: cannot read journal: {exc}",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
