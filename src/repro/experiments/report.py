"""Full paper-vs-measured report: run every experiment, render every table,
and summarize which claims hold.  ``repro report`` prints the whole thing.

The report is registry-driven: every experiment module registers itself
with :data:`repro.api.EXPERIMENT_REGISTRY`, and this module just asks the
registry for the paper-ordered specs.  ``run_all`` therefore picks up
user-registered experiments automatically, runs them one after another
through the batch tier (journaled and resumable), and can replay results
from a :class:`~repro.api.experiment.RunStore` cache — all while
producing output byte-identical to an uncached run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.experiment import (
    EXPERIMENT_REGISTRY,
    ExperimentRun,
    RunStore,
    run_experiments,
)
from repro.batch import BatchJournal, BatchOutcome, BatchPolicy
from repro.experiments.common import PaperClaim


class ExperimentFailure:
    """A non-ok batch outcome wearing the result protocol.

    In ``degrade`` mode a failed/timed-out/interrupted experiment still
    gets a slot in the report; this marker renders the failure loudly,
    contributes no claims, and exports its outcome record — so a partial
    report stays well-formed instead of the whole run dying.
    """

    def __init__(self, outcome: BatchOutcome) -> None:
        self.outcome = outcome

    def columns(self) -> Tuple[str, ...]:
        return ("state", "attempts", "error")

    def rows(self) -> List[Tuple]:
        o = self.outcome
        return [(o.state, o.attempts, o.error or "")]

    def claims(self) -> List[PaperClaim]:
        return []

    def render(self) -> str:
        o = self.outcome
        return (
            f"EXPERIMENT {o.state.upper()} after {o.attempts} attempt(s): "
            f"{o.error}\n(re-run with --resume to retry just the missing "
            f"experiments)"
        )

    def to_dict(self) -> Dict:
        return self.outcome.to_dict()


def _selected_specs(
    include_ablations: bool = True, kinds: Optional[Sequence[str]] = None
):
    """Paper-ordered specs, filtered by ``kinds`` (or the legacy flag)."""
    specs = EXPERIMENT_REGISTRY.experiments()
    if kinds is not None:
        wanted = set(kinds)
        return [spec for spec in specs if spec.kind in wanted]
    if not include_ablations:
        return [spec for spec in specs if spec.kind != "ablation"]
    return list(specs)


def run_all(
    include_ablations: bool = True,
    *,
    kinds: Optional[Sequence[str]] = None,
    store: Optional[RunStore] = None,
    force: bool = False,
    policy: Optional[BatchPolicy] = None,
    journal: Optional[BatchJournal] = None,
    resume: bool = False,
) -> Dict[str, object]:
    """Run every registered experiment (and, by default, every ablation).

    Results come back keyed by paper title, in paper order, regardless of
    cache hits — a cached run renders byte-identically to a fresh one.  Under a ``degrade`` policy a
    non-ok experiment's slot holds an :class:`ExperimentFailure` marker
    instead of aborting the report; with a ``journal``, ``resume=True``
    replays completed experiments and re-runs only the missing ones.
    """
    specs = _selected_specs(include_ablations, kinds)
    runs = [ExperimentRun(spec.id) for spec in specs]
    results = run_experiments(
        runs, store=store, force=force, policy=policy,
        journal=journal, resume=resume,
    )
    if policy is not None and policy.failure_mode == "degrade":
        results = [
            outcome.result if outcome.ok else ExperimentFailure(outcome)
            for outcome in results
        ]
    return {spec.title: result for spec, result in zip(specs, results)}


def collect_claims(results: Dict[str, object]) -> List[Tuple[str, PaperClaim]]:
    """All paper claims with their measured values."""
    claims: List[Tuple[str, PaperClaim]] = []
    for name, result in results.items():
        getter = getattr(result, "claims", None)
        if getter is not None:
            claims.extend((name, claim) for claim in getter())
    return claims


def render_report(results: Dict[str, object]) -> str:
    """The full text report of :func:`run_all`'s ``results`` (every table
    + the claims scoreboard)."""
    sections = []
    for name, result in results.items():
        sections.append("=" * 78)
        sections.append(name)
        sections.append("=" * 78)
        sections.append(result.render())
        sections.append("")
    claims = collect_claims(results)
    holding = sum(1 for _, c in claims if c.holds)
    sections.append("=" * 78)
    sections.append(f"CLAIMS SCOREBOARD: {holding}/{len(claims)} within tolerance")
    sections.append("=" * 78)
    for name, claim in claims:
        sections.append(f"{name}: {claim.render().strip()}")
    return "\n".join(sections)


def experiment_record(
    result, spec=None, run: Optional[ExperimentRun] = None
) -> Dict:
    """One experiment's JSON record — the shared shape behind both
    ``repro run --json`` items and ``repro report --json`` entries.

    ``run`` (when given) adds the originating :class:`ExperimentRun` so the
    record is replayable; ``spec`` defaults to the run's spec.
    """
    if spec is None and run is not None:
        spec = run.spec
    record = {
        "id": spec.id if spec else None,
        "title": spec.title if spec else None,
        "kind": spec.kind if spec else None,
        "columns": list(result.columns()),
        "rows": [list(row) for row in result.rows()],
        "claims": [claim.to_dict() for claim in result.claims()],
        "result": result.to_dict(),
    }
    if run is not None:
        record["run"] = run.to_dict()
    return record


def report_payload(results: Dict[str, object]) -> Dict:
    """:func:`run_all`'s ``results`` as one JSON-able payload (``repro
    report --json``).

    Per experiment: id, title, kind, columns/rows, claims, and the full
    encoded result; plus the held/total claims scoreboard.
    """
    by_title = {
        spec.title: spec for spec in EXPERIMENT_REGISTRY.experiments()
    }
    experiments = []
    held = total = 0
    for title, result in results.items():
        record = experiment_record(result, spec=by_title.get(title))
        if record["title"] is None:
            record["title"] = title
        held += sum(1 for c in record["claims"] if c["holds"])
        total += len(record["claims"])
        experiments.append(record)
    return {
        "experiments": experiments,
        "scoreboard": {"held": held, "total": total},
    }
