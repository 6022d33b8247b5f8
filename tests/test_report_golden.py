"""Golden bytes of ``repro report``.

Every PR gates on "the report is byte-identical", and until this file
nothing pinned it.  The literals below were recorded at the commit
*before* the experiment modules lost their per-class ``render()`` (PR
14): the sha256 of ``render_report(run_all())``, the scoreboard, and one
short digest per experiment so a mismatch names the table that moved.
Moved once since (PR 17): ``abl-row`` prints real columnar file bytes, and
the sparse default codec went from LEB128 to byte packing (fraction 1:
479,473 -> 373,959; 0.5: 192,820 -> 168,479); its three claims hold as
before.  Moved again when displaced fleet jobs began resuming from their
last checkpoint and node fault coins moved to one stream per (pool, point,
epoch): ``fleet-resilience`` draws different nodes, prints its clean and
faulted makespans and lost work, and gains the claim "faulted run ends
within 1.5x of the clean makespan" (scoreboard 63 -> 64).  The other 20
render digests are the PR 14 ones.

Regenerate (only when a report change is intended and reviewed)::

    PYTHONPATH=src python tests/test_report_golden.py
"""

import hashlib

import pytest

from repro.api import EXPERIMENT_REGISTRY
from repro.experiments.report import render_report, report_payload, run_all

REPORT_SHA256 = "a5257bb072f7598af8ebd90d1f28c0df9c8c1d9ad3450793476faafc51ce92ac"
SCOREBOARD = {"held": 64, "total": 64}

#: experiment id -> sha256[:16] of its ``render()`` text
RENDER_DIGESTS = {
    "fig3": "78019482a4fc0271",
    "fig4": "8cae09afbef73470",
    "fig5": "74f7761f9c742ec0",
    "fig6": "32aef4d84bc2127f",
    "table1": "c0d5037440da048f",
    "table2": "2b817b84e93ac4e5",
    "fig11": "f9a8e0cb84d381f0",
    "fig12": "35ea344ced406da1",
    "fig13": "3155ed6062de0e5e",
    "fig14": "ecd723333686780d",
    "fig15": "aa4a4169268813bc",
    "fig16": "5b3ab213243568b7",
    "fig17": "3cf9c7684a3fb8f9",
    "abl-row": "edafdbcfae24dc72",
    "abl-pipeline": "32951e68745cd37a",
    "abl-lanes": "c88e6c4d008f6967",
    "abl-network": "917dd39502d2bfc7",
    "abl-contention": "de059954d0686729",
    "abl-batch": "edc27ce815fa2355",
    "abl-fleet": "3e023369abe5d544",
    "fleet-tco": "8755f32518b860fb",
    "fleet-resilience": "a8c5b07994164a71",
}


def render_digests(results):
    ids = {spec.title: spec.id for spec in EXPERIMENT_REGISTRY.experiments()}
    return {
        ids[title]: hashlib.sha256(result.render().encode()).hexdigest()[:16]
        for title, result in results.items()
    }


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_every_experiment_renders_the_recorded_bytes(results):
    assert render_digests(results) == RENDER_DIGESTS


def test_report_text_is_byte_identical(results):
    text = render_report(results)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256
    held, total = SCOREBOARD["held"], SCOREBOARD["total"]
    assert f"CLAIMS SCOREBOARD: {held}/{total} within tolerance" in text


def test_scoreboard_counts(results):
    assert report_payload(results)["scoreboard"] == SCOREBOARD


if __name__ == "__main__":
    fresh = run_all()
    text = render_report(fresh)
    print(f'REPORT_SHA256 = "{hashlib.sha256(text.encode()).hexdigest()}"')
    print(f"SCOREBOARD = {report_payload(fresh)['scoreboard']}")
    print("RENDER_DIGESTS = {")
    for id, digest in render_digests(fresh).items():
        print(f'    "{id}": "{digest}",')
    print("}")
