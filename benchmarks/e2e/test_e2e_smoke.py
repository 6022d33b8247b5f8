"""Tier-1 guard for the benchmark's front-door calls.

Runs the smoke suite (sizes / 16, two iterations) through the real runner —
one child interpreter per workload — so a change that breaks a call the
benchmark depends on fails here instead of at measurement time.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_suite_emits_every_end_to_end_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(tmp_path / "results.json") as handle:
        results = json.load(handle)
    assert results["smoke"] is True
    # the suite is all eight; BENCHMARK.json lists six of them for the driver
    assert len(results["workloads"]) == 8
    assert {w["name"] for w in spec["workloads"]} <= set(results["workloads"])
    for name, report in results["workloads"].items():
        assert report["smoke"] is True
        assert report["failed"] == 0 and report["correct"], (name, report["errors"])
        for metric in spec["end_to_end"]:
            value = report["metrics"][metric["name"]]
            assert math.isfinite(value) and value > 0, (name, metric["name"], value)
