"""Smoke tests: every example script runs to completion as a subprocess."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_present():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # the deliverable floor


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert len(result.stdout) > 100  # produced a real report
