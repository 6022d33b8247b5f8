"""A ``Scenario`` run and ``repro run --model ...`` import only the sim tier,
and a clean ``repro fleet run`` imports no numpy.

Their wall clock is mostly start-up, and start-up is mostly import: each
sim-tier front door must leave the serve daemon, the fleet simulator, the
experiment harness, the shard executor and the batch runner unimported,
and numpy too (the performance models are plain Python; numpy is the
data plane's, and the fleet's only through an armed fault probe).  Each
case runs in a fresh interpreter and lists what it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: (prefix, whole package counts) — a module is out of the sim tier's
#: closure if it is ``prefix`` itself (when the flag is set) or below it
OUTSIDE = (
    ("repro.serve", True),
    ("repro.fleet", False),  # the package itself is a free lazy table
    ("repro.experiments", True),
    ("repro.exec.executor", True),
    ("repro.batch.runner", True),
    ("numpy", True),
)

FRONT_DOORS = {
    "scenario": """
        from repro import Scenario
        Scenario(model="RM5", system="Disagg", num_gpus=8, num_batches=3).run()
    """,
    "cli-run": """
        from repro.cli import main
        assert main(["run", "--model", "RM1", "--system", "Disagg", "--batches", "3"]) == 0
    """,
}


def loaded_by(code: str):
    """The ``repro`` and ``numpy`` modules a fresh interpreter holds after
    ``code``."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.startswith(("repro", "numpy")))))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def outside(module: str) -> bool:
    return any(
        module.startswith(prefix + ".") or (whole and module == prefix)
        for prefix, whole in OUTSIDE
    )


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_the_sim_tier_imports_no_other_tier(door):
    loaded = loaded_by(FRONT_DOORS[door])
    assert "repro.core.endtoend" in loaded  # it did simulate
    assert [module for module in loaded if outside(module)] == []


def test_a_clean_fleet_run_loads_no_numpy():
    """Only an armed node probe draws its coins through numpy, so a fleet
    day with no fault plan never imports it."""
    loaded = loaded_by("""
        from repro.cli import main
        assert main(["fleet", "run", "--jobs", "50"]) == 0
    """)
    assert "repro.fleet.simulator" in loaded  # it did simulate
    assert [module for module in loaded if module.split(".")[0] == "numpy"] == []
