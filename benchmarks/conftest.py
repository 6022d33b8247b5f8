"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper table/figure, prints the same
rows/series the paper reports, and asserts the shape claims hold.  Tier-1
runs every body once (``--benchmark-disable`` in ``pyproject.toml``); run

    pytest benchmarks/ --benchmark-enable --benchmark-only -s

to see the rendered tables alongside the timings.
"""

from __future__ import annotations


def report(result) -> None:
    """Print a rendered experiment result (visible with -s)."""
    print()
    print(result.render())


def assert_claims(result) -> None:
    """Fail the benchmark if any paper claim drifted out of tolerance."""
    claims = getattr(result, "claims", None)
    if claims is None:
        return
    failing = [c for c in claims() if not c.holds]
    assert not failing, [c.render() for c in failing]
