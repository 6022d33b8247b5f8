"""Golden ``FleetResult.digest`` literals for the fleet step loop.

The other fleet tests compare a run with its own rerun; these pin the
bytes.  Every clean digest below was recorded at the commit *before* the
step loop moved to incremental ledgers (PR 12), so "byte-identical to the
scanning simulator" has a guard: a change to placement order, queue
order, autoscaling inputs, fault keys or the energy integral shows up
here as a literal mismatch.  A clean run loses no work, so its payload is
compared with ``lost_work_hours`` (0.0) removed: that field postdates the
literals, and they stay the ones the scanning loop wrote.

The 54 faulted literals were regenerated once, by this file's
``__main__``, when fault handling changed meaning: a displaced job now
resumes from its last ``CHECKPOINT_S`` checkpoint instead of restarting
from zero, and a node's fault coin is word ``id`` of one keyed stream per
(pool, point, epoch) instead of one ``sha256`` per node.  That change also
restored the bursty seed-11 cells below, which restart-from-zero had made
unbounded (one job displaced 16,731 times, 26.7 M simulated seconds).

Regenerate (only when a behaviour change is intended and reviewed)::

    PYTHONPATH=src python tests/test_fleet_golden.py
"""

import time

import pytest

from repro.api.experiment import canonical_digest
from repro.cli import main as cli_main
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleet import (
    AUTOSCALERS,
    POLICIES,
    TRACE_KINDS,
    default_pools,
    generate_trace,
    run_fleet,
)
from test_fleet import SMALL_POOLS

#: fleet label -> (pools, trace shape).  "bench" is the small two-pool
#: fleet of the fleet tests (``SMALL_POOLS``); the label is the name of a
#: since-deleted timing command that ran on it when these were recorded,
#: and it stays because the digest keys carry it.  Both are sized so 200
#: jobs queue, autoscale and (faulted) get displaced: the bench fleet is
#: small, and the default pools see the jobs compressed into two hours.
FLEETS = {
    "bench": (SMALL_POOLS, dict(horizon_s=6 * 3600.0, mean_duration_s=1200.0)),
    "default": (None, dict(horizon_s=2 * 3600.0, mean_duration_s=1200.0)),
}
NUM_JOBS = 200
TRACE_SEED = 12
FAULT_SEED = 7


def faulted_injector() -> FaultInjector:
    """``repro fleet run --faults node-down,slow-node,arrival-burst
    --fault-seed 7`` (the CLI's default rates)."""
    return FaultInjector(FaultPlan(seed=FAULT_SEED, rules=(
        FaultRule(point="node-down", rate=0.01),
        FaultRule(point="slow-node", rate=0.05, delay_s=300.0),
        FaultRule(point="arrival-burst", rate=0.03),
    )))


def golden_run(fleet, kind, policy, autoscaler, faults):
    pools, shape = FLEETS[fleet]
    trace = generate_trace(kind, num_jobs=NUM_JOBS, seed=TRACE_SEED, **shape)
    return run_fleet(
        trace,
        pools=pools if pools is not None else default_pools(),
        policy=policy,
        autoscaler=autoscaler,
        injector=faulted_injector() if faults == "faulted" else None,
    )


CASES = [
    (fleet, kind, policy, autoscaler, faults)
    for fleet in FLEETS
    for kind in TRACE_KINDS
    for policy in POLICIES
    for autoscaler in AUTOSCALERS
    for faults in ("clean", "faulted")
]

GOLDEN = {
    "bench/poisson/first-fit/fixed/clean": "c8322fdced594fdd",
    "bench/poisson/first-fit/fixed/faulted": "7c0de5cf14f44236",
    "bench/poisson/first-fit/target-utilization/clean": "3bca3e4688cddc23",
    "bench/poisson/first-fit/target-utilization/faulted": "e5e2b364086c78db",
    "bench/poisson/first-fit/queue-depth/clean": "9cc71f2829ec1a51",
    "bench/poisson/first-fit/queue-depth/faulted": "933852ae099f542f",
    "bench/poisson/best-fit/fixed/clean": "64e279dfbc1029cc",
    "bench/poisson/best-fit/fixed/faulted": "62fd1a5ebee35ca5",
    "bench/poisson/best-fit/target-utilization/clean": "fd9a9d8aea14d90b",
    "bench/poisson/best-fit/target-utilization/faulted": "f583cc95365fb923",
    "bench/poisson/best-fit/queue-depth/clean": "33853ce23dfe98bb",
    "bench/poisson/best-fit/queue-depth/faulted": "fb0db583e0d95be4",
    "bench/poisson/priority/fixed/clean": "f5228acc3a4da2ab",
    "bench/poisson/priority/fixed/faulted": "f869d65db74cad75",
    "bench/poisson/priority/target-utilization/clean": "a3c9524c14db37e2",
    "bench/poisson/priority/target-utilization/faulted": "3132fee23405938c",
    "bench/poisson/priority/queue-depth/clean": "a73e44d637f0d4c2",
    "bench/poisson/priority/queue-depth/faulted": "81ada15ad00cd7f2",
    "bench/diurnal/first-fit/fixed/clean": "b99adeca4971450d",
    "bench/diurnal/first-fit/fixed/faulted": "9aa7f6c902d5203c",
    "bench/diurnal/first-fit/target-utilization/clean": "a61350fb6d4dd2c8",
    "bench/diurnal/first-fit/target-utilization/faulted": "1a494cb60d4e140c",
    "bench/diurnal/first-fit/queue-depth/clean": "7043133472d6a0c8",
    "bench/diurnal/first-fit/queue-depth/faulted": "1e9dc55f32f743eb",
    "bench/diurnal/best-fit/fixed/clean": "b0e53cb740bb013c",
    "bench/diurnal/best-fit/fixed/faulted": "bcf7ca95ef4845d9",
    "bench/diurnal/best-fit/target-utilization/clean": "0bac61cbb73ae864",
    "bench/diurnal/best-fit/target-utilization/faulted": "6d4222750d072873",
    "bench/diurnal/best-fit/queue-depth/clean": "33888ea85d2ac4c0",
    "bench/diurnal/best-fit/queue-depth/faulted": "8ad97dbb971d9939",
    "bench/diurnal/priority/fixed/clean": "17e04ee4ba4e86a2",
    "bench/diurnal/priority/fixed/faulted": "d6737b047ae807ff",
    "bench/diurnal/priority/target-utilization/clean": "a085a5d98199ba71",
    "bench/diurnal/priority/target-utilization/faulted": "e71940f88fb3867a",
    "bench/diurnal/priority/queue-depth/clean": "00d54a2479feb670",
    "bench/diurnal/priority/queue-depth/faulted": "96507db678d155e8",
    "bench/bursty/first-fit/fixed/clean": "aa2404f6c343a15f",
    "bench/bursty/first-fit/fixed/faulted": "cc3d40a781456a44",
    "bench/bursty/first-fit/target-utilization/clean": "7a71b1e6d7b75bf4",
    "bench/bursty/first-fit/target-utilization/faulted": "9741a9070ca0f19e",
    "bench/bursty/first-fit/queue-depth/clean": "6cc3cb03e9cd6b5e",
    "bench/bursty/first-fit/queue-depth/faulted": "267706030a34a2a1",
    "bench/bursty/best-fit/fixed/clean": "eacfee75c65c22a6",
    "bench/bursty/best-fit/fixed/faulted": "ebfa43c2c80d196a",
    "bench/bursty/best-fit/target-utilization/clean": "f5197604a344e9f4",
    "bench/bursty/best-fit/target-utilization/faulted": "a27234855e6b05a5",
    "bench/bursty/best-fit/queue-depth/clean": "a4861b5f1ab53868",
    "bench/bursty/best-fit/queue-depth/faulted": "aa28456542028d2a",
    "bench/bursty/priority/fixed/clean": "b270a0adc89cb27d",
    "bench/bursty/priority/fixed/faulted": "0b6b8ed08fc8fddf",
    "bench/bursty/priority/target-utilization/clean": "943b147759d81acc",
    "bench/bursty/priority/target-utilization/faulted": "7b811a5a6d147e20",
    "bench/bursty/priority/queue-depth/clean": "ac7b5db759bdade5",
    "bench/bursty/priority/queue-depth/faulted": "f5c95b854f790892",
    "default/poisson/first-fit/fixed/clean": "332eb8125d0a5615",
    "default/poisson/first-fit/fixed/faulted": "4412e9c5d13e2fe5",
    "default/poisson/first-fit/target-utilization/clean": "96152ee5381f18d8",
    "default/poisson/first-fit/target-utilization/faulted": "7deaf86c7b494f20",
    "default/poisson/first-fit/queue-depth/clean": "82e150d3a405e7c5",
    "default/poisson/first-fit/queue-depth/faulted": "1776e93f9aa7c87b",
    "default/poisson/best-fit/fixed/clean": "df232ef37bb55788",
    "default/poisson/best-fit/fixed/faulted": "f2ff1b22cb45c316",
    "default/poisson/best-fit/target-utilization/clean": "6efc72dd9575d7f7",
    "default/poisson/best-fit/target-utilization/faulted": "97ca9808010e6333",
    "default/poisson/best-fit/queue-depth/clean": "acc857c2651044a8",
    "default/poisson/best-fit/queue-depth/faulted": "3745e9fe1016688f",
    "default/poisson/priority/fixed/clean": "02e4ebfad25f1436",
    "default/poisson/priority/fixed/faulted": "f9ae91d8b21a403e",
    "default/poisson/priority/target-utilization/clean": "b64c8ca2aa52696e",
    "default/poisson/priority/target-utilization/faulted": "1300169231740d8d",
    "default/poisson/priority/queue-depth/clean": "4ded02ce816c75bb",
    "default/poisson/priority/queue-depth/faulted": "e9cad81245bc92df",
    "default/diurnal/first-fit/fixed/clean": "915d3bf8db114e22",
    "default/diurnal/first-fit/fixed/faulted": "911cd5c7ce4f146d",
    "default/diurnal/first-fit/target-utilization/clean": "4e92c394e69b26f4",
    "default/diurnal/first-fit/target-utilization/faulted": "ab37e7dd7ac0413e",
    "default/diurnal/first-fit/queue-depth/clean": "e264c221f3bf46e1",
    "default/diurnal/first-fit/queue-depth/faulted": "ad7166aeeaf6610f",
    "default/diurnal/best-fit/fixed/clean": "2a382cacba5859c5",
    "default/diurnal/best-fit/fixed/faulted": "775d1660896ea815",
    "default/diurnal/best-fit/target-utilization/clean": "36e0af19df7fae4b",
    "default/diurnal/best-fit/target-utilization/faulted": "b4eaa4d499b314b1",
    "default/diurnal/best-fit/queue-depth/clean": "4f215ae0a61ef21b",
    "default/diurnal/best-fit/queue-depth/faulted": "60e2274c0d9f01ea",
    "default/diurnal/priority/fixed/clean": "12490ef698c51988",
    "default/diurnal/priority/fixed/faulted": "1de27b0e818cf348",
    "default/diurnal/priority/target-utilization/clean": "39c45734278ebb93",
    "default/diurnal/priority/target-utilization/faulted": "baea06a79ba7f9c6",
    "default/diurnal/priority/queue-depth/clean": "85baed5588be74bf",
    "default/diurnal/priority/queue-depth/faulted": "5c8c1898f50056ed",
    "default/bursty/first-fit/fixed/clean": "e5f4f24b84b56f4c",
    "default/bursty/first-fit/fixed/faulted": "5763f5f84a2e1dc1",
    "default/bursty/first-fit/target-utilization/clean": "2707c24bc99f8115",
    "default/bursty/first-fit/target-utilization/faulted": "6d0bf1a79e3f7cd1",
    "default/bursty/first-fit/queue-depth/clean": "9ab5cde4f5fa02bc",
    "default/bursty/first-fit/queue-depth/faulted": "f44266e4666d23d4",
    "default/bursty/best-fit/fixed/clean": "e25722e79c45a275",
    "default/bursty/best-fit/fixed/faulted": "a93d2d0bf9f9a541",
    "default/bursty/best-fit/target-utilization/clean": "fbed544d58fc13a8",
    "default/bursty/best-fit/target-utilization/faulted": "3ad8db3c01450807",
    "default/bursty/best-fit/queue-depth/clean": "d3175a71f3c51ef9",
    "default/bursty/best-fit/queue-depth/faulted": "2642c75056b1b0b0",
    "default/bursty/priority/fixed/clean": "a9255bbec5583319",
    "default/bursty/priority/fixed/faulted": "2fe8d5b4ab37e058",
    "default/bursty/priority/target-utilization/clean": "72cd78865f5db17a",
    "default/bursty/priority/target-utilization/faulted": "ed2ea1d701aca3f5",
    "default/bursty/priority/queue-depth/clean": "20cbd09c0381f7aa",
    "default/bursty/priority/queue-depth/faulted": "366c2cc002e4b0d9",
}

#: the 10k-job day: 32 s on the scanning loop, ~2 s on the ledgers.  The
#: wall bound is loose on purpose: it catches a quadratic loop, not noise.
ANCHOR_10K = "bccc5ac109d90c5f"
ANCHOR_10K_MAX_WALL_S = 20.0

#: ``repro fleet run`` on a replayed 120-job diurnal trace under node-down
#: and slow-node faults: pins the fault draws themselves (node coins from one
#: stream per pool, point and epoch; displaced jobs resume from their last
#: checkpoint), which a rerun of one commit cannot
FAULTED_REPLAY = "2cea4e300f20038c"


#: the bursty seed-11 cells on the default fleet, faulted, under
#: target-utilization: policy -> digest.  Bounds stated, not just pinned.
SEED_11 = {
    "first-fit": "c0d55527f53a647c",
    "priority": "b881064beee3f657",
}
SEED_11_MAX_DISPLACEMENTS = 500
SEED_11_MAX_MAKESPAN_S = 86_400.0
SEED_11_MAX_WALL_S = 2.0


@pytest.mark.parametrize(
    "case", CASES, ids=["/".join(case) for case in CASES]
)
def test_golden_digest(case):
    result = golden_run(*case)
    assert result.all_terminal()
    if case[-1] == "clean":
        payload = result.to_dict()
        assert payload.pop("lost_work_hours") == 0.0
        assert canonical_digest(payload) == GOLDEN["/".join(case)]
    assert result.digest == GOLDEN["/".join(case)]


def seed_11_run(policy):
    _, shape = FLEETS["default"]
    trace = generate_trace("bursty", num_jobs=NUM_JOBS, seed=11, **shape)
    return run_fleet(
        trace, pools=default_pools(), policy=policy,
        autoscaler="target-utilization", injector=faulted_injector(),
    )


def test_seed_11_bursty_cells_finish_within_their_bounds():
    started = time.perf_counter()
    results = {policy: seed_11_run(policy) for policy in SEED_11}
    assert time.perf_counter() - started < SEED_11_MAX_WALL_S
    for policy, result in results.items():
        assert result.all_terminal()
        assert result.displacements <= SEED_11_MAX_DISPLACEMENTS
        assert result.makespan_s <= SEED_11_MAX_MAKESPAN_S
        assert result.lost_work_hours > 0.0
        assert result.digest == SEED_11[policy]


def test_matrix_is_complete():
    assert sorted(GOLDEN) == sorted("/".join(case) for case in CASES)
    # the matrix is only a guard if its cells differ from one another
    assert len(set(GOLDEN.values())) > len(GOLDEN) // 2


def test_ten_thousand_job_anchor():
    started = time.perf_counter()
    trace = generate_trace("diurnal", num_jobs=10000, seed=1)
    result = run_fleet(
        trace, pools=default_pools(), policy="best-fit",
        autoscaler="target-utilization",
    )
    assert time.perf_counter() - started < ANCHOR_10K_MAX_WALL_S
    assert result.all_terminal()
    assert result.digest == ANCHOR_10K


def test_faulted_replayed_trace_through_the_cli(tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    assert cli_main(["fleet", "trace", "gen", "--kind", "diurnal",
                     "--jobs", "120", "--seed", "7", "--out", trace]) == 0
    argv = ["fleet", "run", "--trace", trace, "--policy", "best-fit",
            "--autoscale", "target-utilization",
            "--faults", "node-down,slow-node", "--fault-seed", "7"]
    capsys.readouterr()
    runs = []
    for _ in range(2):
        assert cli_main(argv + ["--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert cli_main(argv) == 0
    assert f"  digest {FAULTED_REPLAY}" in capsys.readouterr().out.splitlines()


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f'    "{"/".join(case)}": "{golden_run(*case).digest}",')
    print("}")
    print("SEED_11 = {")
    for policy in ("first-fit", "priority"):
        print(f'    "{policy}": "{seed_11_run(policy).digest}",')
    print("}")
