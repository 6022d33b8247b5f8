"""Golden ``FleetResult.digest`` literals for the fleet step loop.

The other fleet tests compare a run with its own rerun; these pin the
bytes.  Every digest below was recorded at the commit *before* the step
loop moved to incremental ledgers (PR 12), so "byte-identical to the
scanning simulator" has a guard: a change to placement order, queue
order, autoscaling inputs, fault keys or the energy integral shows up
here as a literal mismatch.

Regenerate (only when a behaviour change is intended and reviewed)::

    PYTHONPATH=src python tests/test_fleet_golden.py
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleet import (
    AUTOSCALE_KINDS,
    TRACE_KINDS,
    default_pools,
    generate_trace,
    run_fleet,
)
from test_fleet import SMALL_POOLS

POLICIES = ("first-fit", "best-fit", "priority")

#: fleet label -> (pools, trace shape).  "bench" is the small two-pool
#: fleet ``repro bench`` ran on when these were recorded (the fleet tests'
#: ``SMALL_POOLS``).  Both are sized so 200 jobs queue, autoscale and
#: (faulted) get displaced: the bench fleet is small, and the default
#: pools see the jobs compressed into two hours.
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
    for autoscaler in AUTOSCALE_KINDS
    for faults in ("clean", "faulted")
]

GOLDEN = {
    "bench/poisson/first-fit/fixed/clean": "c8322fdced594fdd",
    "bench/poisson/first-fit/fixed/faulted": "21b170b80b083d49",
    "bench/poisson/first-fit/target-utilization/clean": "3bca3e4688cddc23",
    "bench/poisson/first-fit/target-utilization/faulted": "b2b057d5192d82a0",
    "bench/poisson/first-fit/queue-depth/clean": "9cc71f2829ec1a51",
    "bench/poisson/first-fit/queue-depth/faulted": "6d2d8a5e10c61de5",
    "bench/poisson/best-fit/fixed/clean": "64e279dfbc1029cc",
    "bench/poisson/best-fit/fixed/faulted": "401a1ae6a023b79b",
    "bench/poisson/best-fit/target-utilization/clean": "fd9a9d8aea14d90b",
    "bench/poisson/best-fit/target-utilization/faulted": "1909b278ee0d1e47",
    "bench/poisson/best-fit/queue-depth/clean": "33853ce23dfe98bb",
    "bench/poisson/best-fit/queue-depth/faulted": "797f57597de93bdb",
    "bench/poisson/priority/fixed/clean": "f5228acc3a4da2ab",
    "bench/poisson/priority/fixed/faulted": "8ebe1c9a9f675d56",
    "bench/poisson/priority/target-utilization/clean": "a3c9524c14db37e2",
    "bench/poisson/priority/target-utilization/faulted": "e23ca1d3dfbc0e5a",
    "bench/poisson/priority/queue-depth/clean": "a73e44d637f0d4c2",
    "bench/poisson/priority/queue-depth/faulted": "98828c595391abf4",
    "bench/diurnal/first-fit/fixed/clean": "b99adeca4971450d",
    "bench/diurnal/first-fit/fixed/faulted": "35a603c03a71143c",
    "bench/diurnal/first-fit/target-utilization/clean": "a61350fb6d4dd2c8",
    "bench/diurnal/first-fit/target-utilization/faulted": "c8ce7017d2865163",
    "bench/diurnal/first-fit/queue-depth/clean": "7043133472d6a0c8",
    "bench/diurnal/first-fit/queue-depth/faulted": "aca4d2e8b690af1f",
    "bench/diurnal/best-fit/fixed/clean": "b0e53cb740bb013c",
    "bench/diurnal/best-fit/fixed/faulted": "173ba4fdf1584b23",
    "bench/diurnal/best-fit/target-utilization/clean": "0bac61cbb73ae864",
    "bench/diurnal/best-fit/target-utilization/faulted": "54f3a014b0ffbe6f",
    "bench/diurnal/best-fit/queue-depth/clean": "33888ea85d2ac4c0",
    "bench/diurnal/best-fit/queue-depth/faulted": "6e52c08399f05b8a",
    "bench/diurnal/priority/fixed/clean": "17e04ee4ba4e86a2",
    "bench/diurnal/priority/fixed/faulted": "8e2c80256b78849f",
    "bench/diurnal/priority/target-utilization/clean": "a085a5d98199ba71",
    "bench/diurnal/priority/target-utilization/faulted": "052f4d7680df7b6b",
    "bench/diurnal/priority/queue-depth/clean": "00d54a2479feb670",
    "bench/diurnal/priority/queue-depth/faulted": "e47ce50211e4f327",
    "bench/bursty/first-fit/fixed/clean": "aa2404f6c343a15f",
    "bench/bursty/first-fit/fixed/faulted": "25c4fc7646f9d4af",
    "bench/bursty/first-fit/target-utilization/clean": "7a71b1e6d7b75bf4",
    "bench/bursty/first-fit/target-utilization/faulted": "d0b93471f6d74266",
    "bench/bursty/first-fit/queue-depth/clean": "6cc3cb03e9cd6b5e",
    "bench/bursty/first-fit/queue-depth/faulted": "baefde57fa0fad70",
    "bench/bursty/best-fit/fixed/clean": "eacfee75c65c22a6",
    "bench/bursty/best-fit/fixed/faulted": "d3ba2c60797fba80",
    "bench/bursty/best-fit/target-utilization/clean": "f5197604a344e9f4",
    "bench/bursty/best-fit/target-utilization/faulted": "f4663859880c817d",
    "bench/bursty/best-fit/queue-depth/clean": "a4861b5f1ab53868",
    "bench/bursty/best-fit/queue-depth/faulted": "dbe165ad8e8b1a22",
    "bench/bursty/priority/fixed/clean": "b270a0adc89cb27d",
    "bench/bursty/priority/fixed/faulted": "5c65e130496a01b3",
    "bench/bursty/priority/target-utilization/clean": "943b147759d81acc",
    "bench/bursty/priority/target-utilization/faulted": "33860f9da4573bd6",
    "bench/bursty/priority/queue-depth/clean": "ac7b5db759bdade5",
    "bench/bursty/priority/queue-depth/faulted": "b0e5c256e5a36b23",
    "default/poisson/first-fit/fixed/clean": "332eb8125d0a5615",
    "default/poisson/first-fit/fixed/faulted": "35b392f6c00225f9",
    "default/poisson/first-fit/target-utilization/clean": "96152ee5381f18d8",
    "default/poisson/first-fit/target-utilization/faulted": "f98d98bc67e46bd2",
    "default/poisson/first-fit/queue-depth/clean": "82e150d3a405e7c5",
    "default/poisson/first-fit/queue-depth/faulted": "524c039f19232a85",
    "default/poisson/best-fit/fixed/clean": "df232ef37bb55788",
    "default/poisson/best-fit/fixed/faulted": "bbc48de12a7543a5",
    "default/poisson/best-fit/target-utilization/clean": "6efc72dd9575d7f7",
    "default/poisson/best-fit/target-utilization/faulted": "c5f5c0a7c4add830",
    "default/poisson/best-fit/queue-depth/clean": "acc857c2651044a8",
    "default/poisson/best-fit/queue-depth/faulted": "9f95c83129968091",
    "default/poisson/priority/fixed/clean": "02e4ebfad25f1436",
    "default/poisson/priority/fixed/faulted": "0ff0b97ea27f3236",
    "default/poisson/priority/target-utilization/clean": "b64c8ca2aa52696e",
    "default/poisson/priority/target-utilization/faulted": "ef872d7a265fc411",
    "default/poisson/priority/queue-depth/clean": "4ded02ce816c75bb",
    "default/poisson/priority/queue-depth/faulted": "12e2acdcb3c5851a",
    "default/diurnal/first-fit/fixed/clean": "915d3bf8db114e22",
    "default/diurnal/first-fit/fixed/faulted": "ce37ff8f1466219e",
    "default/diurnal/first-fit/target-utilization/clean": "4e92c394e69b26f4",
    "default/diurnal/first-fit/target-utilization/faulted": "45ebacdfaa91e4c1",
    "default/diurnal/first-fit/queue-depth/clean": "e264c221f3bf46e1",
    "default/diurnal/first-fit/queue-depth/faulted": "d1776be00e6803c3",
    "default/diurnal/best-fit/fixed/clean": "2a382cacba5859c5",
    "default/diurnal/best-fit/fixed/faulted": "39eae5f2d98a6aa5",
    "default/diurnal/best-fit/target-utilization/clean": "36e0af19df7fae4b",
    "default/diurnal/best-fit/target-utilization/faulted": "c42541234b28d252",
    "default/diurnal/best-fit/queue-depth/clean": "4f215ae0a61ef21b",
    "default/diurnal/best-fit/queue-depth/faulted": "34a91262ebbfced4",
    "default/diurnal/priority/fixed/clean": "12490ef698c51988",
    "default/diurnal/priority/fixed/faulted": "699bd04c5680bab8",
    "default/diurnal/priority/target-utilization/clean": "39c45734278ebb93",
    "default/diurnal/priority/target-utilization/faulted": "d245e0d5c8fb017f",
    "default/diurnal/priority/queue-depth/clean": "85baed5588be74bf",
    "default/diurnal/priority/queue-depth/faulted": "20172588534b3a66",
    "default/bursty/first-fit/fixed/clean": "e5f4f24b84b56f4c",
    "default/bursty/first-fit/fixed/faulted": "023d7943c7b1c7c3",
    "default/bursty/first-fit/target-utilization/clean": "2707c24bc99f8115",
    "default/bursty/first-fit/target-utilization/faulted": "1549437ce09dc82c",
    "default/bursty/first-fit/queue-depth/clean": "9ab5cde4f5fa02bc",
    "default/bursty/first-fit/queue-depth/faulted": "1e8c325f1ecf2444",
    "default/bursty/best-fit/fixed/clean": "e25722e79c45a275",
    "default/bursty/best-fit/fixed/faulted": "2e7a277ac61189c2",
    "default/bursty/best-fit/target-utilization/clean": "fbed544d58fc13a8",
    "default/bursty/best-fit/target-utilization/faulted": "9c89b798eda5b259",
    "default/bursty/best-fit/queue-depth/clean": "d3175a71f3c51ef9",
    "default/bursty/best-fit/queue-depth/faulted": "e1685e0c867cd410",
    "default/bursty/priority/fixed/clean": "a9255bbec5583319",
    "default/bursty/priority/fixed/faulted": "9a6c431b55463a07",
    "default/bursty/priority/target-utilization/clean": "72cd78865f5db17a",
    "default/bursty/priority/target-utilization/faulted": "79300861e107be0d",
    "default/bursty/priority/queue-depth/clean": "20cbd09c0381f7aa",
    "default/bursty/priority/queue-depth/faulted": "4a795cbf20e32da1",
}

#: the 10k-job day: 32 s on the scanning loop, ~2 s on the ledgers
ANCHOR_10K = "bccc5ac109d90c5f"


@pytest.mark.parametrize(
    "case", CASES, ids=["/".join(case) for case in CASES]
)
def test_golden_digest(case):
    result = golden_run(*case)
    assert result.all_terminal()
    assert result.digest == GOLDEN["/".join(case)]


def test_matrix_is_complete():
    assert sorted(GOLDEN) == sorted("/".join(case) for case in CASES)
    # the matrix is only a guard if its cells differ from one another
    assert len(set(GOLDEN.values())) > len(GOLDEN) // 2


def test_ten_thousand_job_anchor():
    trace = generate_trace("diurnal", num_jobs=10000, seed=1)
    result = run_fleet(
        trace, pools=default_pools(), policy="best-fit",
        autoscaler="target-utilization",
    )
    assert result.all_terminal()
    assert result.digest == ANCHOR_10K


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f'    "{"/".join(case)}": "{golden_run(*case).digest}",')
    print("}")
