"""``dp_wide`` — the kernel- and codec-bound data plane.

RM5 is 504 dense + 42 sparse columns of ~20 ids with 4096 bucket
boundaries, so the iteration is columnar write, columnar read and the op
kernels; executor self-time is ~0.  Serial on purpose: the pool-bound
counterpart is ``dp_sharded``.
"""

from workloads._dataplane import ShardedDataPlane


class DpWide(ShardedDataPlane):
    name = "dp_wide"
    model = "RM5"
    rows = 16384
    shards = 2
    processes = 1
    parallel = False


WORKLOAD = DpWide
