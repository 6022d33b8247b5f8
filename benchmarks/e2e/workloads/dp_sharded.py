"""``dp_sharded`` — per-shard fixed cost, pool start-up and pickling.

RM1 columns are tiny (13 dense, 26 sparse of one id), so 32 shards through
a 2-process pool spend their time in the executor, not the kernels: the
bypass workload for kernel changes and the target of supervisor work.
"""

from workloads._dataplane import ShardedDataPlane


class DpSharded(ShardedDataPlane):
    name = "dp_sharded"
    model = "RM1"
    rows = 131072
    shards = 32
    processes = 2
    parallel = True


WORKLOAD = DpSharded
