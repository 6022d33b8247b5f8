"""``sim_build`` — model construction.

Disagg RM5 on 8 GPUs provisions 367 CPU workers and each builds its own
pipeline; the run costs the same at 5000 batches, so engine dispatch is
noise here and ``core.manager.launch_s`` is the iteration.
"""

from workloads._scenario import ScenarioWorkload


class SimBuild(ScenarioWorkload):
    name = "sim_build"
    system = "Disagg"
    batches = 200


WORKLOAD = SimBuild
