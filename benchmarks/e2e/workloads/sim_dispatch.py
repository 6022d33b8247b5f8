"""``sim_dispatch`` — engine dispatch and worker/trainer tier logic.

PreSto RM5 needs 9 workers, so construction is a few percent and 200000
simulated batches are the iteration: the bypass workload for any
construction-sharing change, and the row that can show the engine's share.
"""

from workloads._scenario import ScenarioWorkload

#: ``Engine.run`` is entered once per simulation and its dispatch loop is
#: the iteration; CPython 3.11 specialises it on the 8th entry.  Measured:
#: the first 7 simulations of a process read 1.00-1.04 s, the following
#: ones 0.88-0.91 s, whatever their size; after 10 small ones the first
#: full-size simulation reads 0.88 s.
PRIMING_RUNS = 10
PRIMING_BATCHES = 1000


class SimDispatch(ScenarioWorkload):
    name = "sim_dispatch"
    system = "PreSto"
    batches = 200_000

    def prime(self) -> None:
        from repro.api import Scenario

        for _ in range(PRIMING_RUNS):
            Scenario(
                model=self.model, system=self.system, num_gpus=self.num_gpus,
                num_batches=self.scaled(PRIMING_BATCHES),
            ).run()


WORKLOAD = SimDispatch
