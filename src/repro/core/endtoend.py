"""End-to-end training-pipeline simulation.

Couples a :class:`~repro.core.manager.PreprocessManager` (producer) to a
:class:`~repro.training.trainer.TrainManager` (consumer) through the bounded
input queue of Figure 9.  The emergent GPU utilization is the paper's
headline system metric (Fig. 3's right axis): when preprocessing supply
falls short of ``T``, the trainer starves and utilization drops below 100%.

The pipeline is one loop (:func:`_simulate`).  Every launched slot is the
system's one worker, priced once: each producer's batch is ``READY`` after
one latency, later ones one interval apart, in a FIFO of ``(time, k)``.

* The trainer is one scalar, the time its current batch finishes (``inf``
  while it waits).  It is busy for ``TrainManager.step_time()`` per batch:
  the iteration, or the host-to-device copy when that is longer — each
  data-parallel GPU copies its own ``1/num_gpus`` of the batch over its own
  link.
* A ``READY`` batch goes to a waiting trainer at once, else into the
  queue, and its producer's next batch is scheduled; while the queue is
  full the producer joins a FIFO of blocked producers instead.
* A finished batch takes the next queued one at once, and the freed slot
  admits the longest-blocked producer.

Ordering rule: producer events are taken by time, simultaneous ones in the
order they were scheduled; on a tie with a producer the trainer goes first.
With one trainer, the order of a trainer event and a producer event at the
same instant never moves a statistic.  A FIFO keeps that order unsorted:
the first events all sit at the latency, each later one at ``now +
interval`` with ``now`` never decreasing nor below the latency and
``interval >= 0``, so events are scheduled in time order.  Each batch costs
one append and one popleft.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.errors import ConfigurationError, SimulationError, is_int
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.api.registry import REGISTRY
from repro.core.manager import PreprocessManager
from repro.core.systems import PreprocessingSystem
from repro.training.trainer import TrainManager

@dataclass(frozen=True)
class PipelineStats:
    """Outcome of one end-to-end simulated training run."""

    spec_name: str
    num_workers: int
    num_batches: int
    wall_time: float
    training_time: float
    wait_time: float
    preprocessing_throughput: float  # samples/s supplied
    training_throughput: float  # samples/s consumed end to end
    first_batch_time: float = 0.0  # pipeline warmup (first-batch latency)

    @property
    def gpu_utilization(self) -> float:
        """Fraction of wall time the GPU spent training."""
        if self.wall_time <= 0:
            return 0.0
        return min(self.training_time / self.wall_time, 1.0)

    @property
    def steady_state_utilization(self) -> float:
        """Utilization measured after the pipeline warmup: production runs
        last hours, so the one-batch fill latency amortizes away."""
        span = self.wall_time - self.first_batch_time
        if span <= 0:
            return 0.0
        return min(self.training_time / span, 1.0)


def _simulate(
    latency: float,
    interval: float,
    shares: List[int],
    capacity: int,
    iteration: float,
    step: float,
    num_batches: int,
) -> Tuple[float, float, float, float, float]:
    """Run the Figure 9 pipeline to the last trained batch.

    Producer ``k``'s first batch is ready after ``latency``, the rest of its
    ``shares[k] > 0`` one ``interval`` apart.  Returns ``(wall, training,
    wait, first_batch, production_end)`` in simulated seconds.
    """
    inf = float("inf")
    delays = (latency, interval, iteration, step)
    if not all(-inf < delay < inf for delay in delays):
        raise SimulationError("non-finite delay in the pipeline model")
    if min(delays) < 0:
        raise SimulationError("negative delay in the pipeline model")
    # every time is ``now + delay``, this one included (``now`` is 0.0)
    ready = collections.deque((0.0 + latency, k) for k in range(len(shares)))
    schedule, take = ready.append, ready.popleft
    left = list(shares)
    blocked: collections.deque = collections.deque()
    queued = trained = 0
    done = inf  # when the trainer's batch finishes; inf while it waits
    training = wait = first = wait_start = production_end = 0.0
    while True:
        if ready and ready[0][0] < done:
            now, k = take()
            if queued == capacity:
                blocked.append(k)
                continue
            if done == inf:
                # the trainer waits only on an empty queue: it takes k's batch
                if trained == 0:
                    first = now
                wait += now - wait_start
                done = now + step
            else:
                queued += 1
        else:
            # the trainer goes first on a tie: a trainer event and a producer
            # event at one instant never move a statistic in either order
            now = done
            training += iteration
            trained += 1
            if trained == num_batches:
                return now, training, wait, first, production_end
            wait_start = now
            if not queued:
                done = inf
                continue
            # it takes the next queued batch at once; producers block only on
            # a full queue, so the freed slot admits at most one of them
            done = now + step
            if not blocked:
                queued -= 1
                continue
            k = blocked.popleft()
        # k's batch is in the queue (or the trainer): schedule its next one
        left[k] -= 1
        if left[k]:
            schedule((now + interval, k))
        else:
            production_end = now


class EndToEndSimulation:
    """Build and run one preprocessing-feeds-training pipeline.

    ``system`` names a registered design point or is a
    :class:`~repro.core.systems.PreprocessingSystem` instance::

        EndToEndSimulation(spec, "PreSto", num_gpus=8)

    A modelled worker's timing is a pure function of its spec and
    calibration, so the system's one worker fills every launched slot and
    is priced once, here: ``latency`` and ``worker_throughput`` (``P``).
    """

    def __init__(
        self,
        spec: ModelSpec,
        system: Union[str, PreprocessingSystem],
        num_gpus: int = 1,
        calibration: Calibration = CALIBRATION,
        queue_capacity: int = 16,
    ) -> None:
        if isinstance(system, str):
            system = REGISTRY.create(system, spec, calibration)
        if not isinstance(system, PreprocessingSystem):
            raise ConfigurationError(
                f"system must be a registered name or a PreprocessingSystem, "
                f"got {system!r}"
            )
        self.system = system
        self.spec = spec
        self.preprocess_manager = PreprocessManager(system.make_worker())
        self.latency, self.worker_throughput = self.preprocess_manager.worker.price()
        self.train_manager = TrainManager(
            spec,
            num_gpus=num_gpus,
            calibration=calibration,
            input_queue_capacity=queue_capacity,
        )

    def run(
        self, num_batches: int, num_workers: Optional[int] = None
    ) -> PipelineStats:
        """Simulate ``num_batches`` training iterations on ``num_workers``.

        With no ``num_workers`` this is the full Figure 9 flow: the plan
        comes from ``system.provision_for`` — the one planner ``repro
        provision`` and the fleet tier use — so a design that cannot sustain
        the demand raises its own typed error here too.
        """
        if not is_int(num_batches) or num_batches <= 0:
            raise ConfigurationError(
                f"num_batches must be a positive int, got {num_batches!r}"
            )
        if num_workers is None:
            plan = self.system.provision_for(self.train_manager.num_gpus)
            num_workers = plan.num_workers
        trainer = self.train_manager
        wall, training, wait, first, production_span = _simulate(
            self.latency,
            self.spec.batch_size / self.worker_throughput,
            self.preprocess_manager.launch(num_batches, num_workers),
            trainer.input_queue_capacity,
            trainer.iteration_time(),
            trainer.step_time(),
            num_batches,
        )
        samples = num_batches * self.spec.batch_size
        consumed_time = wall if wall > 0 else 1.0
        # Supply is what the workers produced over the time they were active
        # — not a copy of the training rate.  Well-fed producers finish (and
        # stop being measured) before the trainer drains the queue, so supply
        # can legitimately exceed demand.
        if production_span <= 0:
            production_span = consumed_time
        return PipelineStats(
            spec_name=self.spec.name,
            num_workers=num_workers,
            num_batches=num_batches,
            wall_time=wall,
            training_time=training,
            wait_time=wait,
            preprocessing_throughput=samples / production_span,
            training_throughput=samples / consumed_time,
            first_batch_time=first,
        )
