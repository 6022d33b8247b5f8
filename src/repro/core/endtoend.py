"""End-to-end training-pipeline simulation.

Couples a :class:`~repro.core.manager.PreprocessManager` (producer) to a
:class:`~repro.training.trainer.TrainManager` (consumer) through the bounded
input queue of Figure 9 and runs the discrete-event engine.  The emergent
GPU utilization is the paper's headline system metric (Fig. 3's right axis):
when preprocessing supply falls short of ``T``, the trainer starves and
utilization drops below 100%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.systems import PreprocessingSystem

from repro.errors import ConfigurationError
from repro.features.specs import ModelSpec
from repro.hardware.calibration import CALIBRATION, Calibration
from repro.api.registry import REGISTRY
from repro.core.manager import PreprocessManager
from repro.core.worker import PreprocessingWorker
from repro.sim.engine import Engine
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


class EndToEndSimulation:
    """Build and run one preprocessing-feeds-training pipeline.

    Preferred construction names a registered system design point::

        EndToEndSimulation(spec, system="PreSto", num_gpus=8)

    (or passes a :class:`~repro.core.systems.PreprocessingSystem` instance).
    ``worker_factory`` is the other supported form: any zero-argument
    callable returning a worker, for pipelines whose workers are not a
    registered system's (a bare ``CpuPreprocessingWorker``, a test double).
    """

    def __init__(
        self,
        spec: ModelSpec,
        worker_factory: Optional[Callable[[], PreprocessingWorker]] = None,
        num_gpus: int = 1,
        calibration: Calibration = CALIBRATION,
        queue_capacity: int = 16,
        system: Union[str, "PreprocessingSystem", None] = None,
    ) -> None:
        if (worker_factory is None) == (system is None):
            raise ConfigurationError(
                "pass exactly one of worker_factory or system"
            )
        if system is not None:
            if isinstance(system, str):
                system = REGISTRY.create(system, spec, calibration)
            worker_factory = system.make_worker
        self.system = system
        self.spec = spec
        self.calibration = calibration
        self.preprocess_manager = PreprocessManager(spec, worker_factory)
        self.train_manager = TrainManager(
            spec,
            num_gpus=num_gpus,
            calibration=calibration,
            input_queue_capacity=queue_capacity,
        )

    def run(
        self,
        num_batches: int,
        num_workers: Optional[int] = None,
        provision_to_demand: bool = False,
    ) -> PipelineStats:
        """Simulate ``num_batches`` training iterations.

        ``provision_to_demand=True`` runs the full Figure 9 flow: measure T,
        plan ceil(T/P) workers, then launch.  A simulation built from a
        ``system`` takes the plan from ``system.provision_for`` — the one
        planner ``repro provision`` and the fleet tier use — so a design that
        cannot sustain the demand raises its own typed error here too.
        """
        if num_batches <= 0:
            raise ConfigurationError("num_batches must be positive")
        engine = Engine()
        queue = self.train_manager.make_input_queue()

        if provision_to_demand and self.system is not None:
            plan = self.system.provision_for(self.train_manager.num_gpus)
            launch_kwargs = {"num_workers": plan.num_workers}
        elif provision_to_demand:
            launch_kwargs = {
                "training_throughput": self.train_manager.measure_max_throughput()
            }
        elif num_workers is not None:
            launch_kwargs = {"num_workers": num_workers}
        else:
            raise ConfigurationError(
                "pass num_workers or provision_to_demand=True"
            )
        producers = self.preprocess_manager.launch(
            engine, queue, num_batches, **launch_kwargs
        )
        trainer_process = engine.spawn(
            "train-manager",
            self.train_manager.run(engine, queue, num_batches),
        )
        engine.run()
        if not trainer_process.finished:
            raise ConfigurationError("trainer did not finish; broken pipeline")

        stats = self.train_manager.stats
        wall = stats.finish_time
        samples = num_batches * self.spec.batch_size
        consumed_time = wall if wall > 0 else 1.0
        # Supply is what the preprocess manager actually produced over the
        # time its workers were active — not a copy of the training rate.
        # Well-fed producers finish (and stop being measured) before the
        # trainer drains the queue, so supply can legitimately exceed demand.
        produced_samples = (
            self.preprocess_manager.total_batches_produced * self.spec.batch_size
        )
        production_span = max(
            (p.finish_time for p in producers if p.finish_time is not None),
            default=wall,
        )
        if production_span <= 0:
            production_span = consumed_time
        return PipelineStats(
            spec_name=self.spec.name,
            num_workers=len(self.preprocess_manager.workers),
            num_batches=num_batches,
            wall_time=wall,
            training_time=stats.training_time,
            wait_time=stats.wait_time,
            preprocessing_throughput=produced_samples / production_span,
            training_throughput=samples / consumed_time,
            first_batch_time=stats.first_batch_time,
        )
