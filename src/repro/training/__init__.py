"""GPU training substrate: a DLRM cost model per Table I architecture and an
A100 device model yielding the max training throughput ``T`` that drives the
paper's T/P provisioning, plus the train-manager consumer process."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.training.dlrm": ("DlrmCostModel", "DlrmWorkload"),
    "repro.training.gpu": ("GpuTrainingModel",),
    "repro.training.trainer": ("TrainManager",),
})

__all__ = ["DlrmCostModel", "DlrmWorkload", "GpuTrainingModel", "TrainManager"]
