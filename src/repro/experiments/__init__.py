"""Experiment harness: one module per paper table/figure.

Each module registers its ``run()`` function with
:data:`repro.api.EXPERIMENT_REGISTRY` via ``@register_experiment`` and
returns an :class:`~repro.api.ExperimentResult` — ``columns()``/``rows()``
(the same series the paper plots), ``claims()`` (paper-vs-measured), and
``render()`` (a text table), with lossless ``to_dict``/``from_dict`` for
the on-disk run cache.  Importing this package runs none of them: the
registry's first lookup imports each module named here (``__all__``),
which is how it discovers the built-ins, and ``from repro.experiments
import fig11_throughput`` imports just that one.
:mod:`repro.experiments.report` runs everything (fresh or from cache)
and produces the full paper-vs-measured report.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments": (
        "abl_batch_size", "abl_double_buffering", "abl_lane_sweep",
        "abl_multijob", "abl_network_contention", "abl_network_sweep",
        "abl_row_vs_columnar", "fleet_resilience", "fleet_tco",
        "fig3_colocated", "fig4_cores_required", "fig5_breakdown",
        "fig6_utilization", "table1_models", "table2_resources",
        "fig11_throughput", "fig12_latency", "fig13_network",
        "fig14_provisioning", "fig15_efficiency", "fig16_alternatives",
        "fig17_sensitivity",
    ),
})

__all__ = [
    "abl_batch_size",
    "abl_double_buffering",
    "abl_lane_sweep",
    "abl_multijob",
    "abl_network_contention",
    "abl_network_sweep",
    "abl_row_vs_columnar",
    "fleet_resilience",
    "fleet_tco",
    "fig3_colocated",
    "fig4_cores_required",
    "fig5_breakdown",
    "fig6_utilization",
    "table1_models",
    "table2_resources",
    "fig11_throughput",
    "fig12_latency",
    "fig13_network",
    "fig14_provisioning",
    "fig15_efficiency",
    "fig16_alternatives",
    "fig17_sensitivity",
]
