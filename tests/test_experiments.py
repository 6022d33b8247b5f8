"""Tests for the experiment harness: every figure/table regenerates and its
paper claims hold within tolerance."""

import pytest

from repro.experiments import (
    fig3_colocated,
    fig4_cores_required,
    fig5_breakdown,
    fig6_utilization,
    fig11_throughput,
    fig12_latency,
    fig13_network,
    fig14_provisioning,
    fig15_efficiency,
    fig16_alternatives,
    fig17_sensitivity,
    table1_models,
    table2_resources,
)
from repro.api import EXPERIMENT_REGISTRY
from repro.experiments.report import collect_claims, render_report, run_all


@pytest.fixture(scope="module")
def results():
    return run_all()


class TestEveryExperimentRuns:
    def test_all_present(self, results):
        # 13 paper figures/tables + 7 ablations + 2 fleet experiments
        assert len(results) == 22

    @pytest.mark.parametrize(
        "name",
        list(EXPERIMENT_REGISTRY.titles("figure"))
        + list(EXPERIMENT_REGISTRY.titles("table")),
    )
    def test_renders_nonempty(self, results, name):
        text = results[name].render()
        assert len(text) > 50
        assert name.split()[0] in text  # "Figure"/"Table" appears in the title

    @pytest.mark.parametrize("experiment_id", EXPERIMENT_REGISTRY.ids())
    def test_claims_hold(self, results, experiment_id):
        """Every quantitative paper claim of one experiment is within its
        tolerance band."""
        title = EXPERIMENT_REGISTRY.get(experiment_id).title
        failing = [
            (claim.description, claim.paper_value, claim.measured_value)
            for _, claim in collect_claims({title: results[title]})
            if not claim.holds
        ]
        assert not failing, failing

    def test_report_renders(self, results):
        report = render_report(results)
        assert "CLAIMS SCOREBOARD" in report


class TestFig3:
    def test_monotone_scaling(self):
        result = fig3_colocated.run()
        tputs = result.preprocessing_throughput
        assert all(b > a for a, b in zip(tputs, tputs[1:]))

    def test_utilization_below_20pct(self):
        result = fig3_colocated.run()
        assert result.utilization_at_16 < 0.20

    def test_rows_shape(self):
        assert len(fig3_colocated.run().rows()) == 5


class TestFig4:
    def test_rm1_needs_far_fewer(self):
        result = fig4_cores_required.run()
        assert result.cores["RM1"] < result.cores["RM2"] / 2

    def test_rm5_is_max(self):
        result = fig4_cores_required.run()
        assert result.max_cores == result.cores["RM5"] == 367


class TestFig5:
    def test_normalized_rm1_total_is_one(self):
        result = fig5_breakdown.run()
        normalized = result.normalized()
        assert sum(normalized["RM1"].values()) == pytest.approx(1.0)

    def test_latency_ordering(self):
        result = fig5_breakdown.run()
        totals = [result.total(m) for m in ("RM1", "RM2", "RM3", "RM4", "RM5")]
        assert all(b >= a for a, b in zip(totals, totals[1:]))


class TestFig11:
    def test_presto_beats_32_everywhere(self):
        result = fig11_throughput.run()
        for model in result.presto:
            assert result.presto_over_disagg32(model) > 1.0

    def test_disagg_scaling_linear(self):
        result = fig11_throughput.run()
        for model, by_cores in result.disagg.items():
            assert by_cores[64] == pytest.approx(64 * by_cores[1], rel=1e-6)


class TestFig12:
    def test_speedups_in_band(self):
        result = fig12_latency.run()
        for model in result.disagg:
            assert 4.0 < result.speedup(model) < 12.5

    def test_rm5_highest_speedup(self):
        result = fig12_latency.run()
        assert result.max_speedup == pytest.approx(result.speedup("RM5"))


class TestFig13:
    def test_reduction_everywhere(self):
        result = fig13_network.run()
        for model in result.disagg:
            assert result.reduction(model) > 1.5


class TestFig14:
    def test_units_tiny_vs_cores(self):
        result = fig14_provisioning.run()
        for model in result.isp_units:
            assert result.isp_units[model] * 30 < result.cpu_cores[model]


class TestFig15:
    def test_presto_wins_both_axes(self):
        result = fig15_efficiency.run()
        assert all(v > 1 for v in result.energy_ratio.values())
        assert all(v > 1 for v in result.cost_ratio.values())


class TestFig16:
    def test_smartssd_beats_a100(self):
        result = fig16_alternatives.run()
        for model in result.throughput:
            assert result.ratio(model, "PreSto (SmartSSD)", "A100") > 1.5

    def test_smartssd_best_perf_watt(self):
        result = fig16_alternatives.run()
        for model, designs in result.perf_per_watt.items():
            assert designs["PreSto (SmartSSD)"] == max(designs.values())


class TestFig17:
    def test_disagg_grows_linearly(self):
        result = fig17_sensitivity.run()
        for op in ("bucketize", "sigridhash", "log"):
            assert result.disagg_growth(op) == pytest.approx(4.0, rel=0.05)

    def test_speedup_grows_with_scale(self):
        result = fig17_sensitivity.run()
        for op in ("bucketize", "sigridhash", "log"):
            assert result.speedup(op, 4) >= result.speedup(op, 1)


class TestTables:
    def test_table1_matches(self):
        assert table1_models.run().matches_paper
        assert table1_models.run().mismatches() == []

    def test_table2_within_rounding(self):
        assert table2_resources.run().max_abs_error() < 0.5

    def test_fig6_samples_cover_grid(self):
        result = fig6_utilization.run()
        assert len(result.samples) == 6  # 2 models x 3 ops
