"""Tests for the experiment-harness plumbing (claims, tables, report)."""

from repro.api import EXPERIMENT_REGISTRY
from repro.experiments.common import PaperClaim, format_table, models


class TestPaperClaim:
    def test_exact_match_holds(self):
        assert PaperClaim("x", 10.0, 10.0).holds
        assert PaperClaim("x", 10.0, 10.0).relative_error == 0.0

    def test_tolerance_boundary(self):
        assert PaperClaim("x", 10.0, 13.5, tolerance=0.35).holds
        assert not PaperClaim("x", 10.0, 13.6, tolerance=0.35).holds

    def test_zero_paper_value(self):
        claim = PaperClaim("x", 0.0, 0.5, tolerance=0.4)
        assert claim.relative_error == 0.5
        assert not claim.holds
        assert PaperClaim("x", 0.0, 0.0).holds

    def test_render_marks_status(self):
        assert "[OK ]" in PaperClaim("x", 1.0, 1.0).render()
        assert "[OFF]" in PaperClaim("x", 1.0, 99.0).render()


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [(1, 2.5), (30, 4000.0)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "4,000" in text  # thousands separator for big floats

    def test_handles_strings_and_zero(self):
        text = format_table(["x"], [("hello",), (0.0,)])
        assert "hello" in text
        assert "0" in text


class TestHarnessConsistency:
    def test_models_order(self):
        assert [m.name for m in models()] == ["RM1", "RM2", "RM3", "RM4", "RM5"]

    def test_registry_titles_unique(self):
        """Figure/table/ablation titles never collide across kinds."""
        paper = set(EXPERIMENT_REGISTRY.titles("figure")) | set(
            EXPERIMENT_REGISTRY.titles("table")
        )
        ablations = set(EXPERIMENT_REGISTRY.titles("ablation"))
        assert not paper & ablations
        titles = list(EXPERIMENT_REGISTRY.titles())
        assert len(titles) == len(set(titles))
