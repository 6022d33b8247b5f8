"""Table I — dataset/model configurations (echo + structural validation).

The configurations are inputs, not results, so this 'experiment' validates
the reproduction's specs against the table's published values and renders
the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    models,
    register_experiment,
)

#: Table I verbatim: (dense, sparse, avg len, generated, bucket, tables)
PAPER_TABLE1: Dict[str, Tuple[int, int, int, int, int, int]] = {
    "RM1": (13, 26, 1, 13, 1024, 39),
    "RM2": (504, 42, 20, 21, 1024, 63),
    "RM3": (504, 42, 20, 42, 1024, 84),
    "RM4": (504, 42, 20, 42, 2048, 84),
    "RM5": (504, 42, 20, 42, 4096, 84),
}


@dataclass(frozen=True)
class Table1Result(ExperimentResult):
    """Spec rows plus their match against the published table."""

    rows_by_model: Dict[str, Tuple[int, int, int, int, int, int]]

    @property
    def matches_paper(self) -> bool:
        """Exact equality with the published Table I."""
        return self.rows_by_model == PAPER_TABLE1

    def mismatches(self) -> List[str]:
        """Models whose configuration differs from the paper."""
        return [
            name
            for name, row in self.rows_by_model.items()
            if PAPER_TABLE1.get(name) != row
        ]

    def rows(self) -> List[Tuple]:
        return [
            (name,) + row + ("yes" if PAPER_TABLE1.get(name) == row else "NO",)
            for name, row in self.rows_by_model.items()
        ]

    def columns(self) -> List[str]:
        return [
            "model",
            "dense",
            "sparse",
            "avg len",
            "generated",
            "bucket",
            "tables",
            "matches paper",
        ]

    def table_title(self) -> str:
        return "Table I: model/dataset configurations"


@register_experiment("table1", title="Table I", kind="table", order=50)
def run() -> Table1Result:
    """Validate the reproduced Table I."""
    rows = {
        spec.name: (
            spec.num_dense,
            spec.num_sparse,
            spec.avg_sparse_length,
            spec.num_generated_sparse,
            spec.bucket_size,
            spec.num_tables,
        )
        for spec in models()
    }
    return Table1Result(rows_by_model=rows)
