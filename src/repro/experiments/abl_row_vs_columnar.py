"""Ablation — columnar vs row-oriented storage (the Section II-B argument).

The paper stores raw features in columnar files so the Extract phase fetches
only the wanted features.  This ablation measures the claim on real bytes:
generate an RM1-shaped table, write it in both layouts, read progressively
smaller column subsets, and compare bytes touched.

Expected shape: the row layout's bytes scanned stay ~flat regardless of the
subset (overfetch), while the columnar layout's bytes shrink with the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.dataio.columnar import ColumnarFileReader, write_table
from repro.dataio.rowformat import RowFileReader, write_row_table
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    register_experiment,
)
from repro.features.specs import get_model
from repro.features.synthetic import SyntheticTableGenerator

#: fraction of the feature columns each scenario reads
SUBSET_FRACTIONS = (1.0, 0.5, 0.25, 0.125)
ROWS = 2048


@dataclass(frozen=True)
class RowVsColumnarResult(ExperimentResult):
    """Bytes touched per layout per column-subset fraction."""

    model: str
    file_bytes_columnar: int
    file_bytes_row: int
    fractions: Tuple[float, ...]
    columnar_bytes: Tuple[int, ...]
    row_bytes: Tuple[int, ...]

    def overfetch_factor(self, index: int) -> float:
        """Row bytes over columnar bytes for one subset."""
        return self.row_bytes[index] / self.columnar_bytes[index]

    def claims(self) -> List[PaperClaim]:
        # reading 1/8 of the columns should cost ~1/8 in columnar...
        shrink = self.columnar_bytes[-1] / self.columnar_bytes[0]
        # ...while the row layout still scans ~everything
        row_shrink = self.row_bytes[-1] / self.row_bytes[0]
        return [
            PaperClaim("columnar bytes shrink with subset (<=0.25)", 0.125, shrink, 1.2),
            PaperClaim("row layout overfetches (bytes ~flat)", 1.0, row_shrink, 0.05),
            PaperClaim(
                "overfetch factor at 1/8 subset (~column ratio)",
                15.0,
                self.overfetch_factor(len(self.fractions) - 1),
                0.35,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            (
                f"{frac:.3g}",
                col,
                row,
                row / col,
            )
            for frac, col, row in zip(
                self.fractions, self.columnar_bytes, self.row_bytes
            )
        ]

    def columns(self) -> List[str]:
        return ["column fraction", "columnar bytes", "row-layout bytes", "overfetch (x)"]

    def table_title(self) -> str:
        return (
            f"Ablation (row vs columnar, {self.model}, {ROWS} rows): bytes "
            f"touched per Extract"
        )


@register_experiment("abl-row", title="Ablation: row vs columnar", kind="ablation", order=200)
def run(model: str = "RM1", seed: int = 0) -> RowVsColumnarResult:
    """Run the ablation on real generated data."""
    spec = get_model(model)
    schema = spec.schema()
    data = SyntheticTableGenerator(spec, seed=seed).generate(ROWS)
    columnar_file = write_table(schema, data, row_group_size=ROWS)
    row_file = write_row_table(schema, data)

    all_features = schema.dense_names + schema.sparse_names
    columnar_bytes: List[int] = []
    row_bytes: List[int] = []
    for fraction in SUBSET_FRACTIONS:
        keep = max(int(len(all_features) * fraction), 1)
        wanted = ["label"] + all_features[:keep]

        columnar_reader = ColumnarFileReader(columnar_file)
        columnar_reader.read_columns(wanted)
        columnar_bytes.append(columnar_reader.bytes_read)

        row_reader = RowFileReader(row_file)
        row_reader.read_columns(wanted)
        row_bytes.append(row_reader.bytes_scanned)

    return RowVsColumnarResult(
        model=spec.name,
        file_bytes_columnar=len(columnar_file),
        file_bytes_row=len(row_file),
        fractions=SUBSET_FRACTIONS,
        columnar_bytes=tuple(columnar_bytes),
        row_bytes=tuple(row_bytes),
    )
