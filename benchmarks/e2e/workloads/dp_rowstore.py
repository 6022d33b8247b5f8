"""``dp_rowstore`` — the row format over the same varint layer.

Write beside scan/read beside transform on RM5: the row reader is the
majority of the iteration (the ROADMAP's data-plane target), so a codec
change that helps columnar chunks but costs row gather shows here and not
on ``dp_wide``.
"""

from __future__ import annotations

from typing import Dict

from harness import layer_seconds
from workloads import Workload


class DpRowstore(Workload):
    name = "dp_rowstore"
    unit = "row"
    rate_name = "rows_per_s"
    warmups = 3
    rows = 4096

    def prepare(self) -> None:
        from repro.api import PreprocessJob
        from repro.dataio.rowformat import RowFileWriter
        from repro.features.synthetic import SyntheticTableGenerator

        self.num_rows = self.scaled(self.rows)
        job = PreprocessJob("RM5", num_rows=self.num_rows, seed=self.seed)
        generator = SyntheticTableGenerator(job.spec(), seed=self.seed)
        self.data = generator.generate(self.num_rows)
        self.pipeline = job.build_pipeline()
        self.writer = RowFileWriter(self.pipeline.schema)

    def reference(self) -> None:
        """The direct transform of the in-memory table (no file round trip)."""
        from repro.api import preprocess

        batch, _ = self.pipeline.run(self.data)
        self.expected = preprocess.minibatch_digest([batch])

    def iteration(self, tracer):
        from repro.dataio.rowformat import RowFileReader

        file_bytes = self.writer.write(self.data)
        raw = RowFileReader(file_bytes).read_columns(
            self.pipeline.required_columns()
        )
        batch, counts = self.pipeline.run(raw)
        return file_bytes, batch, counts

    def units(self, result) -> float:
        return float(self.num_rows)

    def check(self, result, tracer):
        from repro.api import preprocess

        digest = preprocess.minibatch_digest([result[1]])
        return 1, int(digest != self.expected), digest

    def facts(self, result, ledger) -> Dict[str, float]:
        file_bytes, _batch, counts = result
        transform_s = layer_seconds(ledger, "ops.pipeline.transform")
        return {
            "features.synthetic.rows": counts.rows,
            "dataio.rowformat.file_bytes": len(file_bytes),
            "ops.pipeline.transform_elements": counts.transform_elements,
            "ops.pipeline.ns_per_element": (
                transform_s / counts.transform_elements * 1e9
            ),
        }


WORKLOAD = DpRowstore
