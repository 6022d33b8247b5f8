"""Work counters for one preprocessed mini-batch (:class:`OpCounts`).

:class:`~repro.ops.pipeline.PreprocessingPipeline` counts the work it
does; the hardware models price those counts, usually the analytic ones
``OpCounts.expected_for`` derives from a spec.  This module imports no
kernel, so the performance models load without the functional data plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.features.specs import ModelSpec


@dataclass
class OpCounts:
    """Work counters for one preprocessed mini-batch.

    These are the quantities every hardware model is parameterized on:
    element counts per operation plus the binary-search depth for Bucketize.
    """

    rows: int
    log_elements: int  # dense values normalized by Log
    bucketize_elements: int  # dense values digitized by Bucketize
    bucket_boundaries: int  # m — binary-search space per Bucketize element
    hash_elements: int  # sparse ids normalized by SigridHash
    fill_elements: int  # values touched by the fill ops
    format_elements: int  # values packed during format conversion
    raw_dense_values: int
    raw_sparse_values: int

    @property
    def search_steps_per_element(self) -> float:
        """Binary-search iterations per Bucketize element: ceil(log2(m+1))."""
        return float(math.ceil(math.log2(self.bucket_boundaries + 1)))

    @property
    def transform_elements(self) -> int:
        """Total elements touched by the three offloaded ops."""
        return self.log_elements + self.bucketize_elements + self.hash_elements

    @classmethod
    def expected_for(cls, spec: ModelSpec, batch_size: Optional[int] = None) -> "OpCounts":
        """Analytic counts for one batch of ``spec`` (expected values)."""
        rows = batch_size if batch_size is not None else spec.batch_size
        sparse_values = int(round(rows * spec.sparse_elements_per_sample()))
        dense_values = rows * spec.num_dense
        generated = rows * spec.num_generated_sparse
        return cls(
            rows=rows,
            log_elements=dense_values,
            bucketize_elements=generated,
            bucket_boundaries=spec.bucket_size,
            hash_elements=sparse_values,
            fill_elements=dense_values,
            format_elements=dense_values + sparse_values + generated,
            raw_dense_values=dense_values,
            raw_sparse_values=sparse_values,
        )
