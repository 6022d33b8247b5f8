"""The per-model preprocessing pipeline (the full Transform phase).

A :class:`PreprocessingPipeline` binds one Table I model to the concrete op
graph the paper describes (Section II-C):

1. feature generation — Bucketize the first ``num_generated_sparse`` dense
   features into new sparse features;
2. feature normalization — Log on every dense feature, SigridHash on every
   raw sparse feature;
3. format conversion — a train-ready MiniBatch.  The batch is allocated
   once, up front, and steps 1 and 2 write their results straight into it
   (every kernel takes an ``out=`` destination), so there is no packing
   pass and no full-size temporary: the Transform's peak memory is the raw
   table plus the batch it returns.

Running the pipeline both *computes* the mini-batch (functional layer) and
*counts* the work done (:class:`OpCounts`), which is what the performance
models consume.  ``OpCounts.expected_for`` derives the same counts
analytically from the spec so performance experiments don't need to
materialize data.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dataio.columnar import TableData
from repro.errors import FormatError, OpError, PipelineError
from repro.features.minibatch import KeyedJaggedTensor, MiniBatch
from repro.features.specs import ModelSpec
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops.bucketize import Bucketizer
from repro.ops.counts import OpCounts
from repro.ops.fill import fill_dense, fill_sparse
from repro.ops.lognorm import log_normalize
from repro.ops.sigridhash import SigridHasher

#: Seed TorchArrow's DLRM recipe uses for SigridHash; any fixed value works.
DEFAULT_HASH_SEED = 0xC0FFEE

#: Dense columns normalized per work block.  16 float32 outputs are one
#: 64-byte line of each row of the row-major dense matrix, so the transposed
#: store writes whole lines, and at the paper's 8,192-row batch the block's
#: float32 + float64 work (16 x 8,192 x 12 B = 1.5 MB) stays in L2; measured
#: flat within noise from 16 to 128 columns.
DENSE_BLOCK_COLUMNS = 16


class PreprocessingPipeline:
    """Executable Transform phase for one Table I model."""

    def __init__(
        self,
        spec: ModelSpec,
        hash_seed: int = DEFAULT_HASH_SEED,
        generator_seed: int = 0,
    ) -> None:
        self.spec = spec
        self.hash_seed = hash_seed
        self.generator_seed = generator_seed
        self.schema = spec.schema()
        gen = SyntheticTableGenerator(spec, seed=generator_seed)
        self.boundaries: Dict[str, np.ndarray] = {
            name: gen.bucket_boundaries(name)
            for name in spec.bucketize_source_names
        }
        #: embedding-table sizes: hashed features use the model's average
        #: table size; generated features have bucket_size + 1 rows.
        self.table_sizes: Dict[str, int] = {}
        for name in self.schema.sparse_names:
            self.table_sizes[name] = spec.avg_embeddings_per_table
        for name in spec.generated_sparse_names:
            self.table_sizes[name] = spec.bucket_size + 1
        # per-feature op kernels, prepared once per pipeline instead of per
        # batch: boundary validation and hash constants leave the batch loop
        self._bucketizers: Dict[str, Bucketizer] = {
            name: Bucketizer(self.boundaries[name])
            for name in spec.bucketize_source_names
        }
        self._hashers: Dict[str, SigridHasher] = {
            name: SigridHasher(hash_seed, self.table_sizes[name])
            for name in self.schema.sparse_names
        }
        self._sparse_order: List[str] = (
            self.schema.sparse_names + spec.generated_sparse_names
        )
        #: Bucketize source -> row of the batch's generated-id block
        self._generated_slot: Dict[str, int] = {
            name: slot for slot, name in enumerate(spec.bucketize_source_names)
        }

    # -- execution --------------------------------------------------------

    def run(self, raw: TableData, batch_id: int = 0) -> Tuple[MiniBatch, OpCounts]:
        """Transform one raw partition into a MiniBatch, counting the work.

        The batch is sized first and allocated once — ``dense`` ``(rows,
        num_dense)`` float32, ``lengths`` ``(num_keys, rows)`` int32, the
        flat ``values`` int64 — and every kernel writes its result straight
        into its slot (``out=``), so nothing full-size exists beside the
        raw table and the batch being built.
        """
        schema = self.schema
        if schema.label.name not in raw:
            raise PipelineError(
                f"raw table is missing the label column {schema.label.name!r}"
            )
        labels = np.asarray(raw[schema.label.name])
        rows = len(labels)
        dense_names = schema.dense_names
        for name in dense_names:
            if name not in raw:
                raise PipelineError(f"raw table is missing dense column {name!r}")
        if not dense_names:
            raise OpError("a mini-batch needs at least one dense column")

        # fill the raw sparse features: the id counts size the batch, and an
        # untouched column comes back as the raw arrays
        jagged = [self._filled_sparse(raw, name) for name in schema.sparse_names]
        generated = len(self.spec.generated_sparse_names)
        batch_sizes = {len(lengths) for lengths, _ in jagged}
        if generated:
            batch_sizes.add(rows)
        if len(batch_sizes) > 1:
            raise FormatError(
                f"inconsistent batch sizes across keys: {batch_sizes}"
            )
        if batch_sizes and batch_sizes != {rows}:
            raise OpError(f"sparse batch {batch_sizes.pop()} != label batch {rows}")
        hash_elements = sum(len(values) for _, values in jagged)

        dense = np.empty((rows, len(dense_names)), dtype=np.float32)
        lengths = np.empty((len(self._sparse_order), rows), dtype=np.int32)
        values = np.empty(hash_elements + generated * rows, dtype=np.int64)

        # feature generation + dense normalization: Bucketize ids land
        # behind the hashed ones, one row of `generated_ids` per feature
        lengths[len(jagged):] = 1
        generated_ids = values[hash_elements:].reshape(generated, rows)
        self._transform_dense(raw, dense, generated_ids)

        # sparse normalization: SigridHash straight into the flat values
        stop = 0
        for key, name in enumerate(schema.sparse_names):
            lengths[key], ids = jagged[key]
            start, stop = stop, stop + len(ids)
            self._hashers[name](ids, out=values[start:stop])

        batch = MiniBatch(
            dense=dense,
            sparse=KeyedJaggedTensor(
                keys=list(self._sparse_order), lengths=lengths, values=values
            ),
            labels=np.asarray(labels, dtype=np.float32),
            batch_id=batch_id,
        )
        counts = OpCounts(
            rows=rows,
            log_elements=dense.size,
            bucketize_elements=generated_ids.size,
            bucket_boundaries=self.spec.bucket_size,
            hash_elements=hash_elements,
            fill_elements=dense.size + hash_elements,
            format_elements=dense.size + values.size + lengths.size,
            raw_dense_values=dense.size,
            raw_sparse_values=hash_elements,
        )
        return batch, counts

    def _filled_sparse(
        self, raw: TableData, name: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One raw sparse feature after the empty-row fill, as ``(lengths,
        ids)``."""
        if name not in raw:
            raise PipelineError(f"raw table is missing sparse column {name!r}")
        lengths, values = raw[name]
        return fill_sparse(lengths, values)

    def _transform_dense(
        self, raw: TableData, dense: np.ndarray, generated_ids: np.ndarray
    ) -> None:
        """fill -> Bucketize -> Log over every dense feature, a
        block of columns at a time: each column is filled into one reused
        float32 work block (its Bucketize ids going to ``generated_ids``),
        then the block is normalized and stored transposed into
        ``dense[:, a:b]`` — whole cache lines of the row-major matrix."""
        rows = len(dense)
        names = self.schema.dense_names
        work = np.empty((min(DENSE_BLOCK_COLUMNS, len(names)), rows), np.float32)
        for first in range(0, len(names), DENSE_BLOCK_COLUMNS):
            block_names = names[first : first + DENSE_BLOCK_COLUMNS]
            block = work[: len(block_names)]
            for filled, name in zip(block, block_names):
                column = raw[name]
                if np.ndim(column) == 1 and len(column) != rows:
                    raise OpError(
                        f"dense column {name!r} has {len(column)} rows, "
                        f"batch is {rows}"
                    )
                fill_dense(column, out=filled)
                slot = self._generated_slot.get(name)
                if slot is not None:
                    self._bucketizers[name](filled, out=generated_ids[slot])
            log_normalize(
                block, out=dense[:, first : first + len(block_names)].T
            )

    def required_columns(self) -> Tuple[str, ...]:
        """Columns the Extract phase must fetch (everything this model uses)."""
        return tuple(
            [self.schema.label.name]
            + self.schema.dense_names
            + self.schema.sparse_names
        )
