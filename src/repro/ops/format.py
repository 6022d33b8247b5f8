"""Format conversion — step 3 of the Transform phase (Figure 1).

Packs normalized feature columns into the train-ready :class:`MiniBatch`
(dense float32 matrix + KeyedJaggedTensor of embedding indices + labels)
that the Load phase ships to the trainer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import OpError
from repro.features.minibatch import KeyedJaggedTensor, MiniBatch


def to_minibatch(
    dense_columns: Dict[str, np.ndarray],
    sparse_columns: Dict[str, Tuple[np.ndarray, np.ndarray]],
    labels: np.ndarray,
    dense_order: List[str],
    sparse_order: List[str],
) -> MiniBatch:
    """Assemble a MiniBatch from normalized columns.

    ``dense_order``/``sparse_order`` pin the column layout so the trainer's
    embedding-table mapping is stable across batches.
    """
    missing_dense = [name for name in dense_order if name not in dense_columns]
    if missing_dense:
        raise OpError(f"missing dense columns {missing_dense}")
    missing_sparse = [name for name in sparse_order if name not in sparse_columns]
    if missing_sparse:
        raise OpError(f"missing sparse columns {missing_sparse}")
    if not dense_order:
        raise OpError("a mini-batch needs at least one dense column")

    batch = len(labels)
    for name in dense_order:
        if len(dense_columns[name]) != batch:
            raise OpError(
                f"dense column {name!r} has {len(dense_columns[name])} rows, "
                f"batch is {batch}"
            )
    dense = np.column_stack(
        [dense_columns[name].astype(np.float32) for name in dense_order]
    )
    kjt = KeyedJaggedTensor.from_dict(
        {name: sparse_columns[name] for name in sparse_order}
    )
    if kjt.batch_size != batch:
        raise OpError(f"sparse batch {kjt.batch_size} != label batch {batch}")
    return MiniBatch(
        dense=dense,
        sparse=kjt,
        labels=np.asarray(labels, dtype=np.float32),
    )
