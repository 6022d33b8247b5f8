"""Loader for the real public Criteo click-logs format (RM1's dataset).

The Criteo Terabyte click logs — the dataset RM1 is built from — ship as
tab-separated text, one sample per line::

    <label> \\t <int_0> ... <int_12> \\t <cat_0> ... <cat_25>

with 13 integer ("dense") features and 26 hexadecimal categorical ("sparse")
features; any field may be empty (missing).  This module parses that format
into the reproduction's :data:`TableData` so every pipeline, worker, and
experiment in the package runs on the genuine public data when it is
available — the synthetic generator remains the default for offline use.

Criteo's sparse features are fixed length 1 per sample; missing categorical
fields become empty lists (length 0), which the pipeline's fill op pads —
the same null handling TorchArrow's DLRM recipe applies.

The text arrives from outside the program, so a field is taken only in its
strict form: a label is ``0`` or ``1``, a dense field ASCII decimal digits
with an optional ``-`` that a float32 holds finitely, a categorical field
hex digits that fit ``int64``.  Anything else is a :class:`FormatError`
naming the line.
"""

from __future__ import annotations

import io
import math
import re
from typing import Iterable, List, TextIO, Tuple, Union

import numpy as np

from repro.dataio.columnar import TableData
from repro.errors import FormatError
from repro.features.specs import get_model

NUM_DENSE = 13
NUM_SPARSE = 26
FIELDS_PER_LINE = 1 + NUM_DENSE + NUM_SPARSE

_DENSE = re.compile(r"-?[0-9]+")
_CATEGORICAL = re.compile(r"[0-9a-fA-F]+")
_INT64_MAX = 2**63 - 1
#: float32 max plus half an ulp: the smallest float64 a float32 cast makes inf
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def parse_line(line: str, line_number: int = 0) -> Tuple[int, List[float], List[int]]:
    """Parse one Criteo TSV line into (label, dense values, sparse ids).

    Missing dense fields become NaN; missing categorical fields become -1
    sentinels that :func:`load_criteo_tsv` turns into empty lists.
    """
    fields = line.rstrip("\r\n").split("\t")
    if len(fields) != FIELDS_PER_LINE:
        raise FormatError(
            f"line {line_number}: expected {FIELDS_PER_LINE} tab-separated "
            f"fields, got {len(fields)}"
        )
    if fields[0] not in ("0", "1"):
        raise FormatError(
            f"line {line_number}: bad label {fields[0]!r}; must be 0 or 1"
        )
    label = int(fields[0])

    dense: List[float] = []
    for raw in fields[1 : 1 + NUM_DENSE]:
        if raw == "":
            dense.append(float("nan"))
            continue
        if not _DENSE.fullmatch(raw):
            raise FormatError(f"line {line_number}: bad integer feature {raw!r}")
        try:
            value = float(int(raw))
        except (OverflowError, ValueError):  # past float64, or int's digit limit
            value = math.inf
        if abs(value) >= _FLOAT32_OVERFLOW:
            raise FormatError(
                f"line {line_number}: integer feature {raw!r} is beyond float32"
            )
        dense.append(value)

    sparse: List[int] = []
    for raw in fields[1 + NUM_DENSE :]:
        if raw == "":
            sparse.append(-1)  # missing marker
            continue
        if not _CATEGORICAL.fullmatch(raw):
            raise FormatError(f"line {line_number}: bad categorical feature {raw!r}")
        sparse_id = int(raw, 16)
        if sparse_id > _INT64_MAX:
            raise FormatError(
                f"line {line_number}: categorical feature {raw!r} "
                "does not fit int64"
            )
        sparse.append(sparse_id)
    return label, dense, sparse


def load_criteo_tsv(source: Union[str, TextIO, Iterable[str]]) -> TableData:
    """Parse Criteo TSV text into a raw table matching RM1's schema.

    ``source`` may be a path, an open text file, or any iterable of lines.
    """
    if isinstance(source, str):
        with open(source, "r") as handle:
            return load_criteo_tsv(handle)

    labels: List[int] = []
    dense_rows: List[List[float]] = []
    sparse_rows: List[List[int]] = []
    for line_number, line in enumerate(source, start=1):
        if not line.strip():
            continue
        label, dense, sparse = parse_line(line, line_number)
        labels.append(label)
        dense_rows.append(dense)
        sparse_rows.append(sparse)
    if not labels:
        raise FormatError("no rows in Criteo TSV input")

    schema = get_model("RM1").schema()
    dense_matrix = np.array(dense_rows, dtype=np.float32)
    data: TableData = {schema.label.name: np.array(labels, dtype=np.int8)}
    for column_index, name in enumerate(schema.dense_names):
        data[name] = dense_matrix[:, column_index].copy()
    for column_index, name in enumerate(schema.sparse_names):
        ids = [row[column_index] for row in sparse_rows]
        lengths = np.array([0 if v < 0 else 1 for v in ids], dtype=np.int32)
        values = np.array([v for v in ids if v >= 0], dtype=np.int64)
        data[name] = (lengths, values)
    return data


def dump_criteo_tsv(data: TableData) -> str:
    """Inverse of :func:`load_criteo_tsv`, for tests and fixtures."""
    schema = get_model("RM1").schema()
    labels = data[schema.label.name]
    out = io.StringIO()
    sparse_columns = []
    for name in schema.sparse_names:
        lengths, values = data[name]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        sparse_columns.append((lengths, values, offsets))
    for row in range(len(labels)):
        fields = [str(int(labels[row]))]
        for name in schema.dense_names:
            value = data[name][row]
            fields.append("" if np.isnan(value) else str(int(value)))
        for lengths, values, offsets in sparse_columns:
            if lengths[row] == 0:
                fields.append("")
            else:
                fields.append(format(int(values[offsets[row]]), "x"))
        out.write("\t".join(fields) + "\n")
    return out.getvalue()
