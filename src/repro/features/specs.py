"""Model and dataset configurations from Table I of the paper.

Each :class:`ModelSpec` captures one row of Table I: the preprocessing
configuration (feature counts, average sparse feature length, how many new
sparse features Bucketize generates, and the bucket count ``m``) plus the
RecSys model architecture (bottom/top MLP layer widths, embedding-table count
and size).

RM1 is the public Criteo dataset; RM2–RM5 are the paper's synthetic
production-scale configurations based on Meta's published characteristics
(Zhao et al., ISCA 2022).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.dataio.schema import TableSchema

#: Training mini-batch size used throughout the paper's evaluation.
DEFAULT_BATCH_SIZE = 8192

#: Embedding dimension used by the DLRM cost model (Criteo DLRM default).
DEFAULT_EMBEDDING_DIM = 128


@dataclass(frozen=True)
class MLPSpec:
    """Layer widths of one MLP stack, e.g. ``(512, 256, 128)``."""

    layers: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.layers or any(w <= 0 for w in self.layers):
            raise ConfigurationError(f"invalid MLP layers {self.layers}")

    def macs(self, input_width: int) -> int:
        """Multiply-accumulate count of one forward pass through the stack."""
        total = 0
        width = input_width
        for layer in self.layers:
            total += width * layer
            width = layer
        return total

    def __str__(self) -> str:
        return "-".join(str(w) for w in self.layers)


@dataclass(frozen=True)
class ModelSpec:
    """One row of Table I: preprocessing config + model architecture."""

    name: str
    num_dense: int
    num_sparse: int
    avg_sparse_length: int
    num_generated_sparse: int
    bucket_size: int
    bottom_mlp: MLPSpec
    top_mlp: MLPSpec
    num_tables: int
    avg_embeddings_per_table: int
    is_public: bool = False
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    batch_size: int = DEFAULT_BATCH_SIZE
    #: fraction of rows where a dense value is missing (needs fill);
    #: Criteo has pervasive missing values.
    dense_missing_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.num_generated_sparse > self.num_dense:
            raise ConfigurationError(
                f"{self.name}: cannot generate {self.num_generated_sparse} sparse "
                f"features from only {self.num_dense} dense features"
            )
        expected_tables = self.num_sparse + self.num_generated_sparse
        if self.num_tables != expected_tables:
            raise ConfigurationError(
                f"{self.name}: Table I lists {self.num_tables} embedding tables but "
                f"sparse({self.num_sparse}) + generated({self.num_generated_sparse}) "
                f"= {expected_tables}"
            )

    # -- derived quantities used across the models --------------------------

    def schema(self) -> TableSchema:
        """Raw-data table schema for this model's dataset."""
        # imported here: the performance models read specs, never schemas,
        # and the schema module loads numpy
        from repro.dataio.schema import TableSchema

        return TableSchema.with_counts(self.num_dense, self.num_sparse)

    @property
    def generated_sparse_names(self) -> List[str]:
        """Names of the Bucketize-generated features (from the first k dense)."""
        return [f"bucket_int_{i}" for i in range(self.num_generated_sparse)]

    @property
    def bucketize_source_names(self) -> List[str]:
        """Dense features that feed Bucketize, in order."""
        return [f"int_{i}" for i in range(self.num_generated_sparse)]

    def sparse_elements_per_sample(self) -> float:
        """Raw sparse ids per sample (SigridHash input size)."""
        return self.num_sparse * self.avg_sparse_length

    def embedding_indices_per_sample(self) -> float:
        """Embedding-lookup indices per sample after preprocessing."""
        return self.sparse_elements_per_sample() + self.num_generated_sparse

    def train_ready_bytes_per_sample(self) -> float:
        """Bytes of one preprocessed sample (the Load stage payload).

        Dense tensor float32 + int32 embedding indices + int32 lengths per
        sparse feature + float32 label.
        """
        return (
            4 * self.num_dense
            + 4 * self.embedding_indices_per_sample()
            + 4 * (self.num_sparse + self.num_generated_sparse)
            + 4
        )

    def scaled(self, feature_scale: int, name: str = None) -> "ModelSpec":
        """Scale feature counts by an integer factor (Fig. 17 sensitivity).

        Dense, sparse, and generated feature counts all scale together,
        matching "the number of generated, sparse, and dense features are
        changed" in Section VI-D.
        """
        if feature_scale < 1:
            raise ConfigurationError("feature_scale must be >= 1")
        return ModelSpec(
            name=name or f"{self.name}x{feature_scale}",
            num_dense=self.num_dense * feature_scale,
            num_sparse=self.num_sparse * feature_scale,
            avg_sparse_length=self.avg_sparse_length,
            num_generated_sparse=self.num_generated_sparse * feature_scale,
            bucket_size=self.bucket_size,
            bottom_mlp=self.bottom_mlp,
            top_mlp=self.top_mlp,
            num_tables=(self.num_sparse + self.num_generated_sparse) * feature_scale,
            avg_embeddings_per_table=self.avg_embeddings_per_table,
            is_public=False,
            embedding_dim=self.embedding_dim,
            batch_size=self.batch_size,
            dense_missing_rate=self.dense_missing_rate,
        )


_BOTTOM = MLPSpec((512, 256, 128))
_TOP = MLPSpec((1024, 1024, 512, 256, 1))

#: Table I, verbatim.
RECSYS_MODELS: Dict[str, ModelSpec] = {
    "RM1": ModelSpec(
        name="RM1",
        num_dense=13,
        num_sparse=26,
        avg_sparse_length=1,
        num_generated_sparse=13,
        bucket_size=1024,
        bottom_mlp=_BOTTOM,
        top_mlp=_TOP,
        num_tables=39,
        avg_embeddings_per_table=500_000,
        is_public=True,
    ),
    "RM2": ModelSpec(
        name="RM2",
        num_dense=504,
        num_sparse=42,
        avg_sparse_length=20,
        num_generated_sparse=21,
        bucket_size=1024,
        bottom_mlp=_BOTTOM,
        top_mlp=_TOP,
        num_tables=63,
        avg_embeddings_per_table=500_000,
    ),
    "RM3": ModelSpec(
        name="RM3",
        num_dense=504,
        num_sparse=42,
        avg_sparse_length=20,
        num_generated_sparse=42,
        bucket_size=1024,
        bottom_mlp=_BOTTOM,
        top_mlp=_TOP,
        num_tables=84,
        avg_embeddings_per_table=500_000,
    ),
    "RM4": ModelSpec(
        name="RM4",
        num_dense=504,
        num_sparse=42,
        avg_sparse_length=20,
        num_generated_sparse=42,
        bucket_size=2048,
        bottom_mlp=_BOTTOM,
        top_mlp=_TOP,
        num_tables=84,
        avg_embeddings_per_table=500_000,
    ),
    "RM5": ModelSpec(
        name="RM5",
        num_dense=504,
        num_sparse=42,
        avg_sparse_length=20,
        num_generated_sparse=42,
        bucket_size=4096,
        bottom_mlp=_BOTTOM,
        top_mlp=_TOP,
        num_tables=84,
        avg_embeddings_per_table=500_000,
    ),
}

#: Evaluation order used by every figure.
MODEL_NAMES: List[str] = ["RM1", "RM2", "RM3", "RM4", "RM5"]


def get_model(name: str) -> ModelSpec:
    """Look up a Table I model by name (case-insensitive)."""
    key = name.upper()
    if key not in RECSYS_MODELS:
        raise ConfigurationError(
            f"unknown model {name!r}; expected one of {MODEL_NAMES}"
        )
    return RECSYS_MODELS[key]


def all_models() -> List[ModelSpec]:
    """All Table I models in evaluation order."""
    return [RECSYS_MODELS[name] for name in MODEL_NAMES]
