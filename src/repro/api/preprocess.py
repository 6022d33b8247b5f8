"""Declarative sharded-preprocessing jobs — the data-plane Scenario.

A :class:`PreprocessJob` is to the functional data plane what
:class:`~repro.api.scenario.Scenario` is to the simulation layer: a frozen,
validated, dict-round-trippable record naming a Table I model and a
deployment shape (rows, shards, processes).  ``run()`` generates the raw
table, shards it with :class:`~repro.exec.ShardExecutor`, and returns a
:class:`PreprocessRunResult` with the mini-batches, work counters, and a
content digest — the digest makes the executor's central guarantee (a
sharded parallel run is byte-identical to the serial pipeline) checkable
from config files, tests, and the ``repro preprocess`` CLI alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError, is_int, strict_keys
from repro.exec.executor import (
    ShardExecutor,
    ShardResult,
    ShardRunStats,
    StageCallback,
    pipeline_stage,
)
from repro.features.minibatch import MiniBatch
from repro.features.specs import ModelSpec, get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops.pipeline import DEFAULT_HASH_SEED, PreprocessingPipeline


def minibatch_digest(batches: List[MiniBatch]) -> str:
    """SHA-256 over every tensor of every batch, in batch order.

    Stable across processes and shard counts if and only if the batches
    are bit-identical — the "serial == sharded" acceptance check.  Each
    tensor's C-order bytes are hashed from its own buffer (a contiguous
    tensor is never copied).
    """
    digest = hashlib.sha256()
    for batch in batches:
        sparse = batch.sparse
        for tensor in (batch.dense, batch.labels, sparse.lengths, sparse.values):
            digest.update(np.ascontiguousarray(tensor))
        digest.update(",".join(sparse.keys).encode())
    return digest.hexdigest()


@dataclass
class PreprocessRunResult:
    """Outcome of one :class:`PreprocessJob` run."""

    job: "PreprocessJob"
    results: List[ShardResult]
    stats: ShardRunStats
    digest: str

    @property
    def batches(self) -> List[MiniBatch]:
        """The ordered train-ready mini-batches."""
        return [result.batch for result in self.results]

    def summary(self) -> str:
        """One-paragraph human-readable account."""
        stats = self.stats
        return (
            f"preprocessed {stats.num_rows} rows of {self.job.model} into "
            f"{stats.num_shards} mini-batch(es): "
            f"{stats.transform_elements} transform elements, "
            f"{stats.bytes_read}/{stats.file_bytes} bytes extracted, "
            f"digest {self.digest[:16]}..."
        )


@dataclass(frozen=True)
class PreprocessJob:
    """One declarative sharded preprocessing run over synthetic raw data."""

    model: str
    num_rows: int = 8192
    num_shards: int = 1
    processes: Optional[int] = None
    seed: int = 0
    hash_seed: int = DEFAULT_HASH_SEED

    def __post_init__(self) -> None:
        spec = get_model(self.model)  # raises ConfigurationError when unknown
        object.__setattr__(self, "model", spec.name)
        for name in ("num_rows", "num_shards"):
            value = getattr(self, name)
            if not is_int(value) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive int, got {value!r}"
                )
        if self.processes is not None and (
            not is_int(self.processes) or self.processes <= 0
        ):
            raise ConfigurationError(
                f"processes must be a positive int, got {self.processes!r}"
            )
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative int, got {self.seed!r}"
            )

    # -- construction helpers ----------------------------------------------

    @property
    def label(self) -> str:
        """Short display name, e.g. ``RM1/32768rows/4shards``."""
        return f"{self.model}/{self.num_rows}rows/{self.num_shards}shards"

    def spec(self) -> ModelSpec:
        """The resolved Table I model spec."""
        return get_model(self.model)

    def build_pipeline(self) -> PreprocessingPipeline:
        """The prepared (cached-kernel) pipeline this job runs."""
        return PreprocessingPipeline(
            self.spec(), hash_seed=self.hash_seed, generator_seed=self.seed
        )

    def build_executor(self) -> ShardExecutor:
        """The shard executor sized for this job."""
        return ShardExecutor.for_shards(
            self.build_pipeline(),
            num_shards=self.num_shards,
            num_rows=self.num_rows,
            processes=self.processes,
        )

    # -- execution ----------------------------------------------------------

    def run_shards(
        self, parallel: bool = True, on_stage: Optional[StageCallback] = None
    ) -> List[ShardResult]:
        """Generate the raw table (the ``generate`` stage), then shard and
        preprocess it on this job's executor; shards in partition order."""
        with pipeline_stage("generate", on_stage, self.seed) as metrics:
            generator = SyntheticTableGenerator(self.spec(), seed=self.seed)
            data = generator.generate(self.num_rows)
            metrics["rows"] = self.num_rows
        return self.build_executor().run(
            data, parallel=parallel, on_stage=on_stage
        )

    def run(
        self, parallel: bool = True, on_stage: Optional[StageCallback] = None
    ) -> PreprocessRunResult:
        """:meth:`run_shards`, plus the work counters and content digest."""
        results = self.run_shards(parallel=parallel, on_stage=on_stage)
        return PreprocessRunResult(
            job=self,
            results=results,
            stats=ShardRunStats.from_results(results),
            digest=minibatch_digest([r.batch for r in results]),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for config files (round-trips via from_dict)."""
        return {
            "model": self.model,
            "num_rows": self.num_rows,
            "num_shards": self.num_shards,
            "processes": self.processes,
            "seed": self.seed,
            "hash_seed": self.hash_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PreprocessJob":
        """Rebuild a job from :meth:`to_dict` output (strict keys)."""
        return cls(
            **strict_keys(cls, data, ConfigurationError, noun="preprocess job")
        )
