"""Tests for the Table I model specs."""

import pytest

from repro.errors import ConfigurationError
from repro.features.specs import (
    MLPSpec,
    MODEL_NAMES,
    ModelSpec,
    all_models,
    get_model,
)


class TestMLPSpec:
    def test_macs(self):
        mlp = MLPSpec((512, 256, 128))
        assert mlp.macs(504) == 504 * 512 + 512 * 256 + 256 * 128

    def test_str(self):
        assert str(MLPSpec((512, 256, 128))) == "512-256-128"

    def test_invalid_layers(self):
        with pytest.raises(ConfigurationError):
            MLPSpec(())
        with pytest.raises(ConfigurationError):
            MLPSpec((512, 0))


class TestTableI:
    def test_all_five_models(self):
        assert MODEL_NAMES == ["RM1", "RM2", "RM3", "RM4", "RM5"]
        assert len(all_models()) == 5

    def test_rm1_is_criteo(self):
        rm1 = get_model("RM1")
        assert rm1.is_public
        assert (rm1.num_dense, rm1.num_sparse, rm1.avg_sparse_length) == (13, 26, 1)
        assert rm1.num_tables == 39

    def test_production_models_scaled_up(self):
        for name in ("RM2", "RM3", "RM4", "RM5"):
            spec = get_model(name)
            assert spec.num_dense == 504
            assert spec.num_sparse == 42
            assert spec.avg_sparse_length == 20
            assert not spec.is_public

    def test_bucket_sizes(self):
        assert [get_model(n).bucket_size for n in MODEL_NAMES] == [
            1024, 1024, 1024, 2048, 4096,
        ]

    def test_tables_equal_sparse_plus_generated(self):
        for spec in all_models():
            assert spec.num_tables == spec.num_sparse + spec.num_generated_sparse

    def test_case_insensitive_lookup(self):
        assert get_model("rm3").name == "RM3"

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            get_model("RM9")


class TestDerivedQuantities:
    def test_elements_per_sample(self):
        rm5 = get_model("RM5")
        assert rm5.sparse_elements_per_sample() == 840
        assert rm5.embedding_indices_per_sample() == 882

    def test_train_ready_bytes(self):
        rm1 = get_model("RM1")
        # 13 dense fp32 + 39 idx int32 + 39 lengths int32 + label fp32
        assert rm1.train_ready_bytes_per_sample() == 13 * 4 + 39 * 4 + 39 * 4 + 4

    def test_schema_counts(self):
        rm2 = get_model("RM2")
        schema = rm2.schema()
        assert len(schema.dense) == 504
        assert len(schema.sparse) == 42

    def test_generated_names_align_with_sources(self):
        rm1 = get_model("RM1")
        assert len(rm1.generated_sparse_names) == len(rm1.bucketize_source_names) == 13


class TestScaling:
    def test_scaled_doubles_features(self):
        rm5 = get_model("RM5")
        scaled = rm5.scaled(2)
        assert scaled.num_dense == 1008
        assert scaled.num_sparse == 84
        assert scaled.num_generated_sparse == 84
        assert scaled.bucket_size == rm5.bucket_size
        assert scaled.name == "RM5x2"

    def test_scaled_identity(self):
        rm5 = get_model("RM5")
        assert rm5.scaled(1).num_dense == rm5.num_dense

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            get_model("RM5").scaled(0)


class TestValidation:
    def test_generated_exceeding_dense_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot generate"):
            ModelSpec(
                name="bad",
                num_dense=2,
                num_sparse=2,
                avg_sparse_length=1,
                num_generated_sparse=5,
                bucket_size=16,
                bottom_mlp=MLPSpec((8,)),
                top_mlp=MLPSpec((8, 1)),
                num_tables=7,
                avg_embeddings_per_table=100,
            )

    def test_table_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="embedding tables"):
            ModelSpec(
                name="bad",
                num_dense=4,
                num_sparse=2,
                avg_sparse_length=1,
                num_generated_sparse=2,
                bucket_size=16,
                bottom_mlp=MLPSpec((8,)),
                top_mlp=MLPSpec((8, 1)),
                num_tables=99,
                avg_embeddings_per_table=100,
            )
