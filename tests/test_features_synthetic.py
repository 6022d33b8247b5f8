"""Tests for the synthetic raw-data generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.features import synthetic
from repro.features.specs import get_model
from repro.features.synthetic import CTR, RAW_ID_SPACE, SyntheticTableGenerator

BLOCK = synthetic._ZIPF_BLOCK


class TestGeneration:
    def test_schema_complete(self):
        spec = get_model("RM1")
        data = SyntheticTableGenerator(spec).generate(32)
        schema = spec.schema()
        for column in schema.columns():
            assert column.name in data

    def test_deterministic_per_seed(self):
        spec = get_model("RM1")
        a = SyntheticTableGenerator(spec, seed=1).generate(16)
        b = SyntheticTableGenerator(spec, seed=1).generate(16)
        np.testing.assert_array_equal(a["int_0"], b["int_0"])
        np.testing.assert_array_equal(a["cat_0"][1], b["cat_0"][1])

    def test_different_seeds_differ(self):
        spec = get_model("RM1")
        a = SyntheticTableGenerator(spec, seed=1).generate(64)
        b = SyntheticTableGenerator(spec, seed=2).generate(64)
        assert not np.array_equal(
            np.nan_to_num(a["int_0"]), np.nan_to_num(b["int_0"])
        )

    def test_criteo_sparse_length_fixed_one(self):
        spec = get_model("RM1")
        data = SyntheticTableGenerator(spec).generate(64)
        lengths, _ = data["cat_0"]
        assert np.all(lengths == 1)

    def test_production_sparse_lengths_average(self):
        spec = get_model("RM2")
        data = SyntheticTableGenerator(spec, seed=0).generate(512)
        all_lengths = np.concatenate(
            [data[name][0] for name in spec.schema().sparse_names]
        )
        assert float(all_lengths.mean()) == pytest.approx(20.0, rel=0.05)

    def test_dense_missing_rate(self):
        spec = get_model("RM1")
        data = SyntheticTableGenerator(spec, seed=0).generate(2000)
        stacked = np.concatenate([data[n] for n in spec.schema().dense_names])
        missing = float(np.isnan(stacked).mean())
        assert missing == pytest.approx(spec.dense_missing_rate, rel=0.25)

    def test_ids_within_raw_space(self):
        spec = get_model("RM2")
        data = SyntheticTableGenerator(spec, seed=0).generate(64)
        _, values = data["cat_0"]
        assert values.min() >= 0
        assert values.max() < RAW_ID_SPACE

    def test_labels_are_clicks(self):
        spec = get_model("RM1")
        data = SyntheticTableGenerator(spec, seed=0).generate(2000)
        rate = float(data["label"].mean())
        assert rate == pytest.approx(CTR, abs=0.015)

    def test_invalid_args(self):
        spec = get_model("RM1")
        for rows in (0, -3, 2.5, True, "8"):
            with pytest.raises(ConfigurationError, match="num_rows"):
                SyntheticTableGenerator(spec).generate(rows)


def libm_attempt(u01, v, a):
    """One attempt of numpy's C ``random_zipf`` with libm ``pow``:
    ``(X, accepted)``, or ``(None, False)`` when X is out of range."""
    am1 = a - 1.0
    b = math.pow(2.0, am1)
    u = u01 * math.pow(9223372036854775807.0, -am1) + (1.0 - u01)
    x = math.floor(math.pow(u, -1.0 / am1))
    if not 1 <= x <= 2**63:
        return None, False
    t = math.pow(1.0 + 1.0 / x, am1)
    return x, v * x * (t - 1.0) / (b - 1.0) <= t / b


class TestZipfReplica:
    """``synthetic._zipf`` against ``Generator.zipf``, the reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        a=st.sampled_from([1.05, 1.2, 2.0, 4.0, 1025.0, 5000.0]),
        size=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
        skip=st.integers(min_value=0, max_value=5),
        half_word=st.booleans(),
    )
    def test_same_values_and_state(self, seed, a, size, skip, half_word):
        sides = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            rng.random(skip)
            if half_word:  # leaves PCG64 holding a buffered 32-bit half
                rng.integers(2**16, dtype=np.uint32)
            sides.append(rng)
        reference, replica = sides
        expected = reference.zipf(a, size=size)
        got = synthetic._zipf(replica, a, size)
        assert got.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        assert replica.bit_generator.state == reference.bit_generator.state
        assert replica.random() == reference.random()

    @staticmethod
    def assert_block_follows_libm(u01, v, a):
        if u01.size == 0:
            pytest.skip("np.power rounds as libm pow on these inputs here")
        am1 = a - 1.0
        x, accepted = synthetic._zipf_block(
            u01, v, am1, math.pow(2.0, am1), math.pow(9223372036854775807.0, -am1)
        )
        for i, (u01_i, v_i) in enumerate(zip(u01.tolist(), v.tolist())):
            want_x, want_accepted = libm_attempt(u01_i, v_i, a)
            assert want_x is not None
            assert x[i] == want_x, (u01_i, x[i], want_x)
            assert accepted[i] == want_accepted, (u01_i, v_i)

    @pytest.mark.parametrize("a", [1.05, 1.2])
    def test_floor_band_follows_libm(self, a):
        """Crafted ``U`` (neighbours of ``k ** -(a-1)``) whose ``np.power``
        and libm ``pow`` floor to different integers."""
        am1 = a - 1.0
        umin = math.pow(9223372036854775807.0, -am1)
        centres = np.array([(1.0 - k**-am1) / (1.0 - umin) for k in range(2, 3000)])
        steps = np.arange(-48, 49, dtype=np.int64)
        u01 = (centres.view(np.int64)[:, None] + steps).ravel().view(np.float64)
        u = u01 * umin + (1.0 - u01)
        fast = np.floor(np.power(u, -1.0 / am1))
        libm = np.array([math.floor(math.pow(x, -1.0 / am1)) for x in u.tolist()])
        crafted = u01[fast != libm]
        v = np.random.default_rng(0).random(crafted.size)
        self.assert_block_follows_libm(crafted, v, a)

    @pytest.mark.parametrize("a", [1.2, 4.0])
    def test_accept_band_follows_libm(self, a):
        """Crafted ``(X, V)`` on the accept inequality's edge, where
        ``np.power`` and libm ``pow`` give ``T`` on opposite sides."""
        am1 = a - 1.0
        b = math.pow(2.0, am1)
        umin = math.pow(9223372036854775807.0, -am1)
        xs = np.arange(2, 3000, dtype=np.float64)
        fast_t = np.power(1.0 + 1.0 / xs, am1).tolist()
        steps = np.arange(-8, 9, dtype=np.int64)
        u01, v = [], []
        for x, t in zip(xs.tolist(), fast_t):
            libm_t = math.pow(1.0 + 1.0 / x, am1)
            edge = libm_t * (b - 1.0) / (b * x * (libm_t - 1.0))
            neighbours = (np.array([edge]).view(np.int64) + steps).view(np.float64)
            for v_i in neighbours.tolist():
                if 0.0 < v_i < 1.0 and (v_i * x * (t - 1.0) / (b - 1.0) <= t / b) != (
                    v_i * x * (libm_t - 1.0) / (b - 1.0) <= libm_t / b
                ):
                    # a U whose pow lands mid-way between x and x + 1
                    u01.append((1.0 - (x + 0.5) ** -am1) / (1.0 - umin))
                    v.append(v_i)
        self.assert_block_follows_libm(np.array(u01), np.array(v), a)


class TestBucketBoundaries:
    def test_strictly_increasing_and_sized(self):
        spec = get_model("RM5")
        gen = SyntheticTableGenerator(spec)
        edges = gen.bucket_boundaries("int_0")
        assert len(edges) == spec.bucket_size
        assert np.all(np.diff(edges) > 0)

    def test_per_feature_boundaries_differ(self):
        gen = SyntheticTableGenerator(get_model("RM1"))
        a = gen.bucket_boundaries("int_0")
        b = gen.bucket_boundaries("int_1")
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        spec = get_model("RM1")
        a = SyntheticTableGenerator(spec, seed=3).bucket_boundaries("int_0")
        b = SyntheticTableGenerator(spec, seed=3).bucket_boundaries("int_0")
        np.testing.assert_array_equal(a, b)
