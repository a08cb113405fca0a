"""Unit tests for the utility helpers (rng, validation, zipf)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.utils.rng import derive_seed, make_rng, spawn_rng
from repro.utils.validation import (
    require,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)
from repro.utils.zipf import ZipfSampler, zipf_weights


class TestRng:
    def test_same_seed_same_sequence(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_rng_produces_independent_streams(self):
        children = spawn_rng(make_rng(7), 3)
        assert len(children) == 3
        draws = [child.random() for child in children]
        assert len(set(draws)) == 3

    def test_derive_seed(self):
        assert derive_seed(None, 5) is None
        assert derive_seed(10, 5) == derive_seed(10, 5)
        assert derive_seed(10, 5) != derive_seed(10, 6)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError):
            require(False, "boom")

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-1, "x")

    def test_require_probability(self):
        require_probability(0.5, "p")
        with pytest.raises(ConfigurationError):
            require_probability(1.5, "p")

    def test_require_type(self):
        require_type("s", str, "x")
        with pytest.raises(ConfigurationError):
            require_type("s", int, "x")


class TestZipf:
    def test_weights_sum_to_one(self):
        weights = zipf_weights(100, 1.0)
        assert weights.sum() == pytest.approx(1.0)

    def test_weights_are_decreasing(self):
        weights = zipf_weights(50, 1.2)
        assert all(weights[i] >= weights[i + 1] for i in range(49))

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)

    def test_sampler_range(self):
        sampler = ZipfSampler(100, 1.0, seed=3)
        samples = sampler.sample(1000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_sampler_is_skewed(self):
        sampler = ZipfSampler(1000, 1.2, seed=3)
        samples = sampler.sample(5000)
        # The most frequent rank must be sampled far more often than a mid one.
        head = (samples == 0).sum()
        tail = (samples == 500).sum()
        assert head > tail

    def test_sample_distinct(self):
        sampler = ZipfSampler(50, 1.0, seed=3)
        distinct = sampler.sample_distinct(20)
        assert len(distinct) == 20
        assert len(set(int(x) for x in distinct)) == 20

    def test_sample_distinct_full_support(self):
        sampler = ZipfSampler(5, 1.0, seed=3)
        distinct = sampler.sample_distinct(10)
        assert sorted(int(x) for x in distinct) == [0, 1, 2, 3, 4]

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=2.0))
    def test_weights_properties(self, size, exponent):
        weights = zipf_weights(size, exponent)
        assert len(weights) == size
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()
