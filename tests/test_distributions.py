"""Tests for sampling-variable distributions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError, UnboundedSupportError
from repro.pts.distributions import (
    DiscreteDistribution,
    NormalDistribution,
    PointMass,
    UniformDistribution,
    bernoulli,
)


class TestPointMass:
    def test_everything(self):
        d = PointMass("3/2")
        assert d.mean() == Fraction(3, 2)
        assert d.support() == (Fraction(3, 2), Fraction(3, 2))
        assert d.sample(random.Random(0)) == 1.5
        assert d.log_mgf(2.0) == pytest.approx(3.0)
        assert d.d_log_mgf(2.0) == pytest.approx(1.5)
        assert d.atoms() == [(1, Fraction(3, 2))]


class TestDiscrete:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelError):
            DiscreteDistribution([(Fraction(1, 2), 0)])

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ModelError):
            DiscreteDistribution([(0, 1), (1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            DiscreteDistribution([])

    def test_duplicate_values_merged(self):
        d = DiscreteDistribution([("1/4", 1), ("1/4", 1), ("1/2", 0)])
        assert d.atoms() == [(Fraction(1, 2), 0), (Fraction(1, 2), 1)]

    def test_mean(self):
        d = bernoulli("3/4")
        assert d.mean() == Fraction(3, 4)

    def test_support(self):
        d = DiscreteDistribution([("1/3", -2), ("1/3", 5), ("1/3", 1)])
        assert d.support() == (-2, 5)

    def test_bounded_support_ok(self):
        assert bernoulli("1/2").bounded_support() == (0, 1)

    def test_log_mgf_matches_direct(self):
        d = bernoulli("1/4")
        t = 0.7
        direct = math.log(0.25 * math.exp(t) + 0.75)
        assert d.log_mgf(t) == pytest.approx(direct)

    def test_log_mgf_at_zero(self):
        assert bernoulli("1/4").log_mgf(0.0) == pytest.approx(0.0)

    @given(st.floats(min_value=-5, max_value=5))
    def test_d_log_mgf_is_numeric_derivative(self, t):
        d = DiscreteDistribution([("1/2", -1), ("1/3", 0), ("1/6", 2)])
        h = 1e-6
        numeric = (d.log_mgf(t + h) - d.log_mgf(t - h)) / (2 * h)
        assert d.d_log_mgf(t) == pytest.approx(numeric, abs=1e-4)

    def test_sampling_frequencies(self):
        d = bernoulli("1/4")
        rng = random.Random(42)
        hits = sum(d.sample(rng) for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.25, abs=0.02)

    def test_d_log_mgf_at_zero_is_mean(self):
        d = DiscreteDistribution([("1/2", -1), ("1/2", 3)])
        assert d.d_log_mgf(0.0) == pytest.approx(1.0)


class TestUniform:
    def test_bounds_validated(self):
        with pytest.raises(ModelError):
            UniformDistribution(1, 1)

    def test_mean_support(self):
        d = UniformDistribution(-1, 3)
        assert d.mean() == 1
        assert d.support() == (-1, 3)

    def test_atoms_none(self):
        assert UniformDistribution(0, 1).atoms() is None

    def test_log_mgf_closed_form(self):
        d = UniformDistribution(0, 2)
        t = 1.3
        direct = math.log((math.exp(2 * t) - 1.0) / (2 * t))
        assert d.log_mgf(t) == pytest.approx(direct)

    def test_log_mgf_negative_t(self):
        d = UniformDistribution(-1, 1)
        t = -2.0
        direct = math.log((math.exp(t) - math.exp(-t)) / (2 * t))
        assert d.log_mgf(t) == pytest.approx(direct)

    def test_log_mgf_near_zero_series(self):
        d = UniformDistribution(0, 1)
        # second-order: t/2 + t^2/24
        t = 1e-8
        assert d.log_mgf(t) == pytest.approx(t / 2, abs=1e-12)

    @given(st.floats(min_value=-4, max_value=4))
    def test_d_log_mgf_is_numeric_derivative(self, t):
        d = UniformDistribution(-1, 2)
        h = 1e-6
        numeric = (d.log_mgf(t + h) - d.log_mgf(t - h)) / (2 * h)
        assert d.d_log_mgf(t) == pytest.approx(numeric, rel=1e-3, abs=1e-5)

    # u = t (hi - lo) on both sides of each branch edge: log_mgf's series
    # below |u| = 1e-6, d2_log_mgf's below 1e-2, the asymptote above 30
    @pytest.mark.parametrize(
        "u", [0.0, 5e-7, -2e-6, 5e-3, -2e-2, 0.7, -5.0, 29.9, -30.1, 45.0]
    )
    def test_d2_log_mgf_is_numeric_derivative(self, u):
        d = UniformDistribution(-1, 2)
        t, h = u / 3.0, 1e-3
        numeric = (d.d_log_mgf(t + h) - d.d_log_mgf(t - h)) / (2 * h)
        assert d.d2_log_mgf(t) == pytest.approx(numeric, rel=1e-5)

    def test_sample_within_support(self):
        d = UniformDistribution(2, 3)
        rng = random.Random(0)
        for _ in range(100):
            assert 2 <= d.sample(rng) <= 3

    @given(st.floats(min_value=-3, max_value=3))
    def test_mgf_convexity_in_t(self, t):
        # log-MGFs are convex; check the midpoint inequality vs t=0
        d = UniformDistribution(-1, 1)
        mid = d.log_mgf(t / 2)
        assert mid <= 0.5 * d.log_mgf(t) + 0.5 * d.log_mgf(0.0) + 1e-9


class TestNormal:
    def test_sigma_validated(self):
        with pytest.raises(ModelError):
            NormalDistribution(0, 0)

    def test_unbounded_support(self):
        d = NormalDistribution(0, 1)
        assert d.support() == (None, None)
        with pytest.raises(UnboundedSupportError):
            d.bounded_support()

    def test_log_mgf(self):
        d = NormalDistribution(1, 2)
        assert d.log_mgf(0.5) == pytest.approx(0.5 + 0.125 * 4)

    def test_d_log_mgf(self):
        d = NormalDistribution(1, 2)
        assert d.d_log_mgf(0.5) == pytest.approx(1 + 0.5 * 4)

    @pytest.mark.parametrize("t", [-3.0, 0.0, 0.5, 7.0])
    def test_d2_log_mgf_is_numeric_derivative(self, t):
        d = NormalDistribution(1, 2)
        h = 1e-3
        numeric = (d.d_log_mgf(t + h) - d.d_log_mgf(t - h)) / (2 * h)
        assert d.d2_log_mgf(t) == pytest.approx(numeric, rel=1e-9)
        assert d.d2_log_mgf(t) == 4.0

    def test_sample_mean(self):
        d = NormalDistribution(5, 1)
        rng = random.Random(7)
        xs = [d.sample(rng) for _ in range(5000)]
        assert sum(xs) / len(xs) == pytest.approx(5, abs=0.1)
