"""Tests for the Monte-Carlo PTS simulator."""

import pytest

from repro.errors import ModelError
from repro.polyhedra import var
from repro.pts import FAIL, TERM, PTSBuilder, bernoulli, simulate, simulate_violation_probability


def coin_flip_pts(p="1/2"):
    """One coin flip: fail with probability p, terminate otherwise."""
    b = PTSBuilder(["x"], init={"x": 0}, name="coin")
    b.transition("a", guard=[], forks=[(FAIL, p, {}), (TERM, f"{1 - eval_frac(p)}", {})])
    return b.build(init_location="a")


def eval_frac(p):
    from fractions import Fraction

    return Fraction(p)


def symmetric_walk(lo=-5, hi=5):
    """Random walk on integers; fail at hi, terminate at lo."""
    b = PTSBuilder(["x"], init={"x": 0}, name="walk")
    b.transition(
        "a",
        guard=[b.ge(var("x"), lo + 1), b.le(var("x"), hi - 1)],
        forks=[
            ("a", "1/2", {"x": var("x") + 1}),
            ("a", "1/2", {"x": var("x") - 1}),
        ],
    )
    b.goto("a", FAIL, guard=[b.ge(var("x"), hi)])
    b.goto("a", TERM, guard=[b.le(var("x"), lo)])
    return b.build(init_location="a")


class TestSimulate:
    def test_coin_flip_rate(self):
        pts = coin_flip_pts("1/4")
        result = simulate(pts, episodes=20_000, seed=3)
        assert result.violation_rate == pytest.approx(0.25, abs=0.02)
        assert result.violations + result.terminations == result.episodes
        assert result.censored == 0
        assert result.mean_steps == pytest.approx(1.0)

    def test_symmetric_walk_hits_half(self):
        # gambler's ruin from the midpoint: Pr[hit hi first] = 1/2
        result = simulate(symmetric_walk(), episodes=8_000, seed=5)
        assert result.violation_rate == pytest.approx(0.5, abs=0.03)

    def test_asymmetric_start(self):
        # start at 3 in [-5, 5]: Pr[hit 5 first] = (3+5)/10 = 0.8
        result = simulate(
            symmetric_walk(), episodes=8_000, seed=5, init_valuation={"x": 3.0}
        )
        assert result.violation_rate == pytest.approx(0.8, abs=0.03)

    def test_censoring(self):
        result = simulate(symmetric_walk(), episodes=500, max_steps=2, seed=0)
        assert result.censored > 0
        lo, hi = result.violation_interval()
        assert hi > result.violation_rate  # censored episodes widen the top

    def test_interval_contains_truth(self):
        result = simulate(coin_flip_pts("1/4"), episodes=5_000, seed=11)
        lo, hi = result.violation_interval()
        assert lo <= 0.25 <= hi

    @pytest.mark.parametrize("k, n", [(0, 1200), (1, 1200), (600, 1200), (1198, 1200), (3, 8000)])
    def test_interval_is_exact_clopper_pearson(self, k, n):
        from scipy.stats import beta

        from repro.pts.simulator import SimulationResult

        for alpha in (0.05, 0.001):
            lo, hi = SimulationResult(n, k, n - k, 0, 0).violation_interval(alpha)
            assert lo == pytest.approx(beta.ppf(alpha / 2, k, n - k + 1) if k else 0.0, rel=1e-9)
            assert hi == pytest.approx(beta.ppf(1 - alpha / 2, k + 1, n - k), rel=1e-9)
        # 1 198 violations of 1 200 runs at the true rate 0.9997754: the
        # 99.9% Wilson score interval ended at 0.9997709 and missed it
        if k == 1198:
            assert lo <= 0.9997754 <= hi

    def test_incomplete_pts_raises(self):
        b = PTSBuilder(["x"], init={"x": 5}, name="hole")
        b.goto("a", TERM, guard=[b.le(var("x"), 0)])
        pts = b.build(init_location="a")
        with pytest.raises(ModelError):
            simulate(pts, episodes=1)

    def test_determinism_with_seed(self):
        pts = symmetric_walk()
        a = simulate(pts, episodes=500, seed=9).violations
        b = simulate(pts, episodes=500, seed=9).violations
        assert a == b

    def test_convenience_wrapper(self):
        rate = simulate_violation_probability(coin_flip_pts("1/2"), episodes=2_000, seed=1)
        assert rate == pytest.approx(0.5, abs=0.05)

    def test_sampling_variables_drive_updates(self):
        b = PTSBuilder(["x", "n"], init={"x": 0, "n": 0}, name="sampled")
        b.sampling("r", bernoulli("3/4"))
        b.transition(
            "a",
            guard=[b.le(var("n"), 99)],
            forks=[("a", 1, {"x": var("x") + var("r"), "n": var("n") + 1})],
        )
        b.goto("a", FAIL, guard=[b.ge(var("n"), 100), b.ge(var("x"), 76)])
        b.goto(
            "a", TERM, guard=[b.ge(var("n"), 100), b.le(var("x"), 75)]
        )
        pts = b.build(init_location="a")
        result = simulate(pts, episodes=2_000, seed=2)
        # X ~ Binomial(100, 3/4): Pr[X >= 76] ~ 0.446
        assert result.violation_rate == pytest.approx(0.446, abs=0.05)

    def test_empty_result_properties(self):
        from repro.pts.simulator import SimulationResult

        r = SimulationResult(0, 0, 0, 0, 0)
        assert r.violation_rate == 0.0
        assert r.termination_rate == 0.0
        assert r.mean_steps == 0.0
        assert r.violation_interval() == (0.0, 1.0)
