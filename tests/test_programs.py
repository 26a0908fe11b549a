"""Tests for the benchmark registry and program reconstructions."""

import math
from fractions import Fraction

import pytest

from repro.core import value_iteration
from repro.errors import ModelError
from repro.programs import BENCHMARKS, get_benchmark
from repro.pts import simulate, validate_pts

ALL_UPPER = [
    ("RdAdder", dict(deviation=25)),
    ("Robot", dict(deviation="1.8")),
    ("Rdwalk", dict(n=400)),
    ("Coupon", dict(n=100)),
    ("Prspeed", dict(n=150)),
    ("1DWalk", dict(x0=10)),
    ("2DWalk", dict(x0=1000, y0=10)),
    ("3DWalk", dict(x0=100, y0=100, z0=100)),
    ("Race", dict(x0=40, y0=0)),
]
ALL_LOWER = [
    ("M1DWalk", dict(p="1e-4")),
    ("Newton", dict(p="5e-4")),
    ("Ref", dict(p="1e-7")),
]


class TestRegistry:
    def test_all_paper_benchmarks_registered(self):
        get_benchmark("Race")  # force family imports
        # 12 paper benchmarks + the promoted fuzz finds (family "Fuzzed")
        fuzzed = [n for n in BENCHMARKS if n.startswith("fz-")]
        assert len(BENCHMARKS) - len(fuzzed) == 12
        assert len(fuzzed) == 3

    def test_unknown_benchmark(self):
        with pytest.raises(ModelError):
            get_benchmark("NoSuchBenchmark")

    def test_label(self):
        inst = get_benchmark("Race", x0=40, y0=0)
        assert inst.label == "Race(x=40, y=0)"
        assert inst.family == "StoInv"


@pytest.mark.parametrize("name,kwargs", ALL_UPPER + ALL_LOWER)
def test_benchmarks_validate(name, kwargs):
    inst = get_benchmark(name, **kwargs)
    report = validate_pts(inst.pts)
    assert report.ok, report.problems


@pytest.mark.parametrize("name,kwargs", ALL_UPPER + ALL_LOWER)
def test_invariants_sound_on_trajectories(name, kwargs):
    inst = get_benchmark(name, **kwargs)
    assert inst.invariants.check_on_trajectories(episodes=30, seed=2) == []


class TestSemanticSpotChecks:
    def test_rdadder_deviation_probability(self):
        # d=25 row: the sum exceeds 250 + 25 iff 276 or more of the 500
        # fair increments fire, so the violation is P[Binomial(500, 1/2) >= 276]
        inst = get_benchmark("RdAdder", deviation=25)
        tail = Fraction(sum(math.comb(500, j) for j in range(276, 501)), 2**500)
        vi = value_iteration(inst.pts)
        assert vi.certified and vi.width < 1e-9
        assert vi.lower <= float(tail) <= vi.upper

    def test_coupon_mean_draws(self):
        # coupon collector over 5 coupons: E[T] = 5 * H_5 ~ 11.4
        inst = get_benchmark("Coupon", n=100)
        r = simulate(inst.pts, episodes=1500, seed=5)
        assert r.violation_rate < 0.01
        assert r.termination_rate > 0.99

    def test_newton_survival_rate(self):
        inst = get_benchmark("Newton", p="5e-4")
        r = simulate(inst.pts, episodes=3000, seed=6)
        # survival (= violation of `assert false`) ~ 0.744
        assert r.violation_rate == pytest.approx(0.744, abs=0.04)

    def test_ref_survival_rate(self):
        # value iteration brackets it at 0.857442833, 5e-12 wide
        inst = get_benchmark("Ref", p="1e-5")
        vi = value_iteration(inst.pts)
        assert vi.certified
        assert vi.lower == pytest.approx(0.857, abs=0.05)
        assert vi.upper == pytest.approx(0.857, abs=0.05)

    def test_m1dwalk_survival(self):
        inst = get_benchmark("M1DWalk", p="1e-4")
        r = simulate(inst.pts, episodes=2000, seed=8)
        assert r.violation_rate == pytest.approx(0.984, abs=0.02)

    def test_2dwalk_termination(self):
        inst = get_benchmark("2DWalk", x0=50, y0=5)
        r = simulate(inst.pts, episodes=300, max_steps=20_000, seed=9)
        assert r.termination_rate > 0.99

    def test_3dwalk_steps_fractional(self):
        inst = get_benchmark("3DWalk", x0=5, y0=5, z0=5)
        r = simulate(inst.pts, episodes=200, max_steps=10_000, seed=10)
        assert r.violation_rate < 0.05
        assert r.termination_rate > 0.9

    def test_prspeed_mean_duration(self):
        inst = get_benchmark("Prspeed", n=150)
        r = simulate(inst.pts, episodes=1500, seed=11)
        # ~32 loop iterations at 1.5 expected speed; T > 150 essentially never
        assert r.violation_rate == 0.0
        assert r.termination_rate == 1.0
