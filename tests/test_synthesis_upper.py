"""End-to-end tests for the upper-bound synthesis algorithms.

The key cross-validations:

* every synthesized upper bound must dominate the exact ``vpf`` from value
  iteration (or its rigorous lower bracket under truncation);
* ExpLinSyn (complete) must be at least as tight as HoeffdingSynthesis,
  which in turn must beat the Azuma baseline (Remark 2);
* the Race instance must land on the paper's reported numbers.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lang import compile_source
from repro.polyhedra.linexpr import var
from repro.pts import FAIL, TERM, NormalDistribution, PTSBuilder
from repro.core import (
    azuma_baseline,
    exp_lin_syn,
    generate_interval_invariants,
    hoeffding_synthesis,
    value_iteration,
)

RACE = """
x := 40
y := 0
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""

SMALL_WALK = """
x := 0
t := 0
while x <= 9:
    switch:
        prob(0.75): x, t := x + 1, t + 1
        prob(0.25): x, t := x - 1, t + 1
assert t <= 50
"""


@pytest.fixture(scope="module")
def race_pts():
    return compile_source(RACE, name="race").pts


@pytest.fixture(scope="module")
def race_explinsyn(race_pts):
    return exp_lin_syn(race_pts)


@pytest.fixture(scope="module")
def race_hoeffding(race_pts):
    return hoeffding_synthesis(race_pts)


class TestExpLinSynRace:
    def test_matches_paper_bound(self, race_explinsyn):
        # paper Table 1, Race (40, 0): 1.52e-7
        assert race_explinsyn.log_bound == pytest.approx(math.log(1.52e-7), abs=0.05)

    def test_dominates_exact_vpf(self, race_pts, race_explinsyn):
        vi = value_iteration(race_pts)
        assert race_explinsyn.bound >= vi.lower

    def test_template_matches_paper_table4(self, race_explinsyn, race_pts):
        # Table 4: exp(-1.18 x + 0.85 y + 31.79) at the loop head
        head = race_pts.init_location
        coeffs = race_explinsyn.state_function.coeffs[head]
        assert coeffs["x"] == pytest.approx(-1.18, abs=0.05)
        assert coeffs["y"] == pytest.approx(0.85, abs=0.05)

    def test_certificate_verifies(self, race_explinsyn):
        race_explinsyn.verify()  # must not raise

    def test_solver_reported_feasible(self, race_explinsyn):
        assert "violation" in race_explinsyn.solver_info


def test_normal_noise_walk_reaches_the_closed_form_optimum():
    """e += N(-0.1, 0.3) for 100 steps, failing if e ends >= 5.  With
    theta(loop) = exp(a e + c k + b) the program is: min b subject to
    c - 0.1 a + 0.045 a^2 <= 0 and 5 a + 100 c + b >= 0, so b = -12.5 at
    a = 5/3.  Phase I stops far up that curved boundary (a near 100), and
    phase II has to join the central path where that point lies."""
    b = PTSBuilder(["e", "k"], init={"e": 0, "k": 0}, name="normal-walk")
    noise = b.sampling("noise", NormalDistribution("-0.1", "0.3"))
    b.transition(
        "loop",
        guard=[b.le(var("k"), 99)],
        forks=[("loop", 1, {"e": var("e") + noise, "k": var("k") + 1})],
    )
    b.goto("loop", FAIL, guard=[b.ge(var("k"), 100), b.ge(var("e"), 5)])
    b.goto("loop", TERM, guard=[b.ge(var("k"), 100), b.le(var("e"), 5)])
    cert = exp_lin_syn(b.build(init_location="loop"))
    assert cert.log_bound == pytest.approx(-12.5, abs=1e-6)
    assert cert.state_function.coeffs["loop"]["e"] == pytest.approx(5 / 3, abs=1e-3)


def test_explinsyn_bound_does_not_depend_on_blas_threads():
    """The §5.2 bound must not depend on the BLAS thread count, whose float
    reductions differ: 3DWalk(100,100,100) must reach its optimum, about
    1e-4214.4, at one and at two threads, bit for bit."""
    code = (
        "from repro.core import exp_lin_syn\n"
        "from repro.programs import get_benchmark\n"
        "inst = get_benchmark('3DWalk', x0=100, y0=100, z0=100)\n"
        "print(repr(exp_lin_syn(inst.pts, inst.invariants).log_bound))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        printed.append(run.stdout.strip())
    assert printed[0] == printed[1]
    assert float(printed[0]) / math.log(10) == pytest.approx(-4214.42, abs=0.01)


class TestHoeffdingRace:
    def test_matches_paper_scale(self, race_hoeffding):
        # paper Table 1: 9.08e-4 on the 3-location Figure-1 PTS; our
        # compiler fuses the loop into one location, which legitimately
        # tightens the RepRSM bound (verified against exact vpf = 2.6e-8)
        assert 2.6e-8 < race_hoeffding.bound < 5e-3

    def test_reprsm_data_recorded(self, race_hoeffding):
        data = race_hoeffding.reprsm
        assert data is not None
        assert data.eps > 0
        assert data.delta == 1.0
        assert data.beta <= 0

    def test_certificate_verifies(self, race_hoeffding):
        race_hoeffding.verify()

    def test_looser_than_explinsyn(self, race_explinsyn, race_hoeffding):
        assert race_hoeffding.log_bound >= race_explinsyn.log_bound - 1e-9


class TestAzumaBaseline:
    def test_ordering_hoeffding_beats_azuma(self, race_pts, race_hoeffding):
        az = azuma_baseline(race_pts)
        # Remark 2: the Hoeffding bound is always at least as tight
        assert race_hoeffding.log_bound <= az.log_bound + 1e-9
        assert az.bound < 1.0  # still informative on this benchmark

    def test_azuma_reprsm_symmetric(self, race_pts):
        az = azuma_baseline(race_pts)
        assert az.reprsm.beta == pytest.approx(-0.5, abs=1e-6)


class TestSmallWalk:
    def test_all_methods_sound(self):
        pts = compile_source(SMALL_WALK, name="small").pts
        vi = value_iteration(pts, max_states=100_000)
        upper_complete = exp_lin_syn(pts)
        upper_hoeffding = hoeffding_synthesis(pts)
        assert upper_complete.bound >= vi.lower - 1e-12
        assert upper_hoeffding.bound >= vi.lower - 1e-12
        assert upper_complete.log_bound <= upper_hoeffding.log_bound + 1e-6

    def test_nontrivial_bound(self):
        pts = compile_source(SMALL_WALK, name="small").pts
        cert = exp_lin_syn(pts)
        assert cert.bound < 0.1  # T > 50 is unlikely with drift 1/2
        # the synthesized exponent matches the paper's Section 3.2 shape
        head = pts.init_location
        coeffs = cert.state_function.coeffs[head]
        assert coeffs["x"] == pytest.approx(-0.351, abs=0.01)
        assert coeffs["t"] == pytest.approx(0.124, abs=0.01)


class TestEdgeCases:
    def test_certain_violation_bound_is_one(self):
        src = "x := 0\nassert x >= 1"
        pts = compile_source(src, name="fail").pts
        cert = exp_lin_syn(pts)
        assert cert.bound == pytest.approx(1.0, abs=1e-6)

    def test_unreachable_violation_gets_tiny_bound(self):
        src = "x := 5\nassert x >= 1"
        pts = compile_source(src, name="ok").pts
        cert = exp_lin_syn(pts)
        assert cert.bound < 1e-6

    def test_explicit_invariants_accepted(self, race_pts):
        inv = generate_interval_invariants(race_pts)
        cert = exp_lin_syn(race_pts, invariants=inv)
        assert cert.bound < 1e-6

    def test_probabilistic_choice_exact(self):
        # one coin flip: vpf = 1/4 exactly; the template can express it
        src = "x := 0\nif prob(0.25):\n  x := 1\nassert x <= 0"
        pts = compile_source(src, name="coin").pts
        cert = exp_lin_syn(pts)
        assert cert.bound == pytest.approx(0.25, rel=1e-3)
