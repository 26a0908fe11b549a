"""Tests for certificate objects and independent verification."""

import math

import pytest

from repro.errors import VerificationError
from repro.lang import compile_source
from repro.polyhedra import var
from repro.pts import FAIL, TERM, PTSBuilder
from repro.pts.distributions import UniformDistribution
from repro.core import (
    InvariantMap,
    azuma_baseline,
    exp_lin_syn,
    exp_low_syn,
    generate_interval_invariants,
    hoeffding_synthesis,
    log_ptf_transition,
)
from repro.core.certificates import RepRSMData, UpperBoundCertificate
from repro.core.templates import ExpTemplate

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


@pytest.fixture(scope="module")
def race():
    pts = compile_source(RACE, name="race").pts
    return pts, generate_interval_invariants(pts)


class TestLogPtf:
    def test_matches_manual_expectation(self, race):
        pts, inv = race
        template = ExpTemplate(pts)
        head = pts.init_location
        sf = template.instantiate(
            {template.a_name(head, "x"): -1.0, template.b_name(head): 0.0}
        )
        loop = [t for t in pts.transitions_from(head) if len(t.forks) == 2][0]
        got = log_ptf_transition(pts, sf, loop, {"x": 50.0, "y": 0.0})
        # both forks move x to 51: 0.5 e^{-51} + 0.5 e^{-51} = e^{-51}
        assert got == pytest.approx(-51.0)

    def test_fail_fork_contributes_probability(self, race):
        pts, inv = race
        sf = ExpTemplate(pts).instantiate({})
        fail_t = [
            t
            for t in pts.transitions
            if any(f.destination == pts.fail_location for f in t.forks)
        ][0]
        got = log_ptf_transition(pts, sf, fail_t, {"x": 50.0, "y": 100.0})
        assert got == pytest.approx(0.0)  # probability 1 into fail

    def test_term_fork_contributes_nothing(self, race):
        pts, inv = race
        sf = ExpTemplate(pts).instantiate({})
        term_t = [
            t
            for t in pts.transitions
            if all(f.destination == pts.term_location for f in t.forks)
        ][0]
        assert log_ptf_transition(pts, sf, term_t, {"x": 100.0, "y": 0.0}) == float(
            "-inf"
        )


class TestCertificateAPI:
    def test_bound_properties(self, race):
        pts, inv = race
        cert = exp_lin_syn(pts, inv)
        assert 0.0 < cert.bound < 1.0
        assert math.log(cert.bound) == pytest.approx(cert.log_bound, abs=1e-9)
        assert "e-07" in cert.bound_str
        assert "explinsyn" in repr(cert)

    def test_render_template_per_location(self, race):
        pts, inv = race
        cert = exp_lin_syn(pts, inv)
        rendered = cert.render_template()
        assert set(rendered) == set(cert.state_function.coeffs)
        assert all(v.startswith("exp(") for v in rendered.values())

    def test_log_space_bound_str_below_double_range(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("2DWalk", x0=1000, y0=10)
        cert = exp_lin_syn(inst.pts, inst.invariants)
        assert cert.bound == 0.0  # ~1e-570 underflows doubles
        assert "e-5" in cert.bound_str  # but prints exactly in log form


class TestVerificationCatchesBadCertificates:
    def test_tampered_upper_bound_rejected(self, race):
        pts, inv = race
        cert = exp_lin_syn(pts, inv)
        head = pts.init_location
        # tamper: flip the sign of the x coefficient
        cert.state_function.coeffs[head]["x"] *= -1.0
        with pytest.raises(VerificationError):
            cert.verify()

    def test_tampered_lower_bound_rejected(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("M1DWalk", p="1e-4")
        cert = exp_low_syn(inst.pts, inst.invariants)
        loc = next(iter(cert.state_function.coeffs))
        cert.state_function.consts[loc] += 1.0  # inflate theta
        with pytest.raises(VerificationError):
            cert.verify()

    def test_lower_bound_above_one_rejected(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("M1DWalk", p="1e-4")
        cert = exp_low_syn(inst.pts, inst.invariants)
        cert.log_bound = 0.5  # claims probability e^0.5 > 1
        with pytest.raises(VerificationError):
            cert.verify()

    def test_wrong_invariant_detected_by_fixed_point_check(self, race):
        pts, _ = race
        cert = exp_lin_syn(pts)
        # weaken to universe invariants: the pre fixed-point must still hold
        # everywhere the guard allows; the certificate was synthesized for a
        # *smaller* premise, so checking on the universe may fail — the
        # verifier must at least not crash and must stay deterministic
        cert.invariants = InvariantMap(pts)
        try:
            cert.verify()
        except VerificationError:
            pass  # acceptable: wider premise than the certificate supports


#: l_fail is unreachable (x never leaves [0, 6]): §5.1 and Azuma print -inf
UNREACHABLE = """
x := 0
while x <= 5:
    if prob(0.5):
        x := x + 1
assert x <= 100
"""

UPPER = {"hoeffding": hoeffding_synthesis, "azuma": azuma_baseline, "explinsyn": exp_lin_syn}
REPRSM = ("hoeffding", "azuma")


class TestPrintedBoundFollowsTheta:
    """Every method's printed ``log_bound`` must follow from its state
    function at the initial state, not only ExpLinSyn's."""

    @pytest.fixture(scope="class")
    def race_row(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("Race", x0=40, y0=0)
        return inst.pts, inst.invariants

    @pytest.mark.parametrize("method", sorted(UPPER))
    def test_lowered_upper_bound_rejected(self, race_row, method):
        cert = UPPER[method](*race_row)
        cert.verify()
        cert.log_bound -= 5.0
        with pytest.raises(VerificationError, match="below theta"):
            cert.verify()

    @pytest.mark.parametrize("method", REPRSM)
    def test_minus_inf_rejected_while_fail_reachable(self, race_row, method):
        cert = UPPER[method](*race_row)
        cert.log_bound = float("-inf")
        with pytest.raises(VerificationError, match="enters l_fail"):
            cert.verify()

    def test_raised_lower_bound_rejected(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("M1DWalk", p="1e-7")
        cert = exp_low_syn(inst.pts, inst.invariants)
        assert cert.log_bound == pytest.approx(-1.98e-5, rel=0.01)
        cert.log_bound /= 2  # still below 1, but above theta(init)
        with pytest.raises(VerificationError, match="above theta"):
            cert.verify()

    @pytest.mark.parametrize("method", REPRSM)
    def test_honest_minus_inf_verifies(self, method):
        cert = UPPER[method](compile_source(UNREACHABLE, name="unreachable").pts)
        assert cert.log_bound == float("-inf")
        cert.verify()


class TestCompleteCheckCatches:
    """Violations that a check at a few random sample points misses: a fork
    slope that grows along a ray, a support-box corner, and a termination
    RSM that only the generators of its premises show wrong."""

    def test_fork_slope_growing_along_a_ray_rejected(self):
        # x := 2x + 1 on x >= 0, so the loop's premise is the ray x >= 0
        b = PTSBuilder(["x"], init={"x": 0}, name="doubling")
        b.transition(
            "a", guard=[b.ge(var("x"), 0)],
            forks=[("a", "1/2", {"x": 2 * var("x") + 1}), (TERM, "1/2", {})],
        )
        b.goto("a", FAIL, guard=[b.le(var("x"), -1)])
        pts = b.build(init_location="a")
        invariants = generate_interval_invariants(pts)
        # theta(a, x) = exp(x / 100): the gap ln(1/2) + (x + 1)/100 has
        # slack at the vertex x = 0 and turns positive only beyond x = 68
        sf = ExpTemplate(pts).instantiate({ExpTemplate.a_name("a", "x"): 0.01})
        cert = UpperBoundCertificate("explinsyn", 0.0, sf, pts, invariants)
        with pytest.raises(VerificationError, match=r"\(D1\)"):
            cert.verify()

    def test_c4_violated_only_at_a_mixed_corner_rejected(self):
        # x moves by r1 - r2, extreme at the box corners (0, 1) and (1, 0)
        b = PTSBuilder(["x", "n"], init={"x": 0, "n": 0}, name="difference")
        r1 = b.sampling("r1", UniformDistribution(0, 1))
        r2 = b.sampling("r2", UniformDistribution(0, 1))
        b.transition(
            "a", guard=[b.le(var("n"), 9)],
            forks=[("a", 1, {"x": var("x") + r1 - r2, "n": var("n") + 1})],
        )
        b.goto("a", TERM, guard=[b.ge(var("n"), 10)])
        pts = b.build(init_location="a")
        template = ExpTemplate(pts, include_sinks=True)
        # eta = x - n/10 decreases by eps = 1/10 in expectation; its
        # difference r1 - r2 - 1/10 reaches 0.9 at (1, 0), above beta + delta
        eta = template.instantiate({
            template.a_name(loc, v): c
            for loc in ("a", TERM) for v, c in (("x", 1.0), ("n", -0.1))
        } | {template.b_name(TERM): -0.1})
        reprsm = RepRSMData(eta=eta, eps=0.1, beta=-1.1, delta=1.99)
        cert = UpperBoundCertificate(
            "azuma", 0.0, ExpTemplate(pts).instantiate({}), pts,
            generate_interval_invariants(pts), reprsm=reprsm,
        )
        with pytest.raises(VerificationError, match=r"\(C4\) difference <= beta \+ delta"):
            cert.verify()
        reprsm.delta = 2.0  # the difference's exact range [-1.1, 0.9]
        cert.verify()

    def test_termination_rsm_not_decreasing_rejected(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("M1DWalk", p="1e-4")
        cert = exp_low_syn(inst.pts, inst.invariants)
        cert.verify()
        # lower the rank by 1/500: it stays nonnegative, and around the loop
        # (where only the 1e-4 exit mass loses rank) within tolerance, but
        # the step into l_fail (rank 0) now starts from rank 0.998 at x = 100
        cert.termination_certificate.rho.consts[inst.pts.init_location] -= 0.002
        with pytest.raises(VerificationError) as failure:
            cert.verify()
        assert str(failure.value).count("violated") == 1
        assert "termination RSM decrease violated at 'loop-exit" in str(failure.value)
