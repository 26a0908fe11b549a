"""End-to-end tests for ExpLowSyn (Section 6) and termination proofs."""

import math

import pytest

from repro.errors import SynthesisError, VerificationError
from repro.lang import compile_source
from repro.core import exp_low_syn, prove_almost_sure_termination, value_iteration


def unreliable_walk(p: str) -> str:
    return f"""
const p = {p}
x := 1
while x <= 99:
    switch:
        prob(p): exit
        prob(0.75 * (1 - p)): x := x + 1
        prob(0.25 * (1 - p)): x := x - 1
assert false
"""


@pytest.fixture(scope="module")
def walk_pts():
    return compile_source(unreliable_walk("1e-4"), name="m1dwalk").pts


class TestTermination:
    def test_rsm_found_for_drifting_walk(self, walk_pts):
        cert = prove_almost_sure_termination(walk_pts)
        assert cert.rho is not None
        init = {k: float(v) for k, v in walk_pts.init_valuation.items()}
        assert cert.rank(walk_pts.init_location, init) >= 0

    def test_rsm_checked_by_verify(self, walk_pts):
        # the lower bound's verify() re-checks the attached RSM on every
        # invariant and premise: a rank lowered below 0 at x = 100 is caught
        cert = exp_low_syn(walk_pts)
        cert.verify()
        cert.termination_certificate.rho.consts[walk_pts.init_location] -= 2.0
        with pytest.raises(VerificationError, match="rho >= 0 violated"):
            cert.verify()

    def test_rank_zero_at_sinks(self, walk_pts):
        cert = prove_almost_sure_termination(walk_pts)
        assert cert.rank(walk_pts.term_location, {}) == 0.0

    def test_diverging_program_rejected(self):
        # deterministic divergence: no ranking supermartingale can exist
        src = "x := 0\nwhile x >= 0:\n  x := x + 1\nassert false"
        pts = compile_source(src, name="diverge").pts
        with pytest.raises(SynthesisError):
            prove_almost_sure_termination(pts)


class TestExpLowSyn:
    def test_paper_value_p_1e4(self, walk_pts):
        cert = exp_low_syn(walk_pts)
        # paper Table 2, M1DWalk p = 1e-4: 0.984126
        assert cert.bound == pytest.approx(0.984, abs=0.005)

    def test_below_true_probability(self, walk_pts):
        cert = exp_low_syn(walk_pts)
        vi = value_iteration(walk_pts, max_states=4000)
        assert cert.bound <= vi.upper + 1e-9

    def test_certificate_verifies(self, walk_pts):
        exp_low_syn(walk_pts).verify()

    def test_termination_certificate_attached(self, walk_pts):
        cert = exp_low_syn(walk_pts)
        assert cert.termination_certificate is not None

    def test_assume_termination_skips_proof(self, walk_pts):
        cert = exp_low_syn(walk_pts, assume_termination=True)
        assert cert.termination_certificate is None
        assert cert.bound > 0.9

    def test_smaller_failure_rate_gives_larger_bound(self):
        small = exp_low_syn(compile_source(unreliable_walk("1e-7"), name="a").pts)
        large = exp_low_syn(compile_source(unreliable_walk("1e-4"), name="b").pts)
        assert small.bound > large.bound

    def test_paper_value_p_1e7(self):
        cert = exp_low_syn(compile_source(unreliable_walk("1e-7"), name="w7").pts)
        # paper Table 2: 0.999984; Section 3.3 derivation gives exp(-1.98e-5)
        assert cert.bound == pytest.approx(math.exp(-1.98e-5), rel=1e-4)

    def test_certain_violation_lower_bound_near_one(self):
        src = "x := 0\nx := x + 1\nassert false"
        pts = compile_source(src, name="sure").pts
        cert = exp_low_syn(pts)
        assert cert.bound == pytest.approx(1.0, abs=1e-6)

    def test_all_mass_to_termination_rejected(self):
        src = "x := 0\nexit\nassert false"
        pts = compile_source(src, name="never").pts
        with pytest.raises(SynthesisError):
            exp_low_syn(pts)

    def test_lower_at_most_upper(self, walk_pts):
        from repro.core import exp_lin_syn

        lower = exp_low_syn(walk_pts)
        upper = exp_lin_syn(walk_pts)
        assert lower.log_bound <= upper.log_bound + 1e-9

    def test_bound_m_recorded(self, walk_pts):
        cert = exp_low_syn(walk_pts)
        assert cert.bound_m >= 1.0
