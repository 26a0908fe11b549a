"""Targeted tests for ExpLowSyn internals (Section 6)."""

import math
from fractions import Fraction

import pytest

from repro.errors import SynthesisError
from repro.lang import compile_source
from repro.polyhedra.linexpr import LinExpr
from repro.core import exp_low_syn, generate_interval_invariants
from repro.core.canonical import canonicalize
from repro.core.explowsyn import _jensen_strengthen
from repro.core.templates import ExpTemplate


def walk(p="1e-4"):
    src = f"""
const p = {p}
x := 1
while x <= 99:
    switch:
        prob(p): exit
        prob(0.75 * (1 - p)): x := x + 1
        prob(0.25 * (1 - p)): x := x - 1
assert false
"""
    return compile_source(src, name="walk").pts


class TestJensenStrengthen:
    def test_produces_linear_generator_rows(self):
        pts = walk()
        inv = generate_interval_invariants(pts)
        template = ExpTemplate(pts)
        cons = canonicalize(pts, inv, template)
        loop_con = [c for c in cons if len(c.terms) >= 2][0]
        le, eq = _jensen_strengthen(loop_con, pts)
        # the premise is a polytope: one "<=" row per generator point, each
        # affine over the template unknowns only (no multiplier columns)
        assert len(le) == len(loop_con.psi.generators().points) and not eq
        unknowns = set(template.unknowns())
        for expr, label in le:
            assert isinstance(expr, LinExpr) and label.startswith("jensen:")
            assert set(expr.variables()) <= unknowns

    def test_dropped_mass_enters_ln_q(self):
        pts = walk("0.01")
        inv = generate_interval_invariants(pts)
        template = ExpTemplate(pts)
        cons = canonicalize(pts, inv, template)
        loop_con = [c for c in cons if c.dropped_probability > 0][0]
        assert loop_con.dropped_probability == Fraction(1, 100)

    def test_all_mass_to_term_raises(self):
        pts = compile_source("x := 0\nexit\nassert false", name="never").pts
        inv = generate_interval_invariants(pts)
        template = ExpTemplate(pts)
        cons = canonicalize(pts, inv, template)
        empty = [c for c in cons if not c.terms]
        assert empty
        with pytest.raises(SynthesisError):
            _jensen_strengthen(empty[0], pts)


class TestJensenExactness:
    def test_deterministic_chain_is_lossless(self):
        """With a single kept fork per transition, Jensen's inequality is an
        equality, so the lower bound equals the exact survival probability."""
        length, p = 30, 0.002
        src = f"""
const p = {p}
i := 0
while i <= {length - 1}:
    if prob(1 - p):
        i := i + 1
    else:
        exit
assert false
"""
        pts = compile_source(src, name="chain").pts
        cert = exp_low_syn(pts)
        assert cert.bound == pytest.approx((1 - p) ** length, rel=1e-9)

    def test_branching_walk_is_conservative(self):
        """With genuinely branching forks Jensen is strict: the bound is
        below the exact probability but not by much on M1DWalk."""
        from repro.core import value_iteration

        pts = walk("1e-3")
        cert = exp_low_syn(pts)
        vi = value_iteration(pts, max_states=3000)
        assert cert.bound <= vi.upper + 1e-9
        assert cert.bound >= vi.upper - 0.15


class TestBoundedness:
    def test_m_at_least_one(self):
        pts = walk()
        cert = exp_low_syn(pts)
        assert cert.bound_m >= 1.0

    def test_exponent_below_m_on_samples(self):
        pts = walk()
        cert = exp_low_syn(pts)
        log_m = math.log(cert.bound_m)
        for loc, row in cert.state_function.coeffs.items():
            gens = cert.invariants.of(loc).generators()
            for point in gens.point_valuations():
                assert cert.state_function.exponent(loc, point) <= log_m + 1e-6
            for ray in gens.rays:  # and the exponent does not grow beyond them
                assert sum(row[v] * float(d) for v, d in zip(gens.variables, ray)) <= 0
