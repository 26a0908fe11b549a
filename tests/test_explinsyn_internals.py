"""Targeted tests for ExpLinSyn internals (Section 5.2 / Proposition 1)."""

import math
import random
from fractions import Fraction

import pytest

from repro.lang import compile_source
from repro.numeric.convex import ConvexProgram
from repro.core import exp_lin_syn, generate_interval_invariants
from repro.core.canonical import canonicalize
from repro.core.certificates import log_ptf_transition
from repro.core.explinsyn import _eliminate, _expand_term_at_point
from repro.core.templates import ExpTemplate


def race_setup():
    src = (
        "x := 40\ny := 0\n"
        "while x <= 99 and y <= 99:\n"
        "    if prob(0.5):\n"
        "        x, y := x + 1, y + 2\n"
        "    else:\n"
        "        x := x + 1\n"
        "assert x >= 100"
    )
    pts = compile_source(src, name="race").pts
    inv = generate_interval_invariants(pts)
    template = ExpTemplate(pts)
    return pts, inv, template


class TestEliminate:
    def test_d1_constraints_generated_for_unbounded_psi(self):
        from repro.core import InvariantMap

        pts, _, template = race_setup()
        # with trivial (universe) invariants the fail-edge region
        # {x <= 99, y >= 100} is unbounded, so D1 rows must appear
        inv = InvariantMap(pts)
        prog = ConvexProgram()
        for n in template.unknowns():
            prog.add_unknown(n)
        eliminated = _eliminate(pts, canonicalize(pts, inv, template), prog)
        assert prog._linear_le
        assert eliminated

    def test_no_d1_for_bounded_invariants(self):
        pts, inv, template = race_setup()
        prog = ConvexProgram()
        for n in template.unknowns():
            prog.add_unknown(n)
        _eliminate(pts, canonicalize(pts, inv, template), prog)
        # interval invariants (with narrowing) bound every premise of the
        # race, so the cone condition is vacuous
        assert not prog._linear_le

    def test_d2_at_every_generator_point(self):
        pts, inv, template = race_setup()
        prog = ConvexProgram()
        for n in template.unknowns():
            prog.add_unknown(n)
        eliminated = _eliminate(pts, canonicalize(pts, inv, template), prog)
        total_points = sum(len(e.generator_points) for e in eliminated)
        # pure-termination transitions contribute no LSE constraint
        assert len(prog._lse) <= total_points
        assert len(prog._lse) >= 1

    def test_canonical_agreement_with_log_ptf(self):
        """The canonical-form exponents must agree with the direct semantic
        computation of ptf on random assignments — a differential test
        between two independent code paths."""
        pts, inv, template = race_setup()
        cons = canonicalize(pts, inv, template)
        rng = random.Random(5)
        for _ in range(10):
            assignment = {name: rng.uniform(-0.5, 0.5) for name in template.unknowns()}
            sf = template.instantiate(assignment)
            for con in cons:
                transition = next(
                    t for t in pts.transitions if t.name == con.transition_name
                )
                # the generator points and a seeded convex combination of them
                gens = con.psi.generators()
                weights = [rng.random() for _ in gens.points]
                points = gens.point_valuations() + [
                    {
                        v: sum(w * float(p[i]) for w, p in zip(weights, gens.points))
                        / sum(weights)
                        for i, v in enumerate(gens.variables)
                    }
                ]
                for point in points:
                    direct = log_ptf_transition(pts, sf, transition, point)
                    # canonical: log(sum p_j exp(alpha.v + beta)) + eta_src
                    parts = []
                    for term in con.terms:
                        exponent = float(
                            sum(
                                term.alpha[v].evaluate_float(assignment) * point[v]
                                for v in term.alpha
                            )
                        ) + term.beta.evaluate_float(assignment)
                        parts.append(math.log(float(term.prob)) + exponent)
                    if parts:
                        m = max(parts)
                        canonical = m + math.log(sum(math.exp(p - m) for p in parts))
                    else:
                        canonical = float("-inf")
                    eta_src = sf.exponent(con.source, point)
                    if direct == float("-inf"):
                        assert canonical == float("-inf")
                    else:
                        assert direct == pytest.approx(
                            canonical + eta_src, abs=1e-6 * max(1, abs(direct))
                        )


class TestExpandTerm:
    def test_discrete_atoms_expand_to_weighted_terms(self):
        src = (
            "r ~ discrete((0.25, -1), (0.75, 2))\n"
            "x := 0\nn := 0\n"
            "while n <= 9:\n"
            "    x, n := x + r, n + 1\n"
            "assert x <= 15"
        )
        pts = compile_source(src, name="d").pts
        inv = generate_interval_invariants(pts)
        template = ExpTemplate(pts)
        cons = canonicalize(pts, inv, template)
        with_gamma = [t for c in cons for t in c.terms if t.gamma]
        assert with_gamma
        point = {v: Fraction(0) for v in pts.program_vars}
        specs = _expand_term_at_point(pts, with_gamma[0], point)
        # one spec per atom of the discrete distribution
        assert len(specs) == 2
        weights = sorted(w for w, _, _ in specs)
        assert weights == [0.25, 0.75]
        assert all(not smooth for _, _, smooth in specs)

    def test_continuous_stays_smooth(self):
        src = (
            "r ~ uniform(-1, 1)\n"
            "x := 0\nn := 0\n"
            "while n <= 9:\n"
            "    x, n := x + r, n + 1\n"
            "assert x <= 8"
        )
        pts = compile_source(src, name="u").pts
        inv = generate_interval_invariants(pts)
        template = ExpTemplate(pts)
        cons = canonicalize(pts, inv, template)
        with_gamma = [t for c in cons for t in c.terms if t.gamma]
        point = {v: Fraction(0) for v in pts.program_vars}
        specs = _expand_term_at_point(pts, with_gamma[0], point)
        assert len(specs) == 1
        assert len(specs[0][2]) == 1  # one smooth MGF factor


class TestOptimality:
    def test_race_near_optimal_vs_grid(self):
        """No exponential-with-affine-exponent bound on the race can be much
        better than what ExpLinSyn returns (completeness, Theorem 5.5):
        probe a coefficient grid around the solution and verify nothing
        feasible is substantially below the returned objective."""
        pts, inv, template = race_setup()
        cert = exp_lin_syn(pts, inv)
        prog = ConvexProgram()
        for n in template.unknowns():
            prog.add_unknown(n)
        _eliminate(pts, canonicalize(pts, inv, template), prog)
        head = pts.init_location
        base = cert.state_function
        rng = random.Random(3)
        for _ in range(60):
            assignment = {}
            for loc in template.locations:
                for v in pts.program_vars:
                    assignment[template.a_name(loc, v)] = base.coeffs[loc][v] + rng.uniform(-0.3, 0.3)
                assignment[template.b_name(loc)] = base.consts[loc] + rng.uniform(-3, 3)
            if prog.max_violation(assignment) <= 1e-9:
                objective = (
                    assignment[template.a_name(head, "x")] * 40.0
                    + assignment[template.b_name(head)]
                )
                assert objective >= cert.log_bound - 0.15
