"""Tests for the Farkas' lemma encoder (Lemma 2)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.numeric.lp import LinearProgram
from repro.polyhedra import AffineIneq, FarkasEncoder, Polyhedron, TemplateConstraint
from repro.polyhedra.linexpr import LinExpr, var
from test_polyhedra import HIGHS_TOL, highs_maximize


def _solve_block(constraints):
    lp = LinearProgram()
    for c in constraints:
        if c.relation == "<=":
            lp.add_le(c.expr, c.label)
        else:
            lp.add_eq(c.expr, c.label)
    return lp.solve()


class TestTemplateConstraint:
    def test_relation_validated(self):
        with pytest.raises(ModelError):
            TemplateConstraint(var("t"), ">=")

    def test_holds(self):
        c = TemplateConstraint(var("t") - 1, "<=")
        assert c.holds({"t": 1.0})
        assert not c.holds({"t": 2.0})

    def test_eq_holds(self):
        c = TemplateConstraint(var("t") - 1, "==")
        assert c.holds({"t": 1.0})
        assert not c.holds({"t": 0.0})

    def test_missing_unknowns_default_zero(self):
        c = TemplateConstraint(var("t") - 1, "<=")
        assert c.holds({})

    def test_str_mentions_label(self):
        c = TemplateConstraint(var("t"), "<=", label="C3")
        assert "C3" in str(c)


class TestFarkasImplication:
    def test_valid_implication_feasible(self):
        # forall x in [0, 10]: x <= c  should force c >= 10
        poly = Polyhedron.from_box({"x": (0, 10)})
        enc = FarkasEncoder()
        block = enc.encode_implication(
            poly, {"x": LinExpr.constant(1)}, var("c"), label="t"
        )
        assignment = _solve_block(block)
        # minimizing nothing: just feasibility; check c is forced >= 10
        lp = LinearProgram()
        for c in block:
            (lp.add_le if c.relation == "<=" else lp.add_eq)(c.expr)
        values = lp.solve(minimize=var("c"))
        assert values["c"] == pytest.approx(10.0, abs=1e-6)
        assert assignment is not None

    def test_invalid_implication_infeasible(self):
        # forall x >= 0: x <= 5 is false and x-free, so Farkas must fail
        poly = Polyhedron.from_box({"x": (0, None)})
        enc = FarkasEncoder()
        block = enc.encode_implication(
            poly, {"x": LinExpr.constant(1)}, LinExpr.constant(5), label="t"
        )
        lp = LinearProgram()
        for c in block:
            (lp.add_le if c.relation == "<=" else lp.add_eq)(c.expr)
        assert not lp.feasible()

    def test_unknown_coefficient_in_target(self):
        # forall x in [1, 2]: a*x <= 1  <=>  a <= 1/2 (for a >= 0 side)
        poly = Polyhedron.from_box({"x": (1, 2)})
        enc = FarkasEncoder()
        block = enc.encode_implication(poly, {"x": var("a")}, LinExpr.constant(1))
        lp = LinearProgram()
        for c in block:
            (lp.add_le if c.relation == "<=" else lp.add_eq)(c.expr)
        values = lp.solve(minimize=-var("a"))  # maximize a
        assert values["a"] == pytest.approx(0.5, abs=1e-6)

    def test_foreign_target_variable_rejected(self):
        poly = Polyhedron.from_box({"x": (0, 1)})
        enc = FarkasEncoder()
        with pytest.raises(ModelError):
            enc.encode_implication(poly, {"zz": LinExpr.constant(1)}, LinExpr.constant(0))

    def test_multiplier_names_fresh_across_calls(self):
        poly = Polyhedron.from_box({"x": (0, 1)})
        enc = FarkasEncoder()
        enc.encode_implication(poly, {"x": LinExpr.constant(1)}, var("c"))
        before = set(enc.multipliers)
        enc.encode_implication(poly, {"x": LinExpr.constant(1)}, var("c"))
        assert before < set(enc.multipliers)


class TestConeCondition:
    def test_d1_example(self):
        # cone {x <= 0, y <= 0}: alpha . v <= 0 on the cone iff alpha >= 0
        cone = Polyhedron.from_box({"x": (None, 0), "y": (None, 0)})
        enc = FarkasEncoder()
        block = enc.encode_cone_condition(
            cone, {"x": var("ax"), "y": var("ay")}, label="D1"
        )
        lp = LinearProgram()
        for c in block:
            (lp.add_le if c.relation == "<=" else lp.add_eq)(c.expr)
        values = lp.solve(minimize=var("ax") + var("ay"))
        # minimization pushes toward the boundary ax, ay >= 0
        assert values["ax"] >= -1e-7 and values["ay"] >= -1e-7

    def test_d1_rejects_negative_direction(self):
        cone = Polyhedron.from_box({"x": (None, 0)})
        enc = FarkasEncoder()
        block = enc.encode_cone_condition(cone, {"x": LinExpr.constant(-1)})
        lp = LinearProgram()
        for c in block:
            (lp.add_le if c.relation == "<=" else lp.add_eq)(c.expr)
        assert not lp.feasible()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_farkas_agrees_with_lp_implication(seed):
    """Farkas feasibility and the exact ``implies`` must both coincide with
    HiGHS's implication check on random nonempty polyhedra and random
    constant targets."""
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    names = [f"v{i}" for i in range(n)]
    poly = Polyhedron.from_box(
        {name: (rng.randint(-3, 0), rng.randint(0, 4)) for name in names}
    )
    target_coeffs = {name: Fraction(rng.randint(-2, 2)) for name in names}
    target_rhs = Fraction(rng.randint(-5, 10))
    ineq = AffineIneq.le(LinExpr(target_coeffs), target_rhs)
    status, value = highs_maximize(poly, ineq.expr)
    truth = status == "infeasible" or (status == "optimal" and value <= HIGHS_TOL)
    assert poly.implies(ineq) == truth

    enc = FarkasEncoder()
    block = enc.encode_implication(
        poly,
        {k: LinExpr.constant(v) for k, v in target_coeffs.items()},
        LinExpr.constant(target_rhs),
    )
    lp = LinearProgram()
    for c in block:
        (lp.add_le if c.relation == "<=" else lp.add_eq)(c.expr)
    assert lp.feasible() == truth
