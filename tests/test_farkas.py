"""Tests for the implication rows: Lemma 2's "for all v in P: c.v <= d",
eliminated at P's generators (:meth:`GeneratorSet.implication_rows`)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.numeric.lp import LinearProgram
from repro.polyhedra import AffineIneq, Polyhedron
from repro.polyhedra.linexpr import LinExpr, var
from test_polyhedra import HIGHS_TOL, _agreement_case, highs_maximize


def _lp(poly, coeffs, rhs, label="t"):
    lp = LinearProgram()
    lp.add_rows(*poly.generators().implication_rows(coeffs, rhs, label))
    return lp


def _rows_hold(rows, assignment):
    """Exact check of ``(le_rows, eq_rows)`` at a rational assignment."""
    le, eq = rows
    return all(expr.evaluate(assignment) <= 0 for expr, _ in le) and all(
        expr.evaluate(assignment) == 0 for expr, _ in eq
    )


class TestFarkasImplication:
    def test_valid_implication_feasible(self):
        # forall x in [0, 10]: x <= c  should force c >= 10
        poly = Polyhedron.from_box({"x": (0, 10)})
        lp = _lp(poly, {"x": LinExpr.constant(1)}, var("c"))
        assert lp.feasible()
        values = lp.solve(minimize=var("c"))
        assert values["c"] == pytest.approx(10.0, abs=1e-6)

    def test_invalid_implication_infeasible(self):
        # forall x >= 0: x <= 5 is false and x-free: the ray (1) gives 1 <= 0
        poly = Polyhedron.from_box({"x": (0, None)})
        lp = _lp(poly, {"x": LinExpr.constant(1)}, LinExpr.constant(5))
        assert not lp.feasible()

    def test_unknown_coefficient_in_target(self):
        # forall x in [1, 2]: a*x <= 1  <=>  a <= 1/2 (for a >= 0 side)
        poly = Polyhedron.from_box({"x": (1, 2)})
        lp = _lp(poly, {"x": var("a")}, LinExpr.constant(1))
        values = lp.solve(minimize=-var("a"))  # maximize a
        assert values["a"] == pytest.approx(0.5, abs=1e-6)

    def test_foreign_target_variable_rejected(self):
        poly = Polyhedron.from_box({"x": (0, 1)})
        with pytest.raises(ModelError):
            poly.generators().implication_rows({"zz": LinExpr.constant(1)}, LinExpr.constant(0))

    def test_one_row_per_generator_and_no_new_unknowns(self):
        # x <= 99, y free: one point, one ray (-1, 0), one line (0, 1)
        poly = Polyhedron.from_box({"x": (None, 99)}).with_variables(["x", "y"])
        le, eq = poly.generators().implication_rows(
            {"x": var("a"), "y": var("b")}, var("d"), "t"
        )
        assert [label for _, label in le] == ["t:p0", "t:r0"]
        assert [label for _, label in eq] == ["t:l0"]
        assert le[0][0] == var("a") * 99 - var("d")
        assert le[1][0] == -var("a")
        assert eq[0][0] == var("b")

    def test_empty_premise_implies_everything(self):
        poly = Polyhedron.from_box({"x": (5, 3)})
        assert poly.generators().implication_rows(
            {"x": LinExpr.constant(1)}, LinExpr.constant(-100)
        ) == ([], [])

    def test_true_constant_rows_left_out(self):
        # forall x in [0, 1]: 0*x <= 1 holds outright; nothing to constrain
        poly = Polyhedron.from_box({"x": (0, 1)})
        assert poly.generators().implication_rows({}, LinExpr.constant(1)) == ([], [])
        # ... while a false constant stays, as an infeasible row
        le, _ = poly.generators().implication_rows({}, LinExpr.constant(-1))
        assert [expr for expr, _ in le] == [LinExpr.constant(1)] * 2


class TestConeCondition:
    def test_d1_example(self):
        # cone {x <= 0, y <= 0}: alpha . v <= 0 on the cone iff alpha >= 0
        cone = Polyhedron.from_box({"x": (None, 0), "y": (None, 0)}).generators().cone()
        lp = LinearProgram()
        lp.add_rows(
            *cone.implication_rows({"x": var("ax"), "y": var("ay")}, LinExpr.constant(0), "D1")
        )
        values = lp.solve(minimize=var("ax") + var("ay"))
        # minimization pushes toward the boundary ax, ay >= 0
        assert values["ax"] >= -1e-7 and values["ay"] >= -1e-7

    def test_d1_rejects_negative_direction(self):
        cone = Polyhedron.from_box({"x": (None, 0)}).generators().cone()
        lp = LinearProgram()
        lp.add_rows(*cone.implication_rows({"x": LinExpr.constant(-1)}, LinExpr.constant(0)))
        assert not lp.feasible()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_farkas_agrees_with_lp_implication(seed):
    """The implication rows agree with HiGHS's implication check, on random
    polyhedra with rays and lines (``test_polyhedra``'s agreement cases)
    and on targets with unknowns: ``(k + m*a) . v <= b + e``.

    * a constant target: the rows are feasible iff HiGHS implies it, and
      so does the exact ``implies``;
    * ``b`` unknown: the least ``b`` the rows admit is HiGHS's maximum of
      ``k . v - e`` (none when that is unbounded);
    * rational ``(a, b)``: the rows hold exactly iff HiGHS implies the
      target instantiated there.
    """
    rng = random.Random(seed)
    kind, poly = _agreement_case(rng, rng.randrange(5, 200))
    names = poly.variables
    k = {v: Fraction(rng.randint(-2, 2)) for v in names}
    m = {v: Fraction(rng.randint(-2, 2)) for v in names}
    e = Fraction(rng.randint(-5, 10), rng.choice((1, 2)))
    context = f"{kind}: {poly}; k={k}, m={m}, e={e}"

    def truth(a, b):
        objective = LinExpr({v: k[v] + m[v] * a for v in names}, -b - e)
        status, value = highs_maximize(poly, objective)
        return status == "infeasible" or (status == "optimal" and value <= HIGHS_TOL)

    constant = {v: LinExpr.constant(k[v]) for v in names}
    expected = truth(0, 0)
    assert poly.implies(AffineIneq.le(LinExpr(k), e)) == expected, context
    assert _lp(poly, constant, LinExpr.constant(e)).feasible() == expected, context

    if not poly.is_empty():
        status, value = highs_maximize(poly, LinExpr(k, -e))
        lp = _lp(poly, constant, var("b") + e)
        if status == "unbounded":
            assert not lp.feasible(), context
        else:
            least = lp.solve(minimize=var("b"))["b"]
            assert least == pytest.approx(value, abs=1e-6), context

    rows = poly.generators().implication_rows(
        {v: k[v] + m[v] * var("a") for v in names}, var("b") + e
    )
    for _ in range(4):
        a = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        b = Fraction(rng.randint(-12, 12), rng.choice((1, 3)))
        assert _rows_hold(rows, {"a": a, "b": b}) == truth(a, b), (context, a, b)
