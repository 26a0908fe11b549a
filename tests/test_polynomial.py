"""Tests for the polynomial-exponent extension (Handelman, Remarks 3/5)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.numeric.lp import LinearProgram
from repro.polyhedra import Polyhedron
from repro.polyhedra.linexpr import LinExpr, var
from repro.core.polynomial import (
    Polynomial,
    handelman_constraints,
    polynomial_hoeffding_synthesis,
)


class TestPolynomialArithmetic:
    def test_constant_and_variable(self):
        p = Polynomial.variable("x") + Polynomial.constant(3)
        assert p.degree() == 1
        assert p.evaluate({"x": 2.0}, {}) == 5.0

    def test_product_degree(self):
        x = Polynomial.variable("x")
        assert (x * x * x).degree() == 3

    def test_multiplication_distributes(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = (x + y) * (x - y)
        assert p.evaluate({"x": 3.0, "y": 2.0}, {}) == pytest.approx(5.0)

    def test_zero_coefficients_dropped(self):
        x = Polynomial.variable("x")
        p = x - x
        assert p.terms == {}
        assert p.degree() == 0

    def test_unknown_times_unknown_rejected(self):
        a = Polynomial({(): LinExpr.variable("a")})
        with pytest.raises(ModelError):
            _ = a * a

    def test_from_linexpr(self):
        p = Polynomial.from_linexpr(var("x") * 2 + 1)
        assert p.evaluate({"x": 3.0}, {}) == 7.0

    def test_substitute_affine(self):
        # (x + 1)^2 under x -> 2y equals 4y^2 + 4y + 1
        x = Polynomial.variable("x")
        p = (x + Polynomial.constant(1)) * (x + Polynomial.constant(1))
        q = p.substitute_affine({"x": var("y") * 2})
        assert q.evaluate({"y": 3.0}, {}) == pytest.approx(49.0)
        assert q.degree() == 2

    def test_unknown_coefficients_evaluate(self):
        p = Polynomial({(("x", 1),): LinExpr.variable("a")})
        assert p.evaluate({"x": 4.0}, {"a": 0.5}) == 2.0

    @given(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    def test_add_commutes_pointwise(self, vx, vy):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = x * x + y.scale(2)
        q = y * y - x
        val = {"x": float(vx), "y": float(vy)}
        assert (p + q).evaluate(val, {}) == pytest.approx((q + p).evaluate(val, {}))


class TestHandelman:
    def test_true_positivity_feasible(self):
        # x (10 - x) >= 0 on [0, 10]
        x = Polynomial.variable("x")
        lp = LinearProgram()
        handelman_constraints(
            x.scale(10) - x * x, Polyhedron.from_box({"x": (0, 10)}), lp, 2, "t"
        )
        assert lp.feasible()

    def test_false_positivity_infeasible(self):
        lp = LinearProgram()
        handelman_constraints(
            Polynomial.variable("x") - Polynomial.constant(5),
            Polyhedron.from_box({"x": (0, 10)}),
            lp,
            3,
            "t",
        )
        assert not lp.feasible()

    def test_unbounded_premise_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ModelError):
            handelman_constraints(
                Polynomial.variable("x"),
                Polyhedron.from_box({"x": (0, None)}),
                lp,
                2,
                "t",
            )

    def test_two_dimensional(self):
        # (x + y) >= 0 on [0,1]^2
        lp = LinearProgram()
        target = Polynomial.variable("x") + Polynomial.variable("y")
        handelman_constraints(target, Polyhedron.from_box({"x": (0, 1), "y": (0, 1)}), lp, 2, "t")
        assert lp.feasible()

    def test_degree_budget_matters(self):
        # x^2 - x + 0.3 > 0 on [0,1] (positivity margin 0.05): Handelman
        # certificates exist from degree 6 up but not below — the degree
        # budget is a real knob, growing as the margin shrinks
        x = Polynomial.variable("x")
        target = x * x - x + Polynomial.constant(Fraction(30, 100))
        box = Polyhedron.from_box({"x": (0, 1)})
        lp_low = LinearProgram()
        handelman_constraints(target, box, lp_low, 3, "lo")
        assert not lp_low.feasible()
        lp_high = LinearProgram()
        handelman_constraints(target, box, lp_high, 6, "hi")
        assert lp_high.feasible()


class TestPolynomialSynthesis:
    # x0 = 35 once came back vacuous: the eps bracket grew past the feasible
    # range and the ternary search walked away from it
    @pytest.mark.parametrize("x0", [35, 40])
    def test_race_matches_affine(self, x0):
        from repro.core import hoeffding_synthesis
        from repro.programs import get_benchmark

        inst = get_benchmark("Race", x0=x0, y0=0)
        poly = polynomial_hoeffding_synthesis(
            inst.pts, inst.invariants, degree=2, verify=True
        )
        affine = hoeffding_synthesis(inst.pts, inst.invariants)
        # degree-2 templates are a superset: at least as tight
        assert poly.log_bound <= affine.log_bound + 0.5
        assert poly.method == "polynomial-hoeffding"
        assert "Handelman" in poly.solver_info

    def test_sampling_variables_rejected(self):
        from repro.lang import compile_source

        src = "r ~ bernoulli(0.5)\nx := 0\nn := 0\nwhile n <= 9:\n  x, n := x + r, n + 1\nassert x <= 8"
        pts = compile_source(src, name="acc").pts
        with pytest.raises(ModelError):
            polynomial_hoeffding_synthesis(pts)

    def test_polynomial_templates_recorded(self):
        from repro.programs import get_benchmark

        inst = get_benchmark("Race", x0=40, y0=0)
        cert = polynomial_hoeffding_synthesis(inst.pts, inst.invariants, degree=2)
        assert hasattr(cert, "polynomial_templates")
        head = inst.pts.init_location
        assert cert.polynomial_templates[head].degree() <= 2
