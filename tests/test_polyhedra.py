"""Tests for affine inequalities and H-representation polyhedra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.polyhedra import AffineIneq, Polyhedron
from repro.polyhedra.linexpr import var


class TestAffineIneq:
    def test_le(self):
        ineq = AffineIneq.le(var("x"), 5)
        assert ineq.holds({"x": 5})
        assert not ineq.holds({"x": 6})

    def test_ge(self):
        ineq = AffineIneq.ge(var("x"), 5)
        assert ineq.holds({"x": 5})
        assert not ineq.holds({"x": 4})

    def test_eq_pair(self):
        lo, hi = AffineIneq.eq_pair(var("x"), 2)
        assert lo.holds({"x": 2}) and hi.holds({"x": 2})
        assert not (lo.holds({"x": 3}) and hi.holds({"x": 3}))
        assert not (lo.holds({"x": 1}) and hi.holds({"x": 1}))

    def test_negate_strict_real(self):
        ineq = AffineIneq.le(var("x"), 5)
        neg = ineq.negate_strict()
        assert neg.holds({"x": 5})  # closed complement overlaps at boundary
        assert neg.holds({"x": 6})
        assert not neg.holds({"x": 4})

    def test_negate_strict_integer_gap(self):
        ineq = AffineIneq.le(var("x"), 5)
        neg = ineq.negate_strict(Fraction(1))
        assert not neg.holds({"x": 5})
        assert neg.holds({"x": 6})

    def test_holds_float(self):
        ineq = AffineIneq.le(var("x"), 1)
        assert ineq.holds_float({"x": 1.0 + 1e-12})

    def test_str(self):
        assert "<=" in str(AffineIneq.le(var("x"), 1))


class TestPolyhedronBasics:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ModelError):
            Polyhedron(["x", "x"])

    def test_foreign_constraint_rejected(self):
        with pytest.raises(ModelError):
            Polyhedron(["x"], [AffineIneq.le(var("y"), 0)])

    def test_universe_contains_everything(self):
        u = Polyhedron.universe(["x", "y"])
        assert u.contains({"x": 1000, "y": -1000})
        assert not u.is_empty()

    def test_from_box(self):
        p = Polyhedron.from_box({"x": (0, 10)})
        assert p.contains({"x": 0}) and p.contains({"x": 10})
        assert not p.contains({"x": 11}) and not p.contains({"x": -1})

    def test_from_box_open_sides(self):
        p = Polyhedron.from_box({"x": (None, 10)})
        assert p.contains({"x": -(10**9)})

    def test_with_variables_embedding(self):
        p = Polyhedron.from_box({"x": (0, 1)}).with_variables(["x", "y"])
        assert p.variables == ("x", "y")

    def test_with_variables_cannot_drop(self):
        p = Polyhedron.from_box({"x": (0, 1)})
        with pytest.raises(ModelError):
            p.with_variables(["y"])

    def test_intersect_merges_vars(self):
        a = Polyhedron.from_box({"x": (0, 10)})
        b = Polyhedron.from_box({"y": (0, 5)})
        c = a.intersect(b)
        assert set(c.variables) == {"x", "y"}
        assert c.contains({"x": 1, "y": 1})
        assert not c.contains({"x": 1, "y": 6})

    def test_matrix_form(self):
        p = Polyhedron(["x", "y"], [AffineIneq.le(var("x") + var("y") * 2, 3)])
        m, d = p.matrix_form()
        assert m == [[Fraction(1), Fraction(2)]]
        assert d == [Fraction(3)]

    def test_recession_cone_drops_constants(self):
        p = Polyhedron.from_box({"x": (None, 99)})
        cone = p.recession_cone()
        assert cone.contains({"x": -5})
        assert not cone.contains({"x": 5})
        assert cone.contains({"x": 0})


class TestPolyhedronLPQueries:
    def test_is_empty_true(self):
        assert Polyhedron.from_box({"x": (5, 3)}).is_empty()

    def test_is_empty_false(self):
        assert not Polyhedron.from_box({"x": (3, 5)}).is_empty()

    def test_maximize_optimal(self):
        p = Polyhedron.from_box({"x": (0, 10)})
        status, value = p.maximize(var("x") * 2 + 1)
        assert status == "optimal"
        assert value == pytest.approx(21.0)

    def test_maximize_unbounded(self):
        p = Polyhedron.from_box({"x": (0, None)})
        status, _ = p.maximize(var("x"))
        assert status == "unbounded"

    def test_implies(self):
        p = Polyhedron.from_box({"x": (0, 10)})
        assert p.implies(AffineIneq.le(var("x"), 10))
        assert p.implies(AffineIneq.le(var("x"), 12))
        assert not p.implies(AffineIneq.le(var("x"), 9))

    def test_empty_implies_everything(self):
        p = Polyhedron.from_box({"x": (5, 3)})
        assert p.implies(AffineIneq.le(var("x"), -100))

    def test_is_bounded(self):
        assert Polyhedron.from_box({"x": (0, 1), "y": (0, 1)}).is_bounded()
        assert not Polyhedron.from_box({"x": (0, None)}).is_bounded()
        assert Polyhedron.from_box({"x": (5, 3)}).is_bounded()  # empty


@settings(max_examples=30, deadline=None)
@given(
    lo=st.integers(min_value=-5, max_value=5),
    width=st.integers(min_value=0, max_value=10),
    x=st.integers(min_value=-20, max_value=20),
)
def test_box_membership_matches_interval(lo, width, x):
    p = Polyhedron.from_box({"x": (lo, lo + width)})
    assert p.contains({"x": x}) == (lo <= x <= lo + width)
