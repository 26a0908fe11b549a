"""Tests for exact affine expressions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.polyhedra.linexpr import LinExpr, const, var


def small_linexprs():
    names = st.sampled_from(["x", "y", "z"])
    coeffs = st.dictionaries(names, st.fractions(max_denominator=10), max_size=3)
    constants = st.fractions(max_denominator=10)
    return st.builds(LinExpr, coeffs, constants)


class TestConstruction:
    def test_zero_coeffs_dropped(self):
        e = LinExpr({"x": 0, "y": 2})
        assert e.variables() == ("y",)

    def test_var_and_const_helpers(self):
        assert var("x").coeff("x") == 1
        assert const(5).const == 5
        assert const(5).is_constant

    def test_coerce_number(self):
        assert LinExpr.coerce(3) == const(3)

    def test_coerce_passthrough(self):
        e = var("x")
        assert LinExpr.coerce(e) is e

    def test_float_coefficients_exact(self):
        e = LinExpr({"x": 0.5})
        assert e.coeff("x") == Fraction(1, 2)


class TestArithmetic:
    def test_add(self):
        e = var("x") + var("y") + 3
        assert e.coeff("x") == 1 and e.coeff("y") == 1 and e.const == 3

    def test_add_cancels(self):
        e = var("x") - var("x")
        assert e.is_zero

    def test_radd_rsub(self):
        e = 1 + var("x")
        assert e.const == 1
        e2 = 1 - var("x")
        assert e2.coeff("x") == -1 and e2.const == 1

    def test_scalar_mul_div(self):
        e = (var("x") * 3) / 2
        assert e.coeff("x") == Fraction(3, 2)

    def test_div_zero(self):
        with pytest.raises(ZeroDivisionError):
            var("x") / 0

    @given(small_linexprs(), small_linexprs())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(small_linexprs())
    def test_neg_involution(self, a):
        assert -(-a) == a

    @given(small_linexprs(), st.fractions(max_denominator=5))
    def test_mul_distributes_over_eval(self, a, k):
        val = {"x": 2, "y": 3, "z": 5}
        assert (a * k).evaluate(val) == a.evaluate(val) * k


class TestSemantics:
    def test_evaluate_exact(self):
        e = LinExpr({"x": Fraction(1, 3)}, 1)
        assert e.evaluate({"x": 3}) == 2

    def test_evaluate_missing_variable(self):
        with pytest.raises(KeyError):
            var("x").evaluate({})

    def test_evaluate_float(self):
        e = var("x") * 2 + 1
        assert e.evaluate_float({"x": 0.5}) == pytest.approx(2.0)

    def test_substitute_affine(self):
        e = var("x") * 2 + var("y")
        out = e.substitute({"x": var("y") + 1})
        assert out == var("y") * 3 + 2

    def test_substitute_partial(self):
        e = var("x") + var("y")
        out = e.substitute({"x": const(1)})
        assert out == var("y") + 1

    def test_restrict(self):
        e = var("x") + var("y") * 2 + 7
        r = e.restrict(["y"])
        assert r == var("y") * 2

    @given(small_linexprs())
    def test_substitution_identity(self, e):
        out = e.substitute({v: var(v) for v in e.variables()})
        assert out == e


def _fold_substitute(expr, mapping):
    """The reference: one ``LinExpr`` addition per term."""
    result = LinExpr.constant(expr.const)
    for name, coeff in expr.iter_coeffs():
        if name in mapping:
            result = result + LinExpr.coerce(mapping[name]) * coeff
        else:
            result = result + LinExpr({name: coeff})
    return result


def _layout(expr):
    """Everything a caller can observe: coefficient order, values and
    types, and the constant with its type."""
    items = [(name, coeff, type(coeff)) for name, coeff in expr.iter_coeffs()]
    return items, expr.const, type(expr.const)


class TestSubstituteMatchesTheFold:
    def test_cancelled_variable_reappears_at_the_end(self):
        e = var("a") + var("b") + var("c")
        mapping = {"a": var("x") + var("y"), "b": -var("x"), "c": var("x")}
        out = e.substitute(mapping)
        assert [name for name, _ in out.iter_coeffs()] == ["y", "x"]
        assert _layout(out) == _layout(_fold_substitute(e, mapping))

    def test_seeded_substitutions(self):
        rng = random.Random(20261020)
        names = ["a", "b", "c", "x", "y", "z"]

        def coeff():
            return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

        def expr():
            among = rng.sample(names, rng.randint(0, 4))
            return LinExpr({v: coeff() for v in among}, coeff())

        for case in range(3_000):
            e = expr()
            mapping = {}
            for v in rng.sample(names, rng.randint(0, 6)):
                kind = rng.random()
                if kind < 0.15:
                    mapping[v] = rng.randint(-2, 2)  # a number, coerced
                elif kind < 0.3:
                    mapping[v] = -e.coeff(v) * var(rng.choice(names)) / 2 if e.coeff(v) else var(v)
                else:
                    mapping[v] = expr()
            out = e.substitute(mapping)
            assert _layout(out) == _layout(_fold_substitute(e, mapping)), (case, e, mapping)


class TestStructure:
    def test_ordered_key_tells_coefficient_orders_apart(self):
        xy, yx = LinExpr({"x": 1, "y": 2}, 3), LinExpr({"y": 2, "x": 1}, 3)
        assert xy == yx and xy.ordered_key() != yx.ordered_key()
        assert xy.ordered_key() == LinExpr({"x": 1, "y": 2}, 3).ordered_key()
        assert xy.ordered_key() != LinExpr({"x": 1, "y": 2}, 4).ordered_key()

    def test_hash_consistent_with_eq(self):
        a = var("x") + 1
        b = LinExpr({"x": 1}, 1)
        assert a == b and hash(a) == hash(b)

    def test_str_renders_signs(self):
        e = var("x") - var("y") * 2 - 3
        s = str(e)
        assert "x" in s and "2*y" in s and "3" in s

    def test_str_zero(self):
        assert str(LinExpr()) == "0"

    def test_eq_other_type(self):
        assert (var("x") == 42) is False
