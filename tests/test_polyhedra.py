"""Tests for affine inequalities and H-representation polyhedra.

The exact queries (emptiness, boundedness, maximization) are checked
against HiGHS through :func:`highs_maximize` and friends, which call
``solve_lp`` directly; the other suites that need an LP oracle for a
polyhedron import them from here, so no test compares the double
description with itself.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.polyhedra.dd as dd_module
from repro.errors import ModelError
from repro.numeric.lp import solve_lp
from repro.polyhedra import AffineIneq, LinExpr, Polyhedron
from repro.polyhedra.linexpr import var

#: fixed before looking at any result: HiGHS's primal feasibility tolerance
#: is 1e-7, and every case below has small rational data
HIGHS_TOL = 1e-7


# -- the HiGHS reference ------------------------------------------------------------


def _highs(poly, objective, bounds=None):
    """HiGHS's ``max objective`` over ``poly`` (within ``bounds``); a
    zero-dimensional polyhedron gets one unconstrained, unused column."""
    m, d = poly.matrix_form()
    pad = [0.0] * (len(poly.variables) == 0)
    a_ub = [[float(x) for x in row] + pad for row in m]
    c = [-float(objective.coeff(v)) for v in poly.variables] + pad
    result = solve_lp(c, a_ub, [float(x) for x in d], bounds=bounds)
    if result.status == "optimal":
        return "optimal", -result.objective + float(objective.const)
    return result.status, None


def highs_is_empty(poly):
    """True iff HiGHS finds ``poly`` infeasible."""
    return _highs(poly, LinExpr.constant(0))[0] == "infeasible"


def highs_maximize(poly, objective):
    """``(status, value)`` of ``max objective`` over ``poly`` by HiGHS.

    Feasibility is decided first, then unboundedness as a bounded LP: the
    objective is unbounded iff it rises along the recession cone within
    the unit box.  Asked directly, HiGHS's presolve reports max -x0 over
    the thin unbounded slab 5 - 1/999983 <= 3x0 - x1 - 2x2 <= 5 as
    infeasible.
    """
    if highs_is_empty(poly):
        return "infeasible", None
    unit = [(-1.0, 1.0)] * len(poly.variables) or None
    _, rise = _highs(poly.recession_cone(), objective - objective.const, unit)
    if rise > HIGHS_TOL:
        return "unbounded", None
    return _highs(poly, objective)


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
        assert Polyhedron.from_box({"x": (0, 1), "y": (0, 1)}).generators().is_polytope
        assert not Polyhedron.from_box({"x": (0, None)}).generators().is_polytope
        assert Polyhedron.from_box({"x": (5, 3)}).generators().is_polytope  # empty


@settings(max_examples=30, deadline=None)
@given(
    lo=st.integers(min_value=-5, max_value=5),
    width=st.integers(min_value=0, max_value=10),
    x=st.integers(min_value=-20, max_value=20),
)
def test_box_membership_matches_interval(lo, width, x):
    p = Polyhedron.from_box({"x": (lo, lo + width)})
    assert p.contains({"x": x}) == (lo <= x <= lo + width)


# -- exact queries against HiGHS ----------------------------------------------------

#: fz-lattice-strain's lattice step: slabs this thin are nonempty, and
#: polyhedra empty by this much are empty, for both engines
STEP = Fraction(1, 999983)
KINDS = (
    "random", "constant-false", "equality", "slab", "empty-by-step", "unbounded", "lines", "box"
)


def _agreement_case(rng, case):
    """Case ``case``: 0-4 variables, and one kind of structure from ``KINDS``."""
    names = [f"x{i}" for i in range(case % 5)]
    kind = KINDS[(case // 5) % len(KINDS)]

    def expr(among=names):
        return LinExpr({v: rng.randint(-3, 3) for v in among})

    def const():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))

    rows = [AffineIneq.le(expr(), const()) for _ in range(rng.randint(0, 3))]
    if kind == "constant-false":
        rows.append(AffineIneq(LinExpr.constant(rng.choice((STEP, Fraction(1))))))
    elif kind == "equality":
        rows.extend(AffineIneq.eq_pair(expr(), const()))
    elif kind in ("slab", "empty-by-step"):
        a, c = expr(), const()
        width = STEP if kind == "slab" else -STEP
        rows += [AffineIneq.ge(a, c), AffineIneq.le(a, c + width)]
    elif kind == "unbounded":
        rows = [AffineIneq.ge(var(v), const()) for v in names]
    elif kind == "lines":  # the last coordinate is free, and so is (1, 1) in (x0, x1)
        among = names[:-1]
        rows = [AffineIneq.le(expr(among), const()) for _ in range(rng.randint(1, 3))]
        if len(among) >= 2:
            x0, x1 = among[:2]
            rows = [
                AffineIneq(r.expr - (r.expr.coeff(x0) + r.expr.coeff(x1)) * var(x1)) for r in rows
            ]
    elif kind == "box":
        for v in names:
            lo = const()
            rows += [AffineIneq.ge(var(v), lo), AffineIneq.le(var(v), lo + rng.randint(0, 4))]
    return kind, Polyhedron(names, rows)


def test_exact_queries_agree_with_highs():
    rng = random.Random(20261018)
    seen = {"empty": 0, "thin": 0, "unbounded": 0, "lines": 0, "bounded": 0}
    for case in range(120):
        kind, poly = _agreement_case(rng, case)
        context = f"case {case} ({kind}): {poly}"
        empty = highs_is_empty(poly)
        assert poly.is_empty() == empty, context
        axes = [LinExpr({v: sign}) for v in poly.variables for sign in (1, -1)]
        mixed = [
            LinExpr({v: rng.randint(-3, 3) for v in poly.variables}, const) for const in (0, 7)
        ]
        ref_statuses = []
        for objective in axes + mixed:
            status, value = poly.maximize(objective)
            ref_status, ref_value = highs_maximize(poly, objective)
            ref_statuses.append(ref_status)
            assert status == ref_status, (context, objective)
            if status == "optimal":
                assert isinstance(value, Fraction)
                assert abs(float(value) - ref_value) <= HIGHS_TOL, (context, objective)
            assert poly.implies(AffineIneq(objective)) == (
                status == "infeasible" or (status == "optimal" and value <= 0)
            )
        # bounded (or empty) iff HiGHS bounds every coordinate both ways
        bounded = "unbounded" not in ref_statuses[: len(axes)]
        gens = poly.generators()
        assert gens.is_polytope == bounded, context
        seen["empty"] += empty
        seen["thin"] += kind == "slab" and not empty
        seen["unbounded"] += not bounded
        seen["lines"] += bool(gens.points and gens.lines)
        seen["bounded"] += bounded and not empty
    assert min(seen.values()) >= 5, seen


# -- emptiness by bound propagation against the double description ------------------

EMPTINESS_KINDS = ("bounds", "one-coupled", "constant-false", "equality", "unbounded", "slab", "coupled")


def _coupled_count(poly):
    return sum(1 for ineq in poly.inequalities if len(ineq.variables()) > 1)


def _emptiness_case(rng, case):
    """Case ``case``: 0-4 variables and one kind from ``EMPTINESS_KINDS``.
    Every kind but ``coupled`` has at most one atom over two or more
    variables; a ``one-coupled`` atom's constant sits within a unit of the
    box's minimum, so the atom alone decides about half of them."""
    names = [f"x{i}" for i in range(case % 5)]
    kind = EMPTINESS_KINDS[(case // 5) % len(EMPTINESS_KINDS)]

    def const():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))

    def coupled_expr():
        among = rng.sample(names, 2) if len(names) >= 2 else names
        return LinExpr({v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in among})

    box = {}
    for v in names:
        lo = const()
        box[v] = (lo, lo + rng.randint(-1, 4))
    rows = [
        AffineIneq.ge(var(v), lo) for v, (lo, _) in box.items() if rng.random() < 0.9
    ] + [AffineIneq.le(var(v), hi) for v, (_, hi) in box.items() if rng.random() < 0.9]
    if kind == "one-coupled" and len(names) >= 2:
        bounded = [v for v in names if box[v][0] <= box[v][1]]
        rows = [AffineIneq.ge(var(v), box[v][0]) for v in bounded]
        rows += [AffineIneq.le(var(v), box[v][1]) for v in bounded]
        e = LinExpr({v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in rng.sample(bounded, min(2, len(bounded)))})
        low = sum((a * (box[v][0] if a > 0 else box[v][1]) for v, a in e.iter_coeffs()), Fraction(0))
        rows.append(AffineIneq.le(e, low + rng.choice((-1, -STEP, 0, STEP, 1))))
    elif kind == "constant-false":
        rows.append(AffineIneq(LinExpr.constant(rng.choice((STEP, Fraction(1))))))
    elif kind == "equality":
        for v in names[:2]:
            rows.extend(AffineIneq.eq_pair(var(v), const()))
        if len(names) >= 2:
            rows.append(AffineIneq.le(coupled_expr(), const()))
    elif kind == "unbounded":
        rows = [AffineIneq.ge(var(v), const()) for v in names[1:]]
        if len(names) >= 2:
            rows.append(AffineIneq.le(coupled_expr(), const()))
    elif kind == "slab":
        for v in names[:2]:
            c = const()
            width = rng.choice((STEP, -STEP))
            rows += [AffineIneq.ge(var(v), c), AffineIneq.le(var(v), c + width)]
    elif kind == "coupled":
        rows += [AffineIneq.le(coupled_expr(), const()) for _ in range(rng.randint(2, 3))]
        if len(names) >= 2 and rng.random() < 0.5:
            rows.extend(AffineIneq.eq_pair(coupled_expr(), const()))
    return kind, Polyhedron(names, rows)


@pytest.fixture
def dd_calls(monkeypatch):
    """The polyhedra every double description run is asked for."""
    calls = []
    original = dd_module.polyhedron_generators

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(dd_module, "polyhedron_generators", counting)
    return calls


class TestEmptinessByBoundPropagation:
    def test_seeded_polyhedra_agree_with_the_double_description(self, dd_calls):
        rng = random.Random(20261020)
        seen = {"propagated": 0, "propagated-empty": 0, "coupled-decides": 0, "dd": 0}
        for case in range(1_400):
            kind, poly = _emptiness_case(rng, case)
            twin = Polyhedron(poly.variables, poly.inequalities)
            before = len(dd_calls)
            empty = poly.is_empty()
            ran_dd = len(dd_calls) - before
            expected = not twin.generators().points
            context = f"case {case} ({kind}): {poly}"
            assert empty == expected, context
            if _coupled_count(poly) <= 1:
                assert ran_dd == 0, context
                seen["propagated"] += 1
                seen["propagated-empty"] += empty
                bounds_only = Polyhedron(
                    poly.variables, [i for i in poly.inequalities if len(i.variables()) <= 1]
                )
                seen["coupled-decides"] += empty and not bounds_only.is_empty()
            else:
                assert ran_dd == 1, context
                assert poly.generators() is poly.generators()  # memoized by the query
                seen["dd"] += 1
        assert seen["propagated-empty"] >= 100 and seen["propagated"] - seen["propagated-empty"] >= 100, seen
        assert seen["coupled-decides"] >= 40 and seen["dd"] >= 100, seen

    def test_two_coupled_atoms_reach_the_double_description(self, dd_calls):
        x, y = var("x"), var("y")
        one = Polyhedron(["x", "y"], [AffineIneq.le(x + y, 1), AffineIneq.ge(x, 0)])
        two = Polyhedron(["x", "y"], [AffineIneq.le(x + y, 1), AffineIneq.ge(x - y, 3)])
        assert not one.is_empty() and not dd_calls
        assert not two.is_empty() and len(dd_calls) == 1
        two.generators()
        assert len(dd_calls) == 1  # the emptiness query left its generators memoized

    def test_memoized_generators_answer_first(self, dd_calls):
        poly = Polyhedron.from_box({"x": (5, 3)})
        assert not poly.generators().points and len(dd_calls) == 1
        assert poly.is_empty() and len(dd_calls) == 1

    def test_false_constant_atom_and_zero_dimensions(self, dd_calls):
        assert not Polyhedron([], []).is_empty()
        assert Polyhedron([], [AffineIneq(LinExpr.constant(STEP))]).is_empty()
        assert Polyhedron(["x"], [AffineIneq(LinExpr.constant(1))]).is_empty()
        assert not dd_calls
        assert not dd_module.polyhedron_generators(Polyhedron([], [])).is_empty
