"""Tests for the double description method and Minkowski decomposition.

The property tests cross-validate the V-representation against HiGHS on
the H-representation (through ``test_polyhedra``'s ``solve_lp`` helpers,
never through ``Polyhedron``'s own queries, which read these generators):
every generator must lie in the polyhedron / recession cone, and random
convex combinations of generators must lie in the polyhedron (soundness);
the LP optimum of a polytope must be attained at a vertex (completeness).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import (
    AffineIneq,
    Polyhedron,
    decompose,
    polyhedron_generators,
)
from repro.polyhedra.dd import cone_generators
from repro.polyhedra.linexpr import LinExpr, var
from test_polyhedra import HIGHS_TOL, highs_is_empty, highs_maximize


class TestConeGenerators:
    def test_full_space(self):
        lines, rays = cone_generators([], 2)
        assert len(lines) == 2 and not rays

    def test_halfspace(self):
        lines, rays = cone_generators([[Fraction(1), Fraction(0)]], 2)
        # {x <= 0}: one line (y axis) and one ray (-x)
        assert len(lines) == 1
        assert len(rays) == 1
        vec = rays[0][0]
        assert vec[0] < 0

    def test_negative_orthant(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        lines, rays = cone_generators(rows, 2)
        assert not lines
        vectors = sorted(r[0] for r in rays)
        assert vectors == [(-1, 0), (0, -1)]

    def test_pointed_cone_single_ray(self):
        # x <= 0 and -x <= 0 and y <= 0  ->  ray (0, -1)
        rows = [
            [Fraction(1), Fraction(0)],
            [Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(1)],
        ]
        lines, rays = cone_generators(rows, 2)
        assert not lines
        assert [r[0] for r in rays] == [(0, -1)]

    def test_trivial_cone(self):
        # x <= 0, -x <= 0, y <= 0, -y <= 0  ->  {0}
        rows = [
            [Fraction(1), Fraction(0)],
            [Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(-1)],
        ]
        lines, rays = cone_generators(rows, 2)
        assert not lines and not rays

    def test_row_length_validated(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            cone_generators([[Fraction(1)]], 2)


class TestPolyhedronGenerators:
    def test_paper_example_6(self):
        # Psi = {x <= 99, y <= 99} decomposes into the point (99, 99) plus
        # the cone {x <= 0, y <= 0} — exactly Example 6 of the paper.
        p = Polyhedron.from_box({"x": (None, 99), "y": (None, 99)})
        g = polyhedron_generators(p)
        assert g.points == [(99, 99)]
        assert sorted(g.rays) == [(-1, 0), (0, -1)]
        assert not g.lines

    def test_box_vertices(self):
        p = Polyhedron.from_box({"x": (0, 10), "y": (0, 5)})
        g = polyhedron_generators(p)
        assert g.is_polytope
        assert sorted(g.points) == [(0, 0), (0, 5), (10, 0), (10, 5)]

    def test_unconstrained_variable_becomes_line(self):
        p = Polyhedron.from_box({"x": (None, 99)}).with_variables(["x", "y"])
        g = polyhedron_generators(p)
        assert g.points == [(99, 0)]
        assert g.rays == [(-1, 0)]
        assert g.lines == [(0, 1)]

    def test_empty_polyhedron(self):
        p = Polyhedron.from_box({"x": (5, 3)})
        assert polyhedron_generators(p).is_empty

    def test_simplex(self):
        p = Polyhedron.from_box(
            {"x": (0, None), "y": (0, None), "z": (0, None)}
        ).and_ineqs([AffineIneq.le(var("x") + var("y") + var("z"), 6)])
        g = polyhedron_generators(p)
        assert sorted(g.points) == [(0, 0, 0), (0, 0, 6), (0, 6, 0), (6, 0, 0)]
        assert g.is_polytope

    def test_single_point(self):
        p = Polyhedron.from_box({"x": (3, 3)})
        g = polyhedron_generators(p)
        assert g.points == [(3,)]
        assert g.is_polytope

    def test_fractional_vertex(self):
        # x >= 0, y >= 0, 2x + 3y <= 1 has vertex (1/2, 0) and (0, 1/3)
        p = Polyhedron.from_box({"x": (0, None), "y": (0, None)}).and_ineqs(
            [AffineIneq.le(var("x") * 2 + var("y") * 3, 1)]
        )
        g = polyhedron_generators(p)
        assert sorted(g.points) == [
            (0, 0),
            (0, Fraction(1, 3)),
            (Fraction(1, 2), 0),
        ]

    def test_redundant_constraints_ignored(self):
        p = Polyhedron.from_box({"x": (0, 1)}).and_ineqs(
            [AffineIneq.le(var("x"), 10), AffineIneq.le(var("x"), 1)]
        )
        g = polyhedron_generators(p)
        assert sorted(g.points) == [(0,), (1,)]


class TestMinkowskiDecomposition:
    def test_verify_pass(self):
        p = Polyhedron.from_box({"x": (None, 99), "y": (None, 99)})
        d = decompose(p)
        assert d.verify()
        assert not d.cone_is_trivial
        assert d.polytope_points == [{"x": 99, "y": 99}]

    def test_polytope_has_trivial_cone(self):
        d = decompose(Polyhedron.from_box({"x": (0, 1)}))
        assert d.cone_is_trivial

    def test_empty(self):
        d = decompose(Polyhedron.from_box({"x": (1, 0)}))
        assert d.is_empty


def _random_polyhedron(rng, n_vars, n_cons):
    names = [f"v{i}" for i in range(n_vars)]
    ineqs = []
    for _ in range(n_cons):
        coeffs = {name: Fraction(rng.randint(-3, 3)) for name in names}
        ineqs.append(AffineIneq.le(LinExpr(coeffs), Fraction(rng.randint(-4, 8))))
    # keep things bounded below to get interesting vertex structure sometimes
    return Polyhedron(names, ineqs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generators_sound_random(seed):
    """Every reported generator must agree with the H-representation."""
    rng = random.Random(seed)
    poly = _random_polyhedron(rng, rng.randint(1, 3), rng.randint(1, 4))
    g = polyhedron_generators(poly)
    cone = poly.recession_cone()
    for p in g.points:
        assert poly.contains(dict(zip(g.variables, p)))
    for r in g.rays:
        assert cone.contains(dict(zip(g.variables, r)))
    for l in g.lines:
        assert cone.contains(dict(zip(g.variables, l)))
        assert cone.contains({k: -v for k, v in zip(g.variables, l)})
    # emptiness agrees with HiGHS, and so does the exact maximum
    assert g.is_empty == highs_is_empty(poly)
    objective = LinExpr({name: Fraction(rng.randint(-3, 3)) for name in g.variables})
    status, value = poly.maximize(objective)
    ref_status, ref_value = highs_maximize(poly, objective)
    assert status == ref_status
    if status == "optimal":
        assert abs(float(value) - ref_value) <= HIGHS_TOL
    # random convex combination + cone elements stay inside
    if g.points:
        weights = [rng.random() for _ in g.points]
        total = sum(weights)
        point = {
            v: sum(w * p[i] for w, p in zip(weights, g.points)) / total
            for i, v in enumerate(g.variables)
        }
        for r in g.rays:
            t = rng.random()
            for i, v in enumerate(g.variables):
                point[v] += t * float(r[i])
        assert poly.contains_float({k: float(x) for k, x in point.items()})


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_polytope_vertices_attain_lp_optimum(seed):
    """For bounded polyhedra, max of a linear objective is attained at a
    generator point (completeness of the vertex enumeration)."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    names = [f"v{i}" for i in range(n)]
    box = Polyhedron.from_box({name: (rng.randint(-3, 0), rng.randint(1, 4)) for name in names})
    extra = AffineIneq.le(
        LinExpr({name: Fraction(rng.randint(-2, 2)) for name in names}),
        Fraction(rng.randint(0, 6)),
    )
    poly = box.and_ineqs([extra])
    g = polyhedron_generators(poly)
    if g.is_empty:
        assert highs_is_empty(poly)
        return
    assert g.is_polytope
    objective = LinExpr({name: Fraction(rng.randint(-3, 3)) for name in names})
    status, lp_value = highs_maximize(poly, objective)
    assert status == "optimal"
    vertex_value = max(
        float(objective.evaluate(dict(zip(g.variables, p)))) for p in g.points
    )
    assert vertex_value == pytest.approx(lp_value, abs=1e-6)
