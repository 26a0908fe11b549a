"""Tests for the double description method and Minkowski decomposition.

The property tests cross-validate the V-representation against HiGHS on
the H-representation (through ``test_polyhedra``'s ``solve_lp`` helpers,
never through ``Polyhedron``'s own queries, which read these generators):
every generator must lie in the polyhedron / recession cone, and random
convex combinations of generators must lie in the polyhedron (soundness);
the LP optimum of a polytope must be attained at a vertex (completeness).
The integer double description is also held to a ``Fraction`` reference
implementation of the same algorithm, step for step.
"""

import random
from fractions import Fraction
from math import gcd

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
from repro.utils.numbers import fraction_gcd
from test_polyhedra import HIGHS_TOL, _agreement_case, highs_is_empty, highs_maximize


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


# -- the Fraction reference ------------------------------------------------------------
#
# The double description as it ran on ``Fraction`` vectors: the same pivots,
# partitions, adjacency test and deduplication as ``dd.cone_generators``,
# with rays scaled to integral gcd-1 ``Fraction`` vectors and lines left
# unscaled.


def _ref_normalize(row):
    g = fraction_gcd(row)
    return list(row) if g == 0 else [v / g for v in row]


def _ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _ref_scale_sub(vec, pivot, factor):
    return tuple(v - factor * p for v, p in zip(vec, pivot))


def _ref_dedupe(rays):
    seen = {}
    for vec, zero_set in rays:
        seen[vec] = seen[vec] | zero_set if vec in seen else zero_set
    return list(seen.items())


def _ref_adjacent(vec_a, vec_b, common, rays):
    for vec, zero_set in rays:
        if vec == vec_a or vec == vec_b:
            continue
        if common <= zero_set:
            return False
    return True


def reference_cone_generators(rows, dim):
    lines = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, raw_row in enumerate(rows):
        row = tuple(Fraction(x) for x in raw_row)
        pivot_pos = next((k for k, l in enumerate(lines) if _ref_dot(row, l) != 0), None)
        if pivot_pos is not None:
            pivot = lines.pop(pivot_pos)
            val0 = _ref_dot(row, pivot)
            if val0 < 0:
                pivot = tuple(-x for x in pivot)
                val0 = -val0
            lines = [_ref_scale_sub(l, pivot, _ref_dot(row, l) / val0) for l in lines]
            adjusted = []
            for vec, zero_set in rays:
                vec2 = _ref_scale_sub(vec, pivot, _ref_dot(row, vec) / val0)
                adjusted.append((tuple(_ref_normalize(vec2)), zero_set | {idx}))
            neg_pivot = tuple(_ref_normalize(tuple(-x for x in pivot)))
            adjusted.append((neg_pivot, frozenset(range(idx))))
            rays = _ref_dedupe(adjusted)
            continue
        pos, neg, zero = [], [], []
        for vec, zero_set in rays:
            val = _ref_dot(row, vec)
            if val > 0:
                pos.append((vec, zero_set, val))
            elif val < 0:
                neg.append((vec, zero_set, val))
            else:
                zero.append((vec, zero_set | {idx}))
        if not pos:
            rays = _ref_dedupe([(v, zs) for (v, zs, _) in neg] + zero)
            continue
        current = rays
        new_rays = [(v, zs) for (v, zs, _) in neg] + zero
        for pvec, pzs, pval in pos:
            for nvec, nzs, nval in neg:
                common = pzs & nzs
                if not _ref_adjacent(pvec, nvec, common, current):
                    continue
                combo = tuple(pval * nv - nval * pv for pv, nv in zip(pvec, nvec))
                combo = tuple(_ref_normalize(combo))
                if all(x == 0 for x in combo):
                    continue
                new_rays.append((combo, common | {idx}))
        rays = _ref_dedupe(new_rays)
    return lines, rays


#: denominators of the seeded rows, up to fz-lattice-strain's lattice step
DENOMINATORS = (1, 1, 2, 3, 7, 10, 999983)


def test_integer_dd_matches_the_fraction_reference():
    """400 seeded homogenized polyhedra over 1-4 variables: the integer
    double description returns the reference's lines (up to the positive
    scale the reference never normalizes), rays and zero sets, in order,
    and its generator sets are the reference's dehomogenized."""
    rng = random.Random(20261018)
    shapes = {"lines": 0, "rays": 0, "points": 0}
    for case in range(400):
        n = 1 + case % 4
        names = [f"v{i}" for i in range(n)]
        ineqs = []
        for _ in range(rng.randint(1, 7)):
            coeffs = {v: Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for v in names}
            rhs = Fraction(rng.randint(-6, 9), rng.choice(DENOMINATORS))
            ineqs.append(AffineIneq.le(LinExpr(coeffs), rhs))
        poly = Polyhedron(names, ineqs)
        m_rows, d = poly.matrix_form()
        rows = [list(r) + [-b] for r, b in zip(m_rows, d)] + [[Fraction(0)] * n + [Fraction(-1)]]
        ref_lines, ref_rays = reference_cone_generators(rows, n + 1)
        lines, rays = cone_generators(rows, n + 1)
        context = f"case {case}: {poly}"
        assert lines == [tuple(_ref_normalize(l)) for l in ref_lines], context
        assert [v for v, _ in rays] == [v for v, _ in ref_rays], context
        assert [zs for _, zs in rays] == [zs for _, zs in ref_rays], context
        for vec in [l for l in lines] + [v for v, _ in rays]:
            assert all(type(x) is int for x in vec) and gcd(*vec) == 1, context
        gens = polyhedron_generators(poly)
        assert gens.points == list(
            dict.fromkeys(tuple(x / v[-1] for x in v[:-1]) for v, _ in ref_rays if v[-1] > 0)
        ), context
        assert gens.rays == list(
            dict.fromkeys(v[:-1] for v, _ in ref_rays if v[-1] == 0 and any(v[:-1]))
        ), context
        shapes["lines"] += bool(gens.lines)
        shapes["rays"] += bool(gens.rays)
        shapes["points"] += len(gens.points) > 1
    assert min(shapes.values()) >= 40, shapes


def test_product_generators_equal_the_double_description_of_the_product():
    """Psi x U from Psi's generators and the box's vertices is the double
    description of ``psi.intersect(box)``, as sets — for Psi with rays,
    lines, thin slabs or no points at all."""
    rng = random.Random(7)
    for case in range(160):
        _, psi = _agreement_case(rng, case)
        lows = [Fraction(rng.randint(-3, 3), 2) for _ in range(rng.randint(1, 2))]
        box = Polyhedron.from_box(
            {
                f"r{i}": (lo, lo + rng.choice((0, 1, Fraction(1, 3), 5)))
                for i, lo in enumerate(lows)
            }
        )
        combined = psi.generators().product(box.generators())
        direct = psi.intersect(box).generators()
        context = f"case {case}: {psi} x {box}"
        assert combined.variables == direct.variables, context
        assert set(combined.points) == set(direct.points), context
        assert set(combined.rays) == set(direct.rays), context
        assert set(combined.lines) == set(direct.lines), context
