"""The double description method (Motzkin et al., Fukuda–Prodon variant).

This is the library's substitute for PPL: it converts a polyhedron from
H-representation ``{v : M v <= d}`` to V-representation

    ``P = conv(points) + cone(rays) + span(lines)``

which is exactly what Proposition 1 of the paper needs — the polytope ``Q``
is ``conv(points)`` and the recession cone ``C = {v : M v <= 0}`` is
``cone(rays) + span(lines)``.

The computation is exact and, like PPL's, runs on integers:

1. homogenize ``P`` into the cone ``{(v, t) : M v - d t <= 0, -t <= 0}``
   and scale each row to a primitive integer vector;
2. run incremental double description with explicit lineality handling and
   the combinatorial adjacency test, keeping every ray and line a
   primitive vector of Python ``int``s;
3. dehomogenize: rays with ``t > 0`` become points ``v/t`` (the only
   ``Fraction``s), rays with ``t = 0`` become recession-cone rays, and
   lines stay lines (their ``t`` component is forced to 0 by ``-t <= 0``).

The V-representation also eliminates "for all v in P" from a linear
implication (:meth:`GeneratorSet.implication_rows`), which is how every
synthesis family turns its conditions into rows over the unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.polyhedra.linexpr import LinExpr
from repro.utils.numbers import normalize_row

if TYPE_CHECKING:  # constraints imports this module: Polyhedron queries read it
    from repro.polyhedra.constraints import Polyhedron

__all__ = ["GeneratorSet", "cone_generators", "polyhedron_generators"]

IntVector = Tuple[int, ...]
Point = Tuple[Fraction, ...]
#: one linear row over the unknowns with its diagnostic label
Row = Tuple[LinExpr, str]


@dataclass
class GeneratorSet:
    """V-representation of a polyhedron over an ordered variable tuple.

    Points are rational; rays and lines are primitive integer vectors.
    """

    variables: Tuple[str, ...]
    points: List[Point] = field(default_factory=list)
    rays: List[IntVector] = field(default_factory=list)
    lines: List[IntVector] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True iff the polyhedron has no points at all."""
        return not self.points

    @property
    def is_polytope(self) -> bool:
        """True iff the polyhedron is bounded: empty, or no rays or lines.
        (The double description of an empty polyhedron may keep rays.)"""
        return not self.points or (not self.rays and not self.lines)

    def point_valuations(self) -> List[Dict[str, Fraction]]:
        """The generator points as variable valuations."""
        return [dict(zip(self.variables, p)) for p in self.points]

    def cone(self) -> "GeneratorSet":
        """The recession cone ``{0} + cone(rays) + span(lines)`` (empty for
        an empty polyhedron)."""
        origin = [tuple(Fraction(0) for _ in self.variables)] if self.points else []
        return GeneratorSet(self.variables, origin, self.rays, self.lines)

    def product(self, other: "GeneratorSet") -> "GeneratorSet":
        """Generators of ``self × other`` over the concatenated variables:
        every pair of points, and each factor's rays and lines padded with
        zeros.  No double description runs."""
        if set(self.variables) & set(other.variables):
            raise ModelError(
                f"product of polyhedra sharing variables: {self.variables} and {other.variables}"
            )
        pad_self = (0,) * len(self.variables)
        pad_other = (0,) * len(other.variables)
        return GeneratorSet(
            self.variables + other.variables,
            [p + q for p in self.points for q in other.points],
            [r + pad_other for r in self.rays] + [pad_self + r for r in other.rays],
            [l + pad_other for l in self.lines] + [pad_self + l for l in other.lines],
        )

    def implication_rows(
        self, coeffs: Mapping[str, LinExpr], rhs: LinExpr, label: str = ""
    ) -> Tuple[List[Row], List[Row]]:
        """``(le_rows, eq_rows)`` over the unknowns, equivalent to
        ``forall v in P: sum(coeffs[x] * v[x]) <= rhs``.

        ``coeffs`` maps polyhedron variables to expressions affine in the
        unknowns (a missing variable has coefficient 0), and so is ``rhs``.
        By Minkowski–Weyl the implication holds iff ``c·p <= rhs`` at every
        point, ``c·r <= 0`` at every ray and ``c·l == 0`` at every line —
        the generator form of the paper's Lemma 2, with no multiplier
        unknowns.  An empty polyhedron implies everything: no rows.  Rows
        that reduce to a true constant are left out.
        """
        foreign = set(coeffs) - set(self.variables)
        if foreign:
            raise ModelError(
                f"target mentions variables {sorted(foreign)} missing "
                f"from the polyhedron {self.variables}"
            )
        if not self.points:
            return [], []
        cols = [(i, coeffs[v]) for i, v in enumerate(self.variables) if v in coeffs]
        le: List[Row] = []
        eq: List[Row] = []
        for kind, vectors, offset in (
            ("p", self.points, rhs),
            ("r", self.rays, None),
            ("l", self.lines, None),
        ):
            rows = eq if kind == "l" else le
            for k, vec in enumerate(vectors):
                expr = _weighted_sum(cols, vec, offset)
                if expr.is_constant and (expr.const == 0 or (kind != "l" and expr.const < 0)):
                    continue
                rows.append((expr, f"{label}:{kind}{k}"))
        return le, eq

    def __repr__(self) -> str:
        return (
            f"GeneratorSet(vars={self.variables}, {len(self.points)} points, "
            f"{len(self.rays)} rays, {len(self.lines)} lines)"
        )


def _weighted_sum(
    cols: Sequence[Tuple[int, LinExpr]], vec: Sequence, minus: Optional[LinExpr]
) -> LinExpr:
    """``sum(expr * vec[i] for i, expr in cols) - minus`` as one LinExpr."""
    acc: Dict[str, Fraction] = {}
    const = Fraction(0)
    for i, expr in cols:
        x = vec[i]
        if not x:
            continue
        for name, c in expr.iter_coeffs():
            acc[name] = acc.get(name, 0) + c * x
        const += expr.const * x
    if minus is not None:
        for name, c in minus.iter_coeffs():
            acc[name] = acc.get(name, 0) - c
        const -= minus.const
    return LinExpr(acc, const)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b) if x)


def _primitive(vec: Sequence[int]) -> IntVector:
    """``vec`` divided by the gcd of its entries (the zero vector as is)."""
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def _eliminate(vec: IntVector, pivot: IntVector, pivot_val: int, val: int) -> IntVector:
    """The primitive form of ``pivot_val * vec - val * pivot`` (``pivot_val
    > 0``): ``vec`` moved along ``pivot`` onto the row's hyperplane."""
    if not val:
        return vec
    return _primitive([pivot_val * v - val * p for v, p in zip(vec, pivot)])


def cone_generators(
    rows: Sequence[Sequence[Fraction]], dim: int
) -> Tuple[List[IntVector], List[Tuple[IntVector, FrozenSet[int]]]]:
    """Generators of the cone ``{x in R^dim : row · x <= 0 for each row}``.

    Returns ``(lines, rays)`` as primitive integer vectors, where each ray
    carries its *zero set* — the indices of input rows it satisfies with
    equality — as needed by the combinatorial adjacency test.  The cone
    equals ``span(lines) + cone(ray vectors)``.  Rows may be rational: each
    is scaled to a primitive integer vector first, which leaves the cone
    unchanged.
    """
    # Lineality starts as the full space; rays start empty.
    lines: List[IntVector] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: List[Tuple[IntVector, FrozenSet[int]]] = []

    for idx, raw_row in enumerate(rows):
        if len(raw_row) != dim:
            raise ModelError(f"constraint row {idx} has length {len(raw_row)}, expected {dim}")
        row = normalize_row(raw_row)

        # --- lineality pivot: some line is not orthogonal to the new row ----
        pivot_pos = next((k for k, l in enumerate(lines) if _dot(row, l)), None)
        if pivot_pos is not None:
            pivot = lines.pop(pivot_pos)
            val0 = _dot(row, pivot)
            if val0 < 0:
                pivot = tuple(-x for x in pivot)
                val0 = -val0
            lines = [_eliminate(l, pivot, val0, _dot(row, l)) for l in lines]
            adjusted: List[Tuple[IntVector, FrozenSet[int]]] = []
            for vec, zero_set in rays:
                vec2 = _eliminate(vec, pivot, val0, _dot(row, vec))
                adjusted.append((vec2, zero_set | {idx}))
            # the (negated) pivot becomes a ray strictly inside the halfspace
            adjusted.append((tuple(-x for x in pivot), frozenset(range(idx))))
            rays = _dedupe(adjusted)
            continue

        # --- ordinary DD step: partition rays by the sign of row · ray -------
        pos: List[Tuple[int, IntVector, FrozenSet[int], int]] = []
        neg: List[Tuple[int, IntVector, FrozenSet[int], int]] = []
        zero: List[Tuple[IntVector, FrozenSet[int]]] = []
        for k, (vec, zero_set) in enumerate(rays):
            val = _dot(row, vec)
            if val > 0:
                pos.append((k, vec, zero_set, val))
            elif val < 0:
                neg.append((k, vec, zero_set, val))
            else:
                zero.append((vec, zero_set | {idx}))

        if not pos:
            rays = _dedupe([(v, zs) for (_, v, zs, _) in neg] + zero)
            continue

        current = [zs for _, zs in rays]  # adjacency is tested against the pre-update rays
        new_rays: List[Tuple[IntVector, FrozenSet[int]]] = []
        new_rays.extend((v, zs) for (_, v, zs, _) in neg)
        new_rays.extend(zero)
        for pk, pvec, pzs, pval in pos:
            for nk, nvec, nzs, nval in neg:
                common = pzs & nzs
                if not _adjacent(pk, nk, common, current):
                    continue
                combo = _primitive([pval * nv - nval * pv for pv, nv in zip(pvec, nvec)])
                if not any(combo):
                    continue
                new_rays.append((combo, common | {idx}))
        rays = _dedupe(new_rays)

    return lines, rays


def _adjacent(a: int, b: int, common: FrozenSet[int], zero_sets: List[FrozenSet[int]]) -> bool:
    """Combinatorial adjacency of rays ``a`` and ``b``: no third extreme
    ray's zero set contains ``common`` (Fukuda–Prodon, Proposition 7)."""
    for k, zero_set in enumerate(zero_sets):
        if k != a and k != b and common <= zero_set:
            return False
    return True


def _dedupe(
    rays: List[Tuple[IntVector, FrozenSet[int]]]
) -> List[Tuple[IntVector, FrozenSet[int]]]:
    seen: Dict[IntVector, FrozenSet[int]] = {}
    for vec, zero_set in rays:
        if vec in seen:
            seen[vec] = seen[vec] | zero_set
        else:
            seen[vec] = zero_set
    return list(seen.items())


def polyhedron_generators(poly: Polyhedron) -> GeneratorSet:
    """V-representation of ``poly`` (uncached: see ``Polyhedron.generators``)."""
    m_rows, d = poly.matrix_form()
    n = len(poly.variables)
    hom_rows: List[List[Fraction]] = []
    for row, rhs in zip(m_rows, d):
        hom_rows.append(list(row) + [-rhs])
    hom_rows.append([Fraction(0)] * n + [Fraction(-1)])  # -t <= 0

    lines, rays = cone_generators(hom_rows, n + 1)

    result = GeneratorSet(variables=poly.variables)
    for line in lines:
        if line[-1] != 0:
            # -t <= 0 forbids lines with a t component; if one appears the
            # lineality elimination has gone wrong.
            raise ModelError("internal error: homogenization line with t != 0")
        if any(line):
            result.lines.append(line[:-1])  # primitive: t = 0 adds no factor
    for vec, _ in rays:
        t = vec[-1]
        body = vec[:-1]
        if t > 0:
            result.points.append(tuple(Fraction(x, t) for x in body))
        elif t == 0:
            if any(body):
                result.rays.append(body)
        else:  # pragma: no cover - excluded by the -t <= 0 row
            raise ModelError("internal error: homogenization ray with t < 0")
    result.points = _unique_vectors(result.points)
    result.rays = _unique_vectors(result.rays)
    result.lines = _unique_vectors(result.lines)
    return result


def _unique_vectors(vectors: List) -> List:
    seen = set()
    out = []
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out
