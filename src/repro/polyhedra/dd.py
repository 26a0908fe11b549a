"""The double description method (Motzkin et al., Fukuda–Prodon variant).

This is the library's substitute for PPL: it converts a polyhedron from
H-representation ``{v : M v <= d}`` to V-representation

    ``P = conv(points) + cone(rays) + span(lines)``

which is exactly what Proposition 1 of the paper needs — the polytope ``Q``
is ``conv(points)`` and the recession cone ``C = {v : M v <= 0}`` is
``cone(rays) + span(lines)``.

The computation is exact over ``fractions.Fraction``:

1. homogenize ``P`` into the cone ``{(v, t) : M v - d t <= 0, -t <= 0}``;
2. run incremental double description with explicit lineality handling and
   the combinatorial adjacency test;
3. dehomogenize: rays with ``t > 0`` become points ``v/t``, rays with
   ``t = 0`` become recession-cone rays, and lines stay lines (their ``t``
   component is forced to 0 by ``-t <= 0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import ModelError
from repro.utils.numbers import normalize_row

if TYPE_CHECKING:  # constraints imports this module: Polyhedron queries read it
    from repro.polyhedra.constraints import Polyhedron

__all__ = ["GeneratorSet", "cone_generators", "polyhedron_generators"]

Vector = Tuple[Fraction, ...]


@dataclass
class GeneratorSet:
    """V-representation of a polyhedron over an ordered variable tuple."""

    variables: Tuple[str, ...]
    points: List[Vector] = field(default_factory=list)
    rays: List[Vector] = field(default_factory=list)
    lines: List[Vector] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True iff the polyhedron has no points at all."""
        return not self.points

    @property
    def is_polytope(self) -> bool:
        """True iff the polyhedron is bounded (no rays or lines)."""
        return not self.rays and not self.lines

    def point_valuations(self) -> List[Dict[str, Fraction]]:
        """The generator points as variable valuations."""
        return [dict(zip(self.variables, p)) for p in self.points]

    def __repr__(self) -> str:
        return (
            f"GeneratorSet(vars={self.variables}, {len(self.points)} points, "
            f"{len(self.rays)} rays, {len(self.lines)} lines)"
        )


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _scale_sub(
    vec: Sequence[Fraction], pivot: Sequence[Fraction], factor: Fraction
) -> Vector:
    """``vec - factor * pivot`` componentwise."""
    return tuple(v - factor * p for v, p in zip(vec, pivot))


def cone_generators(
    rows: Sequence[Sequence[Fraction]], dim: int
) -> Tuple[List[Vector], List[Tuple[Vector, FrozenSet[int]]]]:
    """Generators of the cone ``{x in R^dim : row · x <= 0 for each row}``.

    Returns ``(lines, rays)`` where each ray carries its *zero set* — the
    indices of input rows it satisfies with equality — as needed by the
    combinatorial adjacency test.  The cone equals
    ``span(lines) + cone(ray vectors)``.
    """
    # Lineality starts as the full space; rays start empty.
    lines: List[Vector] = [
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim))
        for i in range(dim)
    ]
    rays: List[Tuple[Vector, FrozenSet[int]]] = []

    for idx, raw_row in enumerate(rows):
        row = tuple(Fraction(x) for x in raw_row)
        if len(row) != dim:
            raise ModelError(f"constraint row {idx} has length {len(row)}, expected {dim}")

        # --- lineality pivot: some line is not orthogonal to the new row ----
        pivot_pos = next((k for k, l in enumerate(lines) if _dot(row, l) != 0), None)
        if pivot_pos is not None:
            pivot = lines.pop(pivot_pos)
            val0 = _dot(row, pivot)
            if val0 < 0:
                pivot = tuple(-x for x in pivot)
                val0 = -val0
            lines = [
                _scale_sub(l, pivot, _dot(row, l) / val0) for l in lines
            ]
            adjusted: List[Tuple[Vector, FrozenSet[int]]] = []
            for vec, zero_set in rays:
                vec2 = _scale_sub(vec, pivot, _dot(row, vec) / val0)
                adjusted.append((tuple(normalize_row(vec2)), zero_set | {idx}))
            # the (negated) pivot becomes a ray strictly inside the halfspace
            neg_pivot = tuple(normalize_row(tuple(-x for x in pivot)))
            adjusted.append((neg_pivot, frozenset(range(idx))))
            rays = _dedupe(adjusted)
            continue

        # --- ordinary DD step: partition rays by the sign of row · ray -------
        pos: List[Tuple[Vector, FrozenSet[int], Fraction]] = []
        neg: List[Tuple[Vector, FrozenSet[int], Fraction]] = []
        zero: List[Tuple[Vector, FrozenSet[int]]] = []
        for vec, zero_set in rays:
            val = _dot(row, vec)
            if val > 0:
                pos.append((vec, zero_set, val))
            elif val < 0:
                neg.append((vec, zero_set, val))
            else:
                zero.append((vec, zero_set | {idx}))

        if not pos:
            rays = _dedupe([(v, zs) for (v, zs, _) in neg] + zero)
            continue

        current = rays  # adjacency is tested against the pre-update ray list
        new_rays: List[Tuple[Vector, FrozenSet[int]]] = []
        new_rays.extend((v, zs) for (v, zs, _) in neg)
        new_rays.extend(zero)
        for pvec, pzs, pval in pos:
            for nvec, nzs, nval in neg:
                common = pzs & nzs
                if not _adjacent(pvec, nvec, common, current):
                    continue
                combo = tuple(
                    pval * nv - nval * pv for pv, nv in zip(pvec, nvec)
                )
                combo = tuple(normalize_row(combo))
                if all(x == 0 for x in combo):
                    continue
                new_rays.append((combo, common | {idx}))
        rays = _dedupe(new_rays)

    return lines, rays


def _adjacent(
    vec_a: Vector,
    vec_b: Vector,
    common: FrozenSet[int],
    rays: List[Tuple[Vector, FrozenSet[int]]],
) -> bool:
    """Combinatorial adjacency: no third extreme ray's zero set contains
    ``common`` (Fukuda–Prodon, Proposition 7)."""
    for vec, zero_set in rays:
        if vec == vec_a or vec == vec_b:
            continue
        if common <= zero_set:
            return False
    return True


def _dedupe(
    rays: List[Tuple[Vector, FrozenSet[int]]]
) -> List[Tuple[Vector, FrozenSet[int]]]:
    seen: Dict[Vector, FrozenSet[int]] = {}
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
        body = tuple(normalize_row(line[:-1]))
        if any(x != 0 for x in body):
            result.lines.append(body)
    for vec, _ in rays:
        t = vec[-1]
        body = vec[:-1]
        if t > 0:
            result.points.append(tuple(x / t for x in body))
        elif t == 0:
            ray = tuple(normalize_row(body))
            if any(x != 0 for x in ray):
                result.rays.append(ray)
        else:  # pragma: no cover - excluded by the -t <= 0 row
            raise ModelError("internal error: homogenization ray with t < 0")
    result.points = _unique_vectors(result.points)
    result.rays = _unique_vectors(result.rays)
    result.lines = _unique_vectors(result.lines)
    return result


def _unique_vectors(vectors: List[Vector]) -> List[Vector]:
    seen = set()
    out: List[Vector] = []
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out
