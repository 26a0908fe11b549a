"""Minkowski decomposition of polyhedra (Theorem 5.3 of the paper).

Every polyhedron ``P = {v : M v <= d}`` decomposes as ``P = Q + C`` with
``Q`` a polytope and ``C = {v : M v <= 0}`` the recession cone.  The
decomposition drives the paper's quantifier-elimination step
(Proposition 1): the pre fixed-point constraint over all of ``P`` reduces to

* (D1) a *cone condition* — each exponent slope ``alpha_j`` is non-increasing
  along ``C`` — linear rows at ``C``'s rays and lines, and
* (D2) finitely many convex inequalities at the generator points of ``Q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from repro.polyhedra.constraints import Polyhedron
from repro.polyhedra.dd import GeneratorSet

__all__ = ["MinkowskiDecomposition", "decompose"]


@dataclass
class MinkowskiDecomposition:
    """``P = conv(polytope_points) + C`` with ``C`` the recession cone.

    ``generators`` records the cone's rays and lines, which condition (D1)
    is encoded at; :attr:`cone` is ``C`` in H-representation, built only
    for :meth:`verify`.
    """

    polyhedron: Polyhedron
    polytope_points: List[Dict[str, Fraction]]
    generators: GeneratorSet

    @property
    def cone(self) -> Polyhedron:
        """The recession cone ``{v : M v <= 0}``."""
        return self.polyhedron.recession_cone()

    @property
    def is_empty(self) -> bool:
        """True iff the original polyhedron is empty."""
        return not self.polytope_points

    @property
    def cone_is_trivial(self) -> bool:
        """True iff the recession cone is ``{0}`` (P is a polytope)."""
        return not self.generators.rays and not self.generators.lines

    def verify(self, tol: Fraction = Fraction(0)) -> bool:
        """Sanity-check the decomposition: every generator point lies in P
        and every ray/line direction lies in the recession cone."""
        for point in self.polytope_points:
            if not self.polyhedron.contains(point, tol):
                return False
        cone = self.cone
        for ray in self.generators.rays:
            if not cone.contains(dict(zip(self.generators.variables, ray)), tol):
                return False
        for line in self.generators.lines:
            val = dict(zip(self.generators.variables, line))
            neg = {k: -v for k, v in val.items()}
            if not (cone.contains(val, tol) and cone.contains(neg, tol)):
                return False
        return True


def decompose(poly: Polyhedron) -> MinkowskiDecomposition:
    """Compute ``P = Q + C`` exactly from ``poly``'s memoized generators."""
    generators = poly.generators()
    return MinkowskiDecomposition(
        polyhedron=poly,
        polytope_points=generators.point_valuations(),
        generators=generators,
    )
