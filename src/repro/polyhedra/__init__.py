"""Exact polyhedra substrate: H/V representations, Minkowski, and the
generator rows that eliminate "for all v in P".

This subpackage replaces the Parma Polyhedra Library used by the paper's
prototype.  Everything is computed exactly: the double description on
integers, generator points as rationals.
"""

from repro.polyhedra.linexpr import LinExpr, var, const
from repro.polyhedra.constraints import AffineIneq, Polyhedron
from repro.polyhedra.dd import GeneratorSet, cone_generators, polyhedron_generators
from repro.polyhedra.minkowski import MinkowskiDecomposition, decompose

__all__ = [
    "LinExpr",
    "var",
    "const",
    "AffineIneq",
    "Polyhedron",
    "GeneratorSet",
    "cone_generators",
    "polyhedron_generators",
    "MinkowskiDecomposition",
    "decompose",
]
