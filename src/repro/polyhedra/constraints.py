"""Affine inequalities and polyhedra in H-representation.

A :class:`AffineIneq` is an exact constraint ``expr <= 0``; a
:class:`Polyhedron` is a finite conjunction of such constraints over a fixed
variable tuple, i.e. ``{v : M v <= d}``.  Queries that need more than
pointwise evaluation (emptiness, boundedness, maximization, implication)
are answered exactly from the polyhedron's V-representation, computed once
per instance by the double description method (:mod:`repro.polyhedra.dd`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.polyhedra import dd
from repro.polyhedra.linexpr import LinExpr
from repro.utils.numbers import Number, as_fraction

__all__ = ["AffineIneq", "Polyhedron"]


class AffineIneq:
    """The constraint ``expr <= 0`` for an affine ``expr``.

    Convenience constructors :meth:`le`, :meth:`ge`, :meth:`eq_pair` build
    constraints from two expressions.
    """

    __slots__ = ("expr",)

    def __init__(self, expr: LinExpr):
        self.expr = expr

    @staticmethod
    def le(lhs, rhs) -> "AffineIneq":
        """The constraint ``lhs <= rhs``."""
        return AffineIneq(LinExpr.coerce(lhs) - LinExpr.coerce(rhs))

    @staticmethod
    def ge(lhs, rhs) -> "AffineIneq":
        """The constraint ``lhs >= rhs``."""
        return AffineIneq(LinExpr.coerce(rhs) - LinExpr.coerce(lhs))

    @staticmethod
    def eq_pair(lhs, rhs) -> Tuple["AffineIneq", "AffineIneq"]:
        """The pair of constraints encoding ``lhs == rhs``."""
        return AffineIneq.le(lhs, rhs), AffineIneq.ge(lhs, rhs)

    def holds(self, valuation: Mapping[str, Number], tol: Fraction = Fraction(0)) -> bool:
        """True iff the constraint is satisfied at ``valuation`` (within ``tol``)."""
        return self.expr.evaluate(valuation) <= tol

    def holds_float(self, valuation: Mapping[str, float], tol: float = 1e-9) -> bool:
        """Float-valued satisfaction check (for simulation hot paths)."""
        return self.expr.evaluate_float(valuation) <= tol

    def negate_strict(self, integer_gap: Fraction = Fraction(0)) -> "AffineIneq":
        """The closed complement ``expr >= gap`` of ``expr <= 0``.

        Over the reals the true complement is strict (``expr > 0``); on
        integer-valued programs with integral coefficients the complement is
        ``expr >= 1``.  ``integer_gap`` supplies that tightening (0 keeps the
        measure-zero overlap convention documented in the compiler).
        """
        return AffineIneq(LinExpr.constant(integer_gap) - self.expr)

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineIneq):
            return NotImplemented
        return self.expr == other.expr

    def __hash__(self) -> int:
        return hash(("AffineIneq", self.expr))

    def __repr__(self) -> str:
        return f"AffineIneq({self.expr} <= 0)"

    def __str__(self) -> str:
        return f"{self.expr} <= 0"


class Polyhedron:
    """A conjunction of affine inequalities over an ordered variable tuple.

    The variable tuple fixes the column order of the matrix form ``M v <= d``
    used by the double description method and the generator rows; it may
    include variables that appear in no constraint (free coordinates).
    """

    def __init__(self, variables: Sequence[str], inequalities: Iterable[AffineIneq] = ()):
        self.variables: Tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ModelError(f"duplicate variables in polyhedron: {self.variables}")
        self.inequalities: List[AffineIneq] = []
        seen = set()
        for ineq in inequalities:
            if ineq.expr.is_constant and ineq.expr.const <= 0:
                continue  # trivially true (e.g. a guard folded to 0 <= 0)
            if ineq not in seen:  # drop exact duplicates (guard composition)
                seen.add(ineq)
                self.inequalities.append(ineq)
        known = set(self.variables)
        for ineq in self.inequalities:
            extra = set(ineq.variables()) - known
            if extra:
                raise ModelError(
                    f"constraint {ineq} mentions variables {sorted(extra)} "
                    f"outside the polyhedron dimension {self.variables}"
                )
        # memo slot for the V-representation every query reads; instances
        # are immutable by convention and synthesis asks the same premise
        # repeatedly (emptiness, then Minkowski decomposition, then sampling)
        self._generators: Optional[dd.GeneratorSet] = None

    # -- constructors -------------------------------------------------------------
    @staticmethod
    def universe(variables: Sequence[str]) -> "Polyhedron":
        """The whole space R^n (no constraints)."""
        return Polyhedron(variables, [])

    @staticmethod
    def from_box(bounds: Mapping[str, Tuple[Optional[Number], Optional[Number]]]) -> "Polyhedron":
        """A box ``{lo_i <= x_i <= hi_i}``; ``None`` bounds are omitted."""
        names = sorted(bounds)
        ineqs: List[AffineIneq] = []
        for name in names:
            lo, hi = bounds[name]
            if lo is not None:
                ineqs.append(AffineIneq.ge(LinExpr.variable(name), as_fraction(lo)))
            if hi is not None:
                ineqs.append(AffineIneq.le(LinExpr.variable(name), as_fraction(hi)))
        return Polyhedron(names, ineqs)

    # -- structural operations ------------------------------------------------------
    def with_variables(self, variables: Sequence[str]) -> "Polyhedron":
        """Re-embed into the (super)space spanned by ``variables``."""
        missing = set(v for ineq in self.inequalities for v in ineq.variables()) - set(variables)
        if missing:
            raise ModelError(f"cannot drop constrained variables {sorted(missing)}")
        return Polyhedron(variables, self.inequalities)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Conjunction; the variable tuple is the ordered union."""
        names = list(self.variables)
        for v in other.variables:
            if v not in names:
                names.append(v)
        return Polyhedron(names, list(self.inequalities) + list(other.inequalities))

    def and_ineqs(self, ineqs: Iterable[AffineIneq]) -> "Polyhedron":
        """Conjunction with extra inequalities over the same variables."""
        return Polyhedron(self.variables, list(self.inequalities) + list(ineqs))

    def recession_cone(self) -> "Polyhedron":
        """The cone ``{v : M v <= 0}`` (constants dropped)."""
        cone_ineqs = [
            AffineIneq(ineq.expr - ineq.expr.const) for ineq in self.inequalities
        ]
        return Polyhedron(self.variables, cone_ineqs)

    def matrix_form(self) -> Tuple[List[List[Fraction]], List[Fraction]]:
        """``(M, d)`` with the polyhedron equal to ``{v : M v <= d}``."""
        m_rows: List[List[Fraction]] = []
        d: List[Fraction] = []
        for ineq in self.inequalities:
            m_rows.append([ineq.expr.coeff(v) for v in self.variables])
            d.append(-ineq.expr.const)
        return m_rows, d

    # -- pointwise queries -----------------------------------------------------------
    def contains(self, valuation: Mapping[str, Number], tol: Fraction = Fraction(0)) -> bool:
        """Exact membership test."""
        return all(ineq.holds(valuation, tol) for ineq in self.inequalities)

    def contains_float(self, valuation: Mapping[str, float], tol: float = 1e-7) -> bool:
        """Float membership test."""
        return all(ineq.holds_float(valuation, tol) for ineq in self.inequalities)

    # -- exact queries -------------------------------------------------------------------
    def generators(self) -> dd.GeneratorSet:
        """The V-representation ``conv(points) + cone(rays) + span(lines)``
        (double description, exact, memoized).  Shared: never mutate it."""
        if self._generators is None:
            self._generators = dd.polyhedron_generators(self)
        return self._generators

    def is_empty(self) -> bool:
        """True iff the polyhedron has no points."""
        return not self.generators().points

    def maximize(self, objective: LinExpr) -> Tuple[str, Optional[Fraction]]:
        """``(status, value)`` for ``max objective`` over the polyhedron.

        ``status`` is "optimal" (with the exact maximum over the generator
        points), "unbounded" (a ray raises the objective or a line moves
        it) or "infeasible" (no points); the value is ``None`` unless
        optimal.
        """
        gens = self.generators()
        if not gens.points:
            return "infeasible", None
        c = [objective.coeff(v) for v in self.variables]

        def dot(vec) -> Fraction:
            return sum((a * x for a, x in zip(c, vec) if a), Fraction(0))

        if any(dot(r) > 0 for r in gens.rays) or any(dot(l) != 0 for l in gens.lines):
            return "unbounded", None
        return "optimal", max(dot(p) for p in gens.points) + objective.const

    def implies(self, ineq: AffineIneq) -> bool:
        """True iff every point of the polyhedron satisfies ``ineq``; an
        empty polyhedron implies everything."""
        status, value = self.maximize(ineq.expr)
        return status == "infeasible" or (status == "optimal" and value <= 0)

    # -- dunder ------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.inequalities)

    def __repr__(self) -> str:
        body = " and ".join(str(i) for i in self.inequalities) or "true"
        return f"Polyhedron[{', '.join(self.variables)} | {body}]"
