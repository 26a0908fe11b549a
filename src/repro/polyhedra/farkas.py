"""Farkas' lemma encodings (Lemma 2 of the paper).

Given a nonempty polyhedron ``P = {v : A v <= b}`` with *constant* data and a
target inequality ``c(theta) . v <= d(theta)`` whose coefficients are affine
in unknown template coefficients ``theta``, Farkas' lemma states::

    P  subseteq  {v : c.v <= d}   iff   exists y >= 0 with yT A = c, yT b <= d.

The encoder introduces fresh multiplier unknowns ``y_i`` and emits *linear*
constraints over ``theta ∪ y`` — exactly Step 3 of HoeffdingSynthesis and
Step 5 of ExpLowSyn.  The homogeneous variant (``b = 0, d = 0``) serves the
cone condition (D1) of Proposition 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterator, List

from repro.errors import ModelError
from repro.polyhedra.constraints import Polyhedron
from repro.polyhedra.linexpr import LinExpr

__all__ = ["TemplateConstraint", "FarkasEncoder"]


@dataclass
class TemplateConstraint:
    """A linear constraint over unknown coefficients: ``expr (rel) 0``."""

    expr: LinExpr
    relation: str  # "<=" or "=="
    label: str = ""

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "=="):
            raise ModelError(f"unsupported relation {self.relation!r}")

    def holds(self, assignment: Dict[str, float], tol: float = 1e-7) -> bool:
        """Check the constraint at a float assignment (missing unknowns = 0)."""
        value = float(self.expr.const)
        for name, coeff in self.expr.coeffs.items():
            value += float(coeff) * assignment.get(name, 0.0)
        if self.relation == "<=":
            return value <= tol
        return abs(value) <= tol

    def __str__(self) -> str:
        return f"{self.expr} {self.relation} 0" + (f"  [{self.label}]" if self.label else "")


class FarkasEncoder:
    """Produces Farkas-multiplier constraint systems with fresh names.

    One encoder instance is shared per synthesis run so multiplier names
    never collide.  Multiplier unknowns are named ``_y{k}`` and recorded in
    :attr:`multipliers` with their (implicit) bound ``y >= 0``.
    """

    def __init__(self, prefix: str = "_y") -> None:
        self._prefix = prefix
        self._counter: Iterator[int] = count()
        self.multipliers: List[str] = []

    def _fresh(self) -> str:
        name = f"{self._prefix}{next(self._counter)}"
        self.multipliers.append(name)
        return name

    def encode_implication(
        self,
        poly: Polyhedron,
        target_coeffs: Dict[str, LinExpr],
        target_rhs: LinExpr,
        label: str = "",
    ) -> List[TemplateConstraint]:
        """Encode ``forall v in poly: sum(target_coeffs[v] * v) <= target_rhs``.

        ``target_coeffs`` maps each polyhedron variable to an affine
        expression over the unknowns (missing variables mean coefficient 0);
        ``target_rhs`` is likewise affine in the unknowns.  The caller must
        ensure ``poly`` is nonempty — Farkas' lemma is stated for nonempty
        polyhedra, and an empty premise makes the implication vacuous (the
        caller should simply drop it).
        """
        unknown_vars = set(target_coeffs) - set(poly.variables)
        if unknown_vars:
            raise ModelError(
                f"target mentions variables {sorted(unknown_vars)} missing "
                f"from the polyhedron {poly.variables}"
            )
        m_rows, d = poly.matrix_form()
        ys = [self._fresh() for _ in m_rows]
        constraints: List[TemplateConstraint] = []
        # yT A = c  (one equality per program variable)
        for col, v in enumerate(poly.variables):
            lhs = LinExpr({y: m_rows[i][col] for i, y in enumerate(ys)})
            c_v = target_coeffs.get(v, LinExpr.constant(0))
            constraints.append(
                TemplateConstraint(lhs - c_v, "==", label=f"{label}:coef[{v}]")
            )
        # yT b <= d
        lhs = LinExpr({y: d[i] for i, y in enumerate(ys)})
        constraints.append(TemplateConstraint(lhs - target_rhs, "<=", label=f"{label}:rhs"))
        # y >= 0
        for y in ys:
            constraints.append(
                TemplateConstraint(LinExpr({y: -1}), "<=", label=f"{label}:sign[{y}]")
            )
        return constraints

    def encode_cone_condition(
        self,
        cone: Polyhedron,
        direction_coeffs: Dict[str, LinExpr],
        label: str = "",
    ) -> List[TemplateConstraint]:
        """Encode ``forall v: M v <= 0  =>  direction . v <= 0`` (condition D1).

        This is the homogeneous Farkas variant: ``direction`` lies in the
        cone dual to ``C`` iff ``exists y >= 0: yT M = direction``.
        """
        hom = cone.recession_cone()  # drops any constant terms defensively
        return self.encode_implication(
            hom, direction_coeffs, LinExpr.constant(0), label=label
        )
