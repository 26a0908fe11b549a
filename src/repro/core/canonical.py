"""Canonicalization of fixed-point constraints (Step 3 of Sections 5.2 / 6).

For every transition ``tau = (l_src, phi, F_1..F_k)`` the pre/post
fixed-point condition on the exponential template divides through by
``theta(l_src, v) = exp(eta_src(v))`` and becomes the canonical form::

    sum_j  p_j * exp(alpha_j . v + beta_j) * E_r[ exp(gamma_j . r) ]  (<=|>=)  1
    for all v in Psi = I(l_src) /\\ phi

with (for a fork to an interior location, ``upd_j(v, r) = Q v + R r + e``)::

    alpha_j = a_dst Q - a_src      beta_j = a_dst . e + b_dst - b_src
    gamma_j = a_dst R

Forks to the failure sink contribute ``p_j * exp(-eta_src(v))`` (because
``theta(l_fail) = 1``), i.e. ``alpha = -a_src``, ``beta = -b_src``,
``gamma = 0``; forks to the termination sink contribute nothing
(``theta(l_term) = 0``).  All of ``alpha/beta/gamma`` are affine in the
unknown template coefficients — represented as :class:`LinExpr` over the
unknown names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from repro.polyhedra.constraints import Polyhedron
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS, Fork
from repro.core.invariants import InvariantMap
from repro.core.templates import ExpTemplate

__all__ = ["CanonicalTerm", "CanonicalConstraint", "canonicalize"]


@dataclass
class CanonicalTerm:
    """One fork's contribution ``p * exp(alpha . v + beta) * E[exp(gamma . r)]``."""

    prob: Fraction
    alpha: Dict[str, LinExpr]  # program variable -> affine expr over unknowns
    beta: LinExpr
    gamma: Dict[str, LinExpr]  # sampling variable -> affine expr over unknowns
    destination: str = ""

    def alpha_at(self, point: Dict[str, Fraction]) -> LinExpr:
        """``alpha . point + beta`` as an affine expression over the unknowns."""
        expr = self.beta
        for v, coeff_expr in self.alpha.items():
            expr = expr + coeff_expr * point[v]
        return expr


@dataclass
class CanonicalConstraint:
    """``sum(terms) (<=|>=) 1`` universally quantified over ``psi``."""

    psi: Polyhedron
    terms: List[CanonicalTerm]
    transition_name: str = ""
    source: str = ""

    @property
    def dropped_probability(self) -> Fraction:
        """Probability mass of forks to the termination sink (dropped terms)."""
        return Fraction(1) - sum((t.prob for t in self.terms), Fraction(0))


def _term_for_fork(
    pts: PTS, template: ExpTemplate, source: str, fork: Fork
) -> Optional[CanonicalTerm]:
    """Build a canonical term (``None`` for forks into the termination sink)."""
    a_src = {v: template.coeff(source, v) for v in pts.program_vars}
    b_src = template.const(source)
    if fork.destination == pts.term_location:
        return None
    if fork.destination == pts.fail_location:
        return CanonicalTerm(
            prob=fork.probability,
            alpha={v: -a_src[v] for v in pts.program_vars},
            beta=-b_src,
            gamma={},
            destination=fork.destination,
        )
    dst = fork.destination
    alpha: Dict[str, LinExpr] = {}
    gamma: Dict[str, LinExpr] = {}
    beta = template.const(dst) - b_src
    # theta(dst, upd(v, r)) expands through the affine update row by row:
    # exponent = sum_w a_dst[w] * upd_w(v, r) + b_dst
    for w in pts.program_vars:
        expr = fork.update.expr_for(w)
        a_dst_w = template.coeff(dst, w)
        beta = beta + a_dst_w * expr.const
        for name, coeff in expr.coeffs.items():
            if name in pts.distributions:
                gamma[name] = gamma.get(name, LinExpr.constant(0)) + a_dst_w * coeff
            else:
                alpha[name] = alpha.get(name, LinExpr.constant(0)) + a_dst_w * coeff
    # subtract eta_src
    for v in pts.program_vars:
        alpha[v] = alpha.get(v, LinExpr.constant(0)) - a_src[v]
    gamma = {r: g for r, g in gamma.items() if not g.is_zero}
    return CanonicalTerm(
        prob=fork.probability,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        destination=dst,
    )


def canonicalize(
    pts: PTS, invariants: InvariantMap, template: ExpTemplate
) -> List[CanonicalConstraint]:
    """Canonical constraints for every transition with nonempty ``Psi``.

    Transitions whose ``Psi = I(l_src) /\\ guard`` is empty are unreachable
    according to the invariant and contribute no constraint (the universally
    quantified implication is vacuous).
    """
    constraints: List[CanonicalConstraint] = []
    for _, t, psi in invariants.premises():
        terms = []
        for fork in t.forks:
            term = _term_for_fork(pts, template, t.source, fork)
            if term is not None:
                terms.append(term)
        constraints.append(
            CanonicalConstraint(
                psi=psi, terms=terms, transition_name=t.name, source=t.source
            )
        )
    return constraints
