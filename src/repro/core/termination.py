"""Linear ranking-supermartingale synthesis for almost-sure termination.

The soundness of lower bounds (Theorem 4.4 / Section 6) assumes the PTS
terminates almost surely.  The paper discharged this manually by
constructing ranking supermartingales; we automate the same construction:
an affine ``rho`` with

* ``rho(l, v) >= 0`` for every interior location on ``I(l)``, and
* expected decrease ``E[rho(next)] <= rho(l, v) - 1`` along every
  transition (``rho`` is 0 at both sinks),

is a ranking supermartingale, and its existence implies finite expected
termination time and hence almost-sure termination [Chakarov &
Sankaranarayanan 2013; Chatterjee et al. 2018].  Synthesis is one LP:
each condition holds on a premise iff it holds at the generators of the
premise's double description (one row per point, ray and line).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import InfeasibleError, SynthesisError
from repro.numeric.lp import LinearProgram
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS
from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.templates import ExpStateFunction, ExpTemplate

__all__ = ["TerminationCertificate", "prove_almost_sure_termination"]


@dataclass
class TerminationCertificate:
    """A synthesized ranking supermartingale witnessing a.s. termination."""

    rho: ExpStateFunction  # affine ranks per interior location (exponent view)
    solve_seconds: float

    def rank(self, location: str, valuation: Dict[str, float]) -> float:
        """The rank ``rho(l, v)`` (0 at the sinks)."""
        if location not in self.rho.coeffs:
            return 0.0
        return self.rho.exponent(location, valuation)


def prove_almost_sure_termination(
    pts: PTS, invariants: Optional[InvariantMap] = None
) -> TerminationCertificate:
    """Synthesize a linear RSM; raises :class:`SynthesisError` when the LP
    finds none (which does *not* mean the program diverges — only that no
    affine witness exists for the given invariant)."""
    start = time.perf_counter()
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    template = ExpTemplate(pts, include_sinks=False)
    lp = LinearProgram()

    for loc in pts.interior_locations:
        # rho(l, v) >= 0  <=>  (-a_l) . v <= b_l
        coeffs = {v: -template.coeff(loc, v) for v in pts.program_vars}
        gens = invariants.of(loc).generators()
        lp.add_rows(*gens.implication_rows(coeffs, template.const(loc), f"nonneg@{loc}"))

    for t_index, t, psi in invariants.premises():
        # sum_j p_j rho_dst(E[upd_j]) <= rho_src(v) - 1
        coeffs: Dict[str, LinExpr] = {
            v: -template.coeff(t.source, v) for v in pts.program_vars
        }
        rhs = template.const(t.source) - 1
        for fork in t.forks:
            dst = fork.destination
            if pts.is_sink(dst):
                continue  # rho is 0 at the sinks
            p = fork.probability
            rhs = rhs - template.const(dst) * p
            for w in pts.program_vars:
                a_w = template.coeff(dst, w)
                expr = fork.update.expr_for(w)
                mean_const = expr.const
                for name, coeff in expr.coeffs.items():
                    if name in pts.distributions:
                        mean_const = mean_const + coeff * pts.distributions[name].mean()
                    else:
                        coeffs[name] = coeffs.get(name, LinExpr.constant(0)) + a_w * coeff * p
                rhs = rhs - a_w * mean_const * p
        lp.add_rows(*psi.generators().implication_rows(coeffs, rhs, f"rank@T{t_index}"))

    try:
        assignment = lp.solve(minimize=template.eta_initial())
    except InfeasibleError:
        raise SynthesisError(
            "no affine ranking supermartingale exists for the given invariant; "
            "almost-sure termination could not be established automatically"
        )
    rho = template.instantiate(assignment)
    return TerminationCertificate(rho=rho, solve_seconds=time.perf_counter() - start)
