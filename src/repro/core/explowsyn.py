"""ExpLowSyn (Section 6): exponential lower bounds on violation probability.

For almost-surely terminating PTSs, Theorem 4.4 makes the violation
probability the *greatest* fixed point of ``ptf`` on the bounded lattice
``K_M``, so every bounded post fixed-point is a lower bound.  The synthesis
steps are:

1. **Templates** per interior location (``theta = exp(a_l . v + b_l)``).
2. **Bounding** — ``a_l . v + b_l <= M`` on ``I(l)`` for a fresh unknown
   ``M >= 0``, keeping ``theta`` inside ``K_{exp(M)}``.
3. **Canonicalization** with ``>=`` (shared with Section 5.2).
4. **Jensen's inequality** — each canonical constraint is strengthened to
   the linear form ``sum_j (p_j / Q) (alpha_j . v + beta_j +
   gamma_j . E[r]) >= -ln Q`` with ``Q = sum_j p_j`` (Theorem 6.1); sound
   but incomplete.
5. **Generators + LP** — each "for all v in Psi" is eliminated at the
   generators of Psi's double description (one linear row per point, ray
   and line), and one LP maximizes ``a_init . v_init + b_init``.

Almost-sure termination is discharged automatically via
:func:`~repro.core.termination.prove_almost_sure_termination` unless the
caller passes ``assume_termination=True``.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.errors import InfeasibleError, SolverError, SynthesisError
from repro.numeric.lp import LinearProgram
from repro.polyhedra.dd import Row
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS
from repro.utils.numbers import as_fraction
from repro.core.canonical import CanonicalConstraint, canonicalize
from repro.core.certificates import LowerBoundCertificate
from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.templates import ExpTemplate
from repro.core.termination import TerminationCertificate, prove_almost_sure_termination

__all__ = ["exp_low_syn", "synthesize"]

M_NAME = "_M"


def _jensen_strengthen(
    con: CanonicalConstraint, pts: PTS
) -> Tuple[List[Row], List[Row]]:
    """Step 4: the linear strengthening of one canonical ``>= 1`` constraint,
    as ``(le_rows, eq_rows)`` over the unknowns."""
    q = sum((t.prob for t in con.terms), Fraction(0))
    if q == 0:
        raise SynthesisError(
            f"transition {con.transition_name!r} moves all probability to the "
            "termination sink; exp-template lower bounds cannot hold there "
            "(theta(l_src) <= 0 is unsatisfiable for exponentials)"
        )
    # mean >= -ln q, with ln q rounded *down* so the encoded constraint
    # implies the true one even at the float boundary
    ln_q = 0.0 if q == 1 else math.log(float(q)) - 1e-12
    mean_coeffs: Dict[str, LinExpr] = {}
    mean_const = LinExpr.constant(0)
    for term in con.terms:
        w = term.prob / q
        for v, expr in term.alpha.items():
            mean_coeffs[v] = mean_coeffs.get(v, LinExpr.constant(0)) + expr * w
        mean_const = mean_const + term.beta * w
        for r, gamma in term.gamma.items():
            mean_const = mean_const + gamma * (pts.distributions[r].mean() * w)
    # sum >= -ln q  <=>  (-mean_coeffs) . v <= mean_const + ln q
    neg = {v: -e for v, e in mean_coeffs.items()}
    rhs = mean_const + as_fraction(ln_q)
    return con.psi.generators().implication_rows(
        neg, rhs, label=f"jensen:{con.transition_name}"
    )


def exp_low_syn(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    assume_termination: bool = False,
    verify: bool = True,
) -> LowerBoundCertificate:
    """Synthesize an exponential lower bound on the violation probability.

    Sound for almost-surely terminating affine PTSs; one LP over the
    premises' generators.  Raises :class:`SynthesisError`
    when no affine witness exists (e.g. the Jensen strengthening is too
    coarse, or no ranking supermartingale proves termination).
    """
    start = time.perf_counter()
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    termination: Optional[TerminationCertificate] = None
    if not assume_termination:
        termination = prove_almost_sure_termination(pts, invariants)

    template = ExpTemplate(pts, include_sinks=False)
    lp = LinearProgram()

    # Step 2: boundedness  a_l . v + b_l <= M  on I(l), M >= 0
    m_var = LinExpr.variable(M_NAME)
    lp.add_le(-m_var, "M>=0")
    for loc in pts.interior_locations:
        coeffs = {v: template.coeff(loc, v) for v in pts.program_vars}
        rhs = m_var - template.const(loc)
        lp.add_rows(*invariants.of(loc).generators().implication_rows(coeffs, rhs, f"bound@{loc}"))

    # Steps 3-4: canonical constraints, Jensen-strengthened
    for con in canonicalize(pts, invariants, template):
        lp.add_rows(*_jensen_strengthen(con, pts))

    # Step 5: LP, maximizing the reported exponent (batched sparse assembly)
    try:
        assignment = lp.solve(minimize=-template.eta_initial())
    except InfeasibleError:
        raise SynthesisError("ExpLowSyn: the strengthened constraint system is infeasible")
    except SolverError as exc:
        raise SynthesisError(f"ExpLowSyn: LP failed ({exc})")

    state_function = template.instantiate(assignment)
    init_val = {k: float(v) for k, v in pts.init_valuation.items()}
    log_bound = min(state_function.exponent(pts.init_location, init_val), 0.0)
    m_value = assignment.get(M_NAME, 0.0)
    certificate = LowerBoundCertificate(
        method="explowsyn",
        log_bound=log_bound,
        state_function=state_function,
        pts=pts,
        invariants=invariants,
        solve_seconds=time.perf_counter() - start,
        solver_info=f"LP with {lp.num_constraints} rows; M={m_value:.3g}",
        termination_certificate=termination,
        bound_m=math.exp(min(m_value, 700.0)),
    )
    if verify:
        certificate.verify()
    return certificate


# -- analysis-engine protocol -------------------------------------------------------


def synthesize(task, deps=None, engine=None):
    """Engine entry point for ``explowsyn`` tasks."""
    from repro.engine.task import CertificateResult, result_from_certificate

    pts, invariants = task.program.resolve()
    start = time.perf_counter()
    try:
        certificate = exp_low_syn(
            pts,
            invariants,
            assume_termination=bool(task.param("assume_termination", False)),
            verify=bool(task.param("verify", True)),
        )
    except Exception as exc:
        return CertificateResult.failure(task, exc, seconds=time.perf_counter() - start)
    return result_from_certificate(
        task.algorithm,
        certificate,
        seconds=time.perf_counter() - start,
        details={
            "init_location": pts.init_location,
            "termination_proved": certificate.termination_certificate is not None,
        },
    )
