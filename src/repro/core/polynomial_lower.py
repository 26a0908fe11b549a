"""Polynomial-exponent lower bounds (Remark 5), via Handelman + LP.

The Section 6 pipeline with polynomial templates: after Jensen's
inequality the post fixed-point constraint on ``exp(eta)`` becomes a
*polynomial* inequality over each transition's premise, which Handelman's
Positivstellensatz turns into an LP — the SDP-free counterpart of the
paper's Positivstellensatz suggestion.

Scope mirrors :func:`repro.core.polynomial.polynomial_hoeffding_synthesis`:
fork randomness only, and every premise/invariant must be a bounded
polytope (Handelman's compactness requirement).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Optional

from repro.errors import (
    InfeasibleError,
    ModelError,
    SolverError,
    SynthesisError,
    VerificationError,
)
from repro.numeric.lp import LinearProgram
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS
from repro.utils.numbers import as_fraction
from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.polynomial import Polynomial, _poly_template, handelman_constraints
from repro.core.termination import prove_almost_sure_termination

__all__ = ["PolynomialLowerBound", "polynomial_exp_low_syn", "synthesize"]


class PolynomialLowerBound:
    """A verified polynomial-exponent lower bound certificate."""

    def __init__(self, pts, invariants, templates, assignment, log_bound, solve_seconds):
        self.pts = pts
        self.invariants = invariants
        self.templates = templates
        self.assignment = assignment
        self.log_bound = float(log_bound)
        self.solve_seconds = solve_seconds
        self.method = "polynomial-explowsyn"

    @property
    def bound(self) -> float:
        return math.exp(min(self.log_bound, 0.0))

    def verify(self, tol: float = 1e-6, samples: int = 6, seed: int = 23) -> None:
        """Sample-based re-check of the Jensen-strengthened post fixed-point."""
        from repro.core.certificates import sample_psi_points

        rng = random.Random(seed)
        pts = self.pts
        for t in pts.transitions:
            psi = self.invariants.of(t.source).intersect(t.guard)
            psi = psi.with_variables(pts.program_vars)
            for point in sample_psi_points(psi, rng, count=samples):
                current = self.templates[t.source].evaluate(point, self.assignment)
                q = 0.0
                mean = 0.0
                for fork in t.forks:
                    if fork.destination == pts.term_location:
                        continue
                    p = float(fork.probability)
                    q += p
                    nxt = {
                        v: fork.update.expr_for(v).evaluate_float(point)
                        for v in pts.program_vars
                    }
                    if fork.destination == pts.fail_location:
                        post = 0.0
                    else:
                        post = self.templates[fork.destination].evaluate(
                            nxt, self.assignment
                        )
                    mean += p * (post - current)
                if q <= 0.0:
                    raise VerificationError(
                        f"all mass terminates along {t.name!r}; the bound is vacuous"
                    )
                lhs = mean / q
                if lhs < -math.log(q) - tol * max(1.0, abs(current)):
                    raise VerificationError(
                        f"Jensen post fixed-point violated at {t.name!r} {point}"
                    )


def polynomial_exp_low_syn(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    degree: int = 2,
    handelman_degree: Optional[int] = None,
    assume_termination: bool = False,
    verify: bool = True,
) -> PolynomialLowerBound:
    """Section 6 with polynomial exponents (Remark 5)."""
    start = time.perf_counter()
    if pts.distributions:
        raise ModelError(
            "polynomial lower bounds currently support fork randomness only"
        )
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    if not assume_termination:
        prove_almost_sure_termination(pts, invariants)
    handelman_degree = handelman_degree or degree + 1

    templates, unknowns = _poly_template(pts, degree)
    # theta(l_fail) = 1 and theta(l_term) = 0: exponent 0 / -inf; encode by
    # dropping term-forks and using exponent-0 templates at the fail sink
    zero_poly = Polynomial.constant(0)

    lp = LinearProgram()
    for name in unknowns:
        lp.add_variable(name)
    lp.add_variable("_M", lower=0.0)
    m_poly = Polynomial({(): LinExpr.variable("_M")})

    # boundedness: M - eta >= 0 on each interior invariant
    for loc in pts.interior_locations:
        inv = invariants.of(loc)
        if inv.is_empty():
            continue
        handelman_constraints(m_poly - templates[loc], inv, lp, handelman_degree, f"bound@{loc}")

    # Jensen-strengthened post fixed-point per transition
    for t_index, t, psi in invariants.premises():
        kept = [f for f in t.forks if f.destination != pts.term_location]
        q = sum((f.probability for f in kept), Fraction(0))
        if q == 0:
            raise SynthesisError(
                f"transition {t.name!r} moves all probability to termination"
            )
        ln_q = 0.0 if q == 1 else math.log(float(q)) - 1e-12
        mean = Polynomial.constant(0)
        for fork in kept:
            mapping = {v: fork.update.expr_for(v) for v in pts.program_vars}
            post = (
                zero_poly
                if fork.destination == pts.fail_location
                else templates[fork.destination].substitute_affine(mapping)
            )
            mean = mean + (post - templates[t.source]).scale(fork.probability / q)
        target = mean + Polynomial.constant(as_fraction(ln_q))
        handelman_constraints(target, psi, lp, handelman_degree, f"jensen@T{t_index}")

    # objective: maximize eta(init)
    init_val = {v: pts.init_valuation[v] for v in pts.program_vars}
    eta_init = templates[pts.init_location].at_point(init_val)
    try:
        assignment = lp.solve(minimize=-eta_init)
    except (InfeasibleError, SolverError) as exc:
        raise SynthesisError(f"polynomial ExpLowSyn failed: {exc}")

    log_bound = min(
        templates[pts.init_location].evaluate(
            {k: float(v) for k, v in init_val.items()}, assignment
        ),
        0.0,
    )
    certificate = PolynomialLowerBound(
        pts, invariants, templates, assignment, log_bound, time.perf_counter() - start
    )
    if verify:
        certificate.verify()
    return certificate


# -- analysis-engine protocol -------------------------------------------------------


def synthesize(task, deps=None, engine=None):
    """Engine entry point for ``polynomial_lower`` tasks.

    :class:`PolynomialLowerBound` does not share the exponential-template
    certificate API (no per-location affine render), so the result carries
    the bound and degrees only.
    """
    from repro.engine.task import CertificateResult

    pts, invariants = task.program.resolve()
    degree = int(task.param("degree", 2))
    handelman_degree = task.param("handelman_degree")
    start = time.perf_counter()
    try:
        certificate = polynomial_exp_low_syn(
            pts,
            invariants,
            degree=degree,
            handelman_degree=None if handelman_degree is None else int(handelman_degree),
            assume_termination=bool(task.param("assume_termination", False)),
            verify=bool(task.param("verify", True)),
        )
    except Exception as exc:
        return CertificateResult.failure(task, exc, seconds=time.perf_counter() - start)
    return CertificateResult(
        algorithm=task.algorithm,
        status="ok",
        log_bound=certificate.log_bound,
        seconds=time.perf_counter() - start,
        solver_info=f"Handelman LP, degree {degree}",
        details={"init_location": pts.init_location, "degree": degree},
    )
