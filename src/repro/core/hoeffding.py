"""HoeffdingSynthesis (Section 5.1): upper bounds via repulsing RSMs.

A ``(beta, delta, eps)``-repulsing ranking supermartingale (RepRSM) is an
affine ``eta`` over the states with

* (C1) ``eta(l_init, v_init) <= 0``,
* (C2) ``eta(l_fail, v) >= 0`` on ``I(l_fail)``,
* (C3) expected decrease by at least ``eps`` along every transition,
* (C4) one-step differences confined to ``[beta, beta + delta]``.

Theorem 5.1 turns any RepRSM into the pre fixed-point
``exp(8 eps / delta^2 * eta)`` via Hoeffding's lemma, so
``exp(8 eps / delta^2 * eta(l_init, v_init))`` bounds the violation
probability.  (The [CNZ17] baseline of Remark 2 is the same synthesis with
symmetric differences and the weaker Azuma factor ``4 eps / delta^2`` —
exposed here as ``factor="azuma"``.)

All four conditions are affine, so after fixing ``delta = 1`` (``eta``
scales freely) and eliminating "for all v in Psi" at the generators of
Psi's double description (one row per point, ray and line) they form an
LP — except for the bilinear objective ``8 * eps * omega``, handled by
Appendix C.2's Ser search (:mod:`repro.numeric.ser`): each probe fixes
``eps`` and minimizes ``omega`` (an upper bound on ``eta(l_init,
v_init)``) by LP.  The system is assembled once; ``eps`` is one of its
columns, pinned per probe, and the search reads ``omega``'s slope off
that column's marginal, which finds the exact optimum in a few LPs.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.errors import SynthesisError
from repro.numeric.lp import LinearProgram
from repro.numeric.ser import lp_eps_max, lp_oracle, sandwich_search
from repro.polyhedra.constraints import Polyhedron
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS
from repro.core.certificates import RepRSMData, UpperBoundCertificate, fail_reachable
from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.templates import ExpTemplate

__all__ = ["hoeffding_synthesis", "azuma_baseline", "synthesize", "synthesize_probe"]

EPS = "_eps"
OMEGA = "_omega"
BETA = "_beta"


def _eta_of_update(
    pts: PTS, template: ExpTemplate, dst: str, update
) -> Tuple[Dict[str, LinExpr], Dict[str, LinExpr], LinExpr]:
    """``eta_dst(upd(v, r))`` split into (v-coeffs, r-coeffs, const), all
    affine over the unknowns."""
    v_coeffs: Dict[str, LinExpr] = {}
    r_coeffs: Dict[str, LinExpr] = {}
    const = template.const(dst)
    for w in pts.program_vars:
        a_w = template.coeff(dst, w)
        expr = update.expr_for(w)
        const = const + a_w * expr.const
        for name, coeff in expr.coeffs.items():
            bucket = r_coeffs if name in pts.distributions else v_coeffs
            bucket[name] = bucket.get(name, LinExpr.constant(0)) + a_w * coeff
    return v_coeffs, r_coeffs, const


def _support_box(pts: PTS) -> Polyhedron:
    """The box of all sampling-variable supports (raises if unbounded)."""
    bounds = {}
    for r, dist in pts.distributions.items():
        lo, hi = dist.bounded_support()
        bounds[r] = (lo, hi)
    return Polyhedron.from_box(bounds)


def _add_conditions(
    lp: LinearProgram, pts: PTS, invariants: InvariantMap, template: ExpTemplate
) -> None:
    """All RepRSM conditions as rows over the unknowns (template
    coefficients and ``_eps``/``_omega``/``_beta``)."""
    # (C1) eta(init) <= omega <= 0
    lp.add_le(template.eta_initial() - LinExpr.variable(OMEGA), "C1")
    lp.add_le(LinExpr.variable(OMEGA), "C1:omega")
    # eps >= 0
    lp.add_le(-LinExpr.variable(EPS), "eps>=0")

    # (C2) eta must be nonnegative at every state that *enters* l_fail.
    # The paper states C2 over I(l_fail); Theorem 5.1's proof only uses it
    # at successors of transitions into l_fail, so we encode exactly that —
    # for each fork into l_fail: eta_fail(upd(v, r)) >= 0 on Psi x U.  This
    # is strictly more precise than a box invariant at l_fail (which cannot
    # express relational facts like 3DWalk's x+y+z ~ 1000 slab) and remains
    # a block of linear rows.  Psi x U's generators are Psi's combined with
    # the support box's vertices.
    box = _support_box(pts).generators() if pts.distributions else None
    premises = invariants.premises()
    extended = {
        t_index: psi.generators() if box is None else psi.generators().product(box)
        for t_index, _, psi in premises
    }
    for t_index, t, _ in premises:
        fail_forks = [f for f in t.forks if f.destination == pts.fail_location]
        for f_index, fork in enumerate(fail_forks):
            v_coeffs, r_coeffs, const = _eta_of_update(
                pts, template, pts.fail_location, fork.update
            )
            coeffs = {v: -e for v, e in v_coeffs.items()}
            coeffs.update({r: -e for r, e in r_coeffs.items()})
            label = f"C2@T{t_index}.{f_index}"
            lp.add_rows(*extended[t_index].implication_rows(coeffs, const, label))

    for t_index, t, psi in premises:
        label = f"T{t_index}:{t.name}"

        # (C3) sum_j p_j E[eta_dst(upd_j(v, r))] <= eta_src(v) - eps on Psi
        c3_coeffs: Dict[str, LinExpr] = {
            v: -template.coeff(t.source, v) for v in pts.program_vars
        }
        c3_rhs = template.const(t.source) - LinExpr.variable(EPS)
        for fork in t.forks:
            v_coeffs, r_coeffs, const = _eta_of_update(
                pts, template, fork.destination, fork.update
            )
            p = fork.probability
            for v, expr in v_coeffs.items():
                c3_coeffs[v] = c3_coeffs.get(v, LinExpr.constant(0)) + expr * p
            mean_part = const
            for r, expr in r_coeffs.items():
                mean_part = mean_part + expr * pts.distributions[r].mean()
            c3_rhs = c3_rhs - mean_part * p
        lp.add_rows(*psi.generators().implication_rows(c3_coeffs, c3_rhs, f"{label}:C3"))

        # (C4) beta <= eta_dst(upd(v, r)) - eta_src(v) <= beta + 1 on Psi x U
        for f_index, fork in enumerate(t.forks):
            v_coeffs, r_coeffs, const = _eta_of_update(
                pts, template, fork.destination, fork.update
            )
            diff_v = {
                v: v_coeffs.get(v, LinExpr.constant(0)) - template.coeff(t.source, v)
                for v in pts.program_vars
            }
            diff_const = const - template.const(t.source)
            beta = LinExpr.variable(BETA)
            # beta - D <= 0: (-diff) . (v, r) <= diff_const - beta
            lower_coeffs = {v: -e for v, e in diff_v.items()}
            lower_coeffs.update({r: -e for r, e in r_coeffs.items()})
            lp.add_rows(
                *extended[t_index].implication_rows(
                    lower_coeffs, diff_const - beta, f"{label}:C4lo[{f_index}]"
                )
            )
            # D - beta - 1 <= 0: diff . (v, r) <= beta + 1 - diff_const
            upper_coeffs = dict(diff_v)
            upper_coeffs.update(r_coeffs)
            lp.add_rows(
                *extended[t_index].implication_rows(
                    upper_coeffs, beta + 1 - diff_const, f"{label}:C4hi[{f_index}]"
                )
            )


def _assemble_lp(
    pts: PTS, invariants: InvariantMap, template: ExpTemplate, factor: str
) -> LinearProgram:
    """The full (C1)-(C4) system for ``factor``, assembled once as an LP.

    Deterministic in its inputs, so a worker process rebuilding the system
    from a program spec solves exactly the LP the parent would have solved.
    """
    lp = LinearProgram()
    _add_conditions(lp, pts, invariants, template)
    if factor == "azuma":
        # [CNZ17] via Azuma's inequality: symmetric differences beta = -delta/2
        lp.add_eq(LinExpr.variable(BETA) + Fraction(1, 2), label="azuma:beta")
    return lp


def _synthesize(
    pts: PTS,
    invariants: Optional[InvariantMap],
    factor: str,
    eps_cap: float,
    verify: bool,
) -> UpperBoundCertificate:
    start = time.perf_counter()
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    template = ExpTemplate(pts, include_sinks=True)
    if not fail_reachable(pts, invariants):
        # the invariant proves no transition into l_fail is ever enabled,
        # so vpf = 0.  The stored function is theta = 1 (a trivial pre
        # fixed-point); the -inf bound rests on that premise check, which
        # UpperBoundCertificate.verify repeats
        zero = template.instantiate({})
        for sink in (pts.term_location, pts.fail_location):
            zero.coeffs.pop(sink, None)
            zero.consts.pop(sink, None)
        return UpperBoundCertificate(
            method=factor,
            log_bound=float("-inf"),
            state_function=zero,
            pts=pts,
            invariants=invariants,
            solve_seconds=time.perf_counter() - start,
            solver_info="failure sink unreachable under the invariant",
        )
    lp = _assemble_lp(pts, invariants, template, factor)
    multiplier = 8.0 if factor == "hoeffding" else 4.0

    # Step 1 of Ser: feasibility and the eps range; an unbounded eps is
    # capped (the bound becomes astronomically small).
    eps_max = lp_eps_max(lp, EPS, eps_cap)
    if eps_max is None:
        raise SynthesisError(
            f"{factor}: RepRSM constraint system is infeasible "
            "(no affine repulsing supermartingale exists for this invariant)"
        )
    if eps_max <= 0:
        return _trivial_certificate(pts, invariants, template, factor, start)

    # Step 2: minimize multiplier * eps * omega*(eps) over omega*'s pieces.
    result = sandwich_search(
        lp_oracle(lp, LinExpr.variable(OMEGA), EPS), 0.0, eps_max, multiplier
    )
    if not result.found or result.value >= 0:
        return _trivial_certificate(pts, invariants, template, factor, start)
    assignment = lp.assignment(result.payload.x)
    eps_star = assignment[EPS]
    beta_star = assignment.get(BETA, 0.0)
    eta = template.instantiate(assignment)
    init_val = {k: float(v) for k, v in pts.init_valuation.items()}
    eta_init = eta.exponent(pts.init_location, init_val)
    scale = multiplier * eps_star
    log_bound = min(scale * eta_init, 0.0)

    scaled = template.instantiate(
        {name: scale * value for name, value in assignment.items() if name.startswith(("a(", "b("))}
    )
    # the fixed-point view only owns interior rows; sinks use the 0/1 convention
    for sink in (pts.term_location, pts.fail_location):
        scaled.coeffs.pop(sink, None)
        scaled.consts.pop(sink, None)
    certificate = UpperBoundCertificate(
        method=factor,
        log_bound=log_bound,
        state_function=scaled,
        pts=pts,
        invariants=invariants,
        solve_seconds=time.perf_counter() - start,
        solver_info=f"Ser: {result.evaluations} LPs, eps*={eps_star:.6g}",
        reprsm=RepRSMData(eta=eta, eps=eps_star, beta=beta_star, delta=1.0),
    )
    if verify:
        certificate.verify()
    return certificate


def _trivial_certificate(pts, invariants, template, factor, start) -> UpperBoundCertificate:
    """The always-sound bound 1 (returned when no useful RepRSM exists)."""
    zero = template.instantiate({})
    for sink in (pts.term_location, pts.fail_location):
        zero.coeffs.pop(sink, None)
        zero.consts.pop(sink, None)
    return UpperBoundCertificate(
        method=factor,
        log_bound=0.0,
        state_function=zero,
        pts=pts,
        invariants=invariants,
        solve_seconds=time.perf_counter() - start,
        solver_info="trivial (no eps > 0 with omega < 0)",
        reprsm=RepRSMData(eta=template.instantiate({}), eps=0.0, beta=0.0),
    )


def hoeffding_synthesis(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    eps_cap: float = 1e4,
    verify: bool = True,
) -> UpperBoundCertificate:
    """The Section 5.1 algorithm: RepRSM synthesis + Hoeffding's lemma.

    Polynomial-time and sound but incomplete; bounds are provably tighter
    than the Azuma-based [CNZ17] baseline (Remark 2) but generally looser
    than :func:`~repro.core.explinsyn.exp_lin_syn`.
    """
    return _synthesize(pts, invariants, "hoeffding", eps_cap, verify)


def azuma_baseline(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    eps_cap: float = 1e4,
    verify: bool = False,
) -> UpperBoundCertificate:
    """The [CNZ17] stochastic-invariant baseline (Remark 2).

    Same RepRSM synthesis restricted to symmetric differences
    (``beta = -delta/2``) with the Azuma factor ``4 eps / delta^2`` — the
    most favourable reading of the prior work's bound, so every comparison
    in our tables is conservative.
    """
    return _synthesize(pts, invariants, "azuma", eps_cap, verify)


# -- analysis-engine protocol -------------------------------------------------------


def synthesize_probe(task, deps=None, engine=None):
    """Engine entry for ``hoeffding_probe`` tasks: one Ser oracle call, i.e.
    ``omega*`` and its slope at the task's ``eps`` on the assembled LP."""
    from repro.engine.task import CertificateResult

    factor = task.param("factor", "hoeffding")
    eps = float(task.param("eps"))
    pts, invariants = task.program.resolve()
    lp = _assemble_lp(pts, invariants, ExpTemplate(pts, include_sinks=True), factor)
    start = time.perf_counter()
    point = lp_oracle(lp, LinExpr.variable(OMEGA), EPS)(eps)
    details = {"omega": None, "slope": None, "assignment": None}
    if point is not None:
        omega, slope, result = point
        details.update(omega=omega, slope=slope, assignment=lp.assignment(result.x))
    return CertificateResult(
        algorithm=task.algorithm,
        status="ok",
        seconds=time.perf_counter() - start,
        details=details,
    )


def synthesize(task, deps=None, engine=None):
    """Engine entry point for ``hoeffding``/``azuma`` tasks."""
    from repro.engine.task import CertificateResult, result_from_certificate

    factor = "azuma" if task.algorithm == "azuma" else "hoeffding"
    eps_cap = float(task.param("eps_cap", 1e4))
    verify = bool(task.param("verify", factor == "hoeffding"))
    pts, invariants = task.program.resolve()
    start = time.perf_counter()
    try:
        certificate = _synthesize(pts, invariants, factor, eps_cap, verify)
    except Exception as exc:
        return CertificateResult.failure(task, exc, seconds=time.perf_counter() - start)
    details = {"init_location": pts.init_location}
    if certificate.reprsm is not None:
        details.update(
            reprsm_eps=certificate.reprsm.eps,
            reprsm_beta=certificate.reprsm.beta,
            reprsm_eta_init=certificate.reprsm.eta.render(pts.init_location),
        )
    return result_from_certificate(
        task.algorithm,
        certificate,
        seconds=time.perf_counter() - start,
        details=details,
    )
