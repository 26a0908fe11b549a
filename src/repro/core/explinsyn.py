"""ExpLinSyn (Section 5.2): sound and complete exponential upper bounds.

Pipeline, mirroring the paper's five steps:

1. **Templates** — ``theta(l, v) = exp(a_l . v + b_l)`` per interior
   location, ``theta(l_term) = 0``, ``theta(l_fail) = 1``
   (:class:`~repro.core.templates.ExpTemplate`).
2. **Constraints** — the pre fixed-point condition per transition.
3. **Canonicalization** — divide by ``theta(l_src, v)``
   (:mod:`repro.core.canonical`).
4. **Quantifier elimination** — Minkowski-decompose each ``Psi = Q + C``
   (double description).  Proposition 1 splits the constraint into

   * (D1) each exponent slope ``alpha_j`` must be non-increasing along the
     recession cone ``C``.  The paper encodes this with Farkas multipliers;
     we use the equivalent *polar form* read off the same DD run: for every
     generating ray ``r`` of ``C``, ``alpha_j . r <= 0``, and for every line
     ``l``, ``alpha_j . l == 0``
     (:meth:`~repro.polyhedra.dd.GeneratorSet.implication_rows`, the
     encoding every synthesis family uses).  These are plain linear
     constraints over the unknowns — no fresh multiplier variables inside
     the convex solve.
   * (D2) the canonical inequality at every generator point of ``Q`` — a
     log-sum-exp (convex) constraint after expanding ``E[exp(gamma . r)]``
     (discrete distributions expand exactly into atom sums; continuous ones
     contribute their closed-form log-MGF as a smooth convex factor).
5. **Optimization** — minimize ``a_init . v_init + b_init`` (the log of the
   reported bound) with the convex solver's phase-I + log-barrier method,
   which reaches the unique optimal value (Theorem 5.4) from no start
   point; the returned point is verified independently by
   :meth:`UpperBoundCertificate.verify`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SynthesisError
from repro.numeric.convex import ConvexProgram
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.minkowski import MinkowskiDecomposition, decompose
from repro.pts.model import PTS
from repro.core.canonical import CanonicalConstraint, CanonicalTerm, canonicalize
from repro.core.certificates import UpperBoundCertificate
from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.templates import ExpTemplate

__all__ = ["exp_lin_syn", "synthesize"]


def _expand_term_at_point(
    pts: PTS, term: CanonicalTerm, point: Dict[str, Fraction]
) -> List[Tuple[float, LinExpr, List]]:
    """Expand one canonical term at a generator point into LSE term specs.

    Products of discrete MGFs expand into the cartesian product of their
    atoms (each combination is one exponential of an affine function of the
    unknowns); continuous sampling variables stay symbolic as smooth
    log-MGF factors.
    """
    base_affine = term.alpha_at(point)
    discrete: List[Tuple[str, List[Tuple[Fraction, Fraction]]]] = []
    smooth: List[Tuple] = []
    for r, gamma in term.gamma.items():
        dist = pts.distributions[r]
        atoms = dist.atoms()
        if atoms is not None:
            discrete.append((r, atoms))
        else:
            smooth.append((dist, gamma))
    specs: List[Tuple[float, LinExpr, List]] = []
    if not discrete:
        specs.append((float(term.prob), base_affine, smooth))
        return specs
    atom_lists = [atoms for _, atoms in discrete]
    names = [r for r, _ in discrete]
    for combo in product(*atom_lists):
        weight = float(term.prob)
        affine = base_affine
        for name, (p_atom, value) in zip(names, combo):
            weight *= float(p_atom)
            affine = affine + term.gamma[name] * value
        specs.append((weight, affine, smooth))
    return specs


@dataclass
class _EliminatedConstraint:
    """Bookkeeping of one canonical constraint after quantifier elimination."""

    constraint: CanonicalConstraint
    decomposition: MinkowskiDecomposition
    generator_points: List[Dict[str, Fraction]]


def _eliminate(
    pts: PTS,
    constraints: Sequence[CanonicalConstraint],
    program: ConvexProgram,
) -> List[_EliminatedConstraint]:
    """Apply Proposition 1 to every canonical constraint, filling ``program``."""
    eliminated: List[_EliminatedConstraint] = []
    for k, con in enumerate(constraints):
        dec = decompose(con.psi)  # nonempty: canonicalize keeps only live premises
        label = f"{con.transition_name}#{k}"
        # (D1): alpha_j . v <= 0 on the recession cone, at its generators
        cone = dec.generators.cone()
        for term_idx, term in enumerate(con.terms):
            d1_le, d1_eq = cone.implication_rows(
                term.alpha, LinExpr.constant(0), f"{label}:D1[{term_idx}]"
            )
            program.add_linear_le_many(d1_le)
            program.add_linear_eq_many(d1_eq)
        # (D2): the convex inequality at each generator point of the polytope.
        for p_idx, point in enumerate(dec.polytope_points):
            specs: List[Tuple[float, LinExpr, List]] = []
            for term in con.terms:
                specs.extend(_expand_term_at_point(pts, term, point))
            if not specs:
                continue  # all forks terminate: sum is 0 <= 1, trivially true
            program.add_lse(specs, label=f"{label}:D2[{p_idx}]")
        eliminated.append(
            _EliminatedConstraint(con, dec, dec.polytope_points)
        )
    return eliminated


def exp_lin_syn(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    margin: float = 1e-9,
    verify: bool = True,
) -> UpperBoundCertificate:
    """Synthesize an exponential upper bound on the assertion violation
    probability of an affine PTS (the paper's complete algorithm).

    ``invariants`` defaults to automatically generated interval invariants.
    Returns an :class:`UpperBoundCertificate` whose ``log_bound`` is
    ``eta(l_init, v_init)``; ``verify=True`` (default) re-checks the
    certificate and raises :class:`VerificationError` on failure.
    """
    start = time.perf_counter()
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    template = ExpTemplate(pts, include_sinks=False)
    constraints = canonicalize(pts, invariants, template)
    program = ConvexProgram()
    for name in template.unknowns():
        program.add_unknown(name)
    eliminated = _eliminate(pts, constraints, program)
    program.set_objective(template.eta_initial())
    solution = program.solve(margin=margin)
    if not solution.feasible:
        raise SynthesisError(
            f"ExpLinSyn: solver returned an infeasible point "
            f"(violation {solution.max_violation:.2e})"
        )
    state_function = template.instantiate(solution.assignment)
    log_bound = min(solution.objective, 0.0)  # probabilities never exceed 1
    certificate = UpperBoundCertificate(
        method="explinsyn",
        log_bound=log_bound,
        state_function=state_function,
        pts=pts,
        invariants=invariants,
        solve_seconds=time.perf_counter() - start,
        solver_info=f"{solution.method}, violation {solution.max_violation:.1e}",
    )
    if verify:
        certificate.verify()
    return certificate


# -- analysis-engine protocol -------------------------------------------------------


def synthesize(task, deps=None, engine=None):
    """Engine entry point for ``explinsyn`` tasks."""
    from repro.engine.task import CertificateResult, result_from_certificate

    pts, invariants = task.program.resolve()
    start = time.perf_counter()
    try:
        certificate = exp_lin_syn(
            pts,
            invariants,
            margin=float(task.param("margin", 1e-9)),
            verify=bool(task.param("verify", True)),
        )
    except Exception as exc:
        return CertificateResult.failure(task, exc, seconds=time.perf_counter() - start)
    return result_from_certificate(
        task.algorithm,
        certificate,
        seconds=time.perf_counter() - start,
        details={"init_location": pts.init_location},
    )
