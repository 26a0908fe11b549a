"""Baselines from prior work, for the "Previous Results" columns.

Three prior methods appear in the paper's Tables 1 and 2:

* **[CS13] (Chakarov & Sankaranarayanan)** — Deviation benchmarks: for a
  program accumulating ``n`` independent bounded increments, the endpoint
  Hoeffding inequality ``Pr[X - E[X] >= d] <= exp(-2 d^2 / (n c^2))``
  (:func:`cs13_deviation_bound`).  The paper's RdAdder "previous results"
  column matches this formula exactly (n = 500, c = 1).
* **[CFNH18] (Chatterjee, Fu, Novotny, Hasheminezhad)** — Concentration
  benchmarks: synthesize a difference-bounded ranking supermartingale and
  apply the one-sided Azuma inequality
  ``Pr[T > n] <= exp(-(eps n - rho_0)^2 / (2 n c^2))`` for ``eps n > rho_0``
  (:func:`cfnh18_concentration_bound`).
* **[CNZ17] (Chatterjee, Novotny, Zikelic)** — StoInv benchmarks: RepRSM +
  Azuma, implemented as :func:`repro.core.hoeffding.azuma_baseline`
  (Remark 2's reading, which is *favourable* to the baseline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import InfeasibleError, SolverError, SynthesisError
from repro.numeric.lp import LinearProgram
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS
from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.templates import ExpTemplate

__all__ = [
    "cs13_deviation_bound",
    "BoundedRSM",
    "synthesize_bounded_rsm",
    "cfnh18_concentration_bound",
    "cfnh18_best_bound",
]


def cs13_deviation_bound(n: int, deviation: float, increment_range: float = 1.0) -> float:
    """Endpoint Hoeffding bound ``exp(-2 d^2 / (n c^2))`` in log space.

    Returns the *log* of the bound (consistent with the rest of the
    library).  ``n`` independent increments each confined to an interval of
    width ``increment_range``.
    """
    if n <= 0 or increment_range <= 0:
        raise ValueError("need n > 0 and a positive increment range")
    if deviation <= 0:
        return 0.0  # trivial bound 1
    return -2.0 * deviation * deviation / (n * increment_range * increment_range)


@dataclass
class BoundedRSM:
    """A ranking supermartingale with unit expected decrease and one-step
    differences bounded by ``c`` in absolute value."""

    rho0: float  # rank of the initial state
    c: float  # difference bound
    eps: float = 1.0
    solve_seconds: float = 0.0


#: the LP columns of the difference bound ``c`` and of its cap
C_BOUND = "_c_bound"
C_CAP = "_c_cap"


def _bounded_rsm_lp(pts: PTS, invariants: InvariantMap, template: ExpTemplate) -> LinearProgram:
    """The difference-bounded RSM conditions as one LP, with the cap on ``c``
    as the free column ``_c_cap`` (row ``c <= cap``): a solve that pins it
    imposes the cap, and one that leaves it free imposes none."""
    lp = LinearProgram()
    c_var = LinExpr.variable(C_BOUND)
    lp.add_le(1 - c_var, "c>=1")
    lp.add_le(c_var - LinExpr.variable(C_CAP), "c<=cap")

    def implication(poly, coeffs, rhs, label: str) -> None:
        lp.add_rows(*poly.generators().implication_rows(coeffs, rhs, label))

    for loc in pts.interior_locations:
        coeffs = {v: -template.coeff(loc, v) for v in pts.program_vars}
        implication(invariants.of(loc), coeffs, template.const(loc), f"nn@{loc}")

    sampling_means = {r: d.mean() for r, d in pts.distributions.items()}

    for t_index, t, psi in invariants.premises():
        decrease_coeffs: Dict[str, LinExpr] = {
            v: -template.coeff(t.source, v) for v in pts.program_vars
        }
        decrease_rhs = template.const(t.source) - 1
        for fork in t.forks:
            dst = fork.destination
            p = fork.probability
            dst_coeffs: Dict[str, LinExpr] = {}
            dst_const = (
                LinExpr.constant(0) if pts.is_sink(dst) else template.const(dst)
            )
            if not pts.is_sink(dst):
                for w in pts.program_vars:
                    a_w = template.coeff(dst, w)
                    expr = fork.update.expr_for(w)
                    mean_const = expr.const
                    for name, coeff in expr.coeffs.items():
                        if name in pts.distributions:
                            mean_const = mean_const + coeff * sampling_means[name]
                        else:
                            dst_coeffs[name] = (
                                dst_coeffs.get(name, LinExpr.constant(0)) + a_w * coeff
                            )
                    dst_const = dst_const + a_w * mean_const
            for v, e in dst_coeffs.items():
                decrease_coeffs[v] = decrease_coeffs.get(v, LinExpr.constant(0)) + e * p
            decrease_rhs = decrease_rhs - dst_const * p
            if pts.is_sink(dst):
                # the Azuma argument runs on the *stopped* process: one-step
                # differences at the stopping time are irrelevant
                continue
            # difference bound |rho(next) - rho(cur)| <= c at the mean draw
            diff_coeffs = {
                v: dst_coeffs.get(v, LinExpr.constant(0)) - template.coeff(t.source, v)
                for v in pts.program_vars
            }
            diff_const = dst_const - template.const(t.source)
            implication(psi, diff_coeffs, c_var - diff_const, f"dhi@T{t_index}")
            implication(
                psi, {v: -e for v, e in diff_coeffs.items()}, c_var + diff_const, f"dlo@T{t_index}"
            )
        implication(psi, decrease_coeffs, decrease_rhs, f"dec@T{t_index}")
    return lp


def _bounded_rsm(
    pts: PTS, template: ExpTemplate, lp: LinearProgram, c_cap: Optional[float]
) -> BoundedRSM:
    """Solve ``lp`` (from :func:`_bounded_rsm_lp`) under ``c_cap``."""
    start = time.perf_counter()
    rank = template.eta_initial()
    try:
        if c_cap is not None:
            # the cap fixes the difference budget: spend it all on rho_0
            assignment = lp.solve(minimize=rank, fix=(C_CAP, float(c_cap)))
        else:
            # lexicographic-ish: difference bound dominates, then rho_0
            assignment = lp.solve(minimize=LinExpr.variable(C_BOUND) * 1000 + rank)
    except (InfeasibleError, SolverError) as exc:
        raise SynthesisError(f"no difference-bounded RSM found: {exc}")
    rho = template.instantiate(assignment)
    rho0 = rho.exponent(
        pts.init_location, {k: float(v) for k, v in pts.init_valuation.items()}
    )
    return BoundedRSM(
        rho0=max(rho0, 0.0),
        c=assignment[C_BOUND],
        solve_seconds=time.perf_counter() - start,
    )


def synthesize_bounded_rsm(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    c_cap: Optional[float] = None,
) -> BoundedRSM:
    """Synthesize a difference-bounded RSM by one LP over the premises'
    generators.

    Normalizing ``eps = 1``, the LP minimizes the difference bound ``c``
    first and the initial rank second.  ``c_cap`` optionally fixes an upper
    bound on ``c`` so callers can trade difference size against initial
    rank (see :func:`cfnh18_best_bound`).
    """
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    template = ExpTemplate(pts, include_sinks=False)
    return _bounded_rsm(pts, template, _bounded_rsm_lp(pts, invariants, template), c_cap)


def cfnh18_best_bound(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    n: float = 0.0,
    c_grid: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0),
) -> float:
    """Best [CFNH18] Azuma bound over a grid of difference caps.

    For each cap the LP minimizes the initial rank; the reported bound is
    the best resulting Azuma exponent.  (A single lexicographic LP can pick
    a useless time-based rank — small differences but ``rho_0 > n``.)  The
    LP is assembled once and each cap pins its cap column.
    """
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    template = ExpTemplate(pts, include_sinks=False)
    lp = _bounded_rsm_lp(pts, invariants, template)
    best = 0.0  # the trivial bound 1
    for cap in c_grid:
        try:
            rsm = _bounded_rsm(pts, template, lp, cap)
        except SynthesisError:
            continue
        best = min(best, cfnh18_concentration_bound(rsm, n))
    return best


def cfnh18_concentration_bound(rsm: BoundedRSM, n: float) -> float:
    """Log of the [CFNH18] Azuma concentration bound ``Pr[T > n]``.

    One-sided Azuma-Hoeffding on the supermartingale ``rho + eps * t``:
    after ``n`` steps without termination the process has moved at least
    ``eps n - rho_0`` against differences bounded by ``c + eps``, so
    ``Pr[T > n] <= exp(-(eps n - rho_0)^2 / (2 n (c + eps)^2))`` whenever
    ``eps n > rho_0`` (trivial bound 1 otherwise).
    """
    drift = rsm.eps * n - rsm.rho0
    if drift <= 0:
        return 0.0
    width = rsm.c + rsm.eps
    return -(drift * drift) / (2.0 * n * width * width)
