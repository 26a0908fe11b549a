"""Polynomial-exponent extension (Remarks 3 and 5 of the paper).

The paper notes that HoeffdingSynthesis and ExpLowSyn extend from affine to
*polynomial* exponents via Positivstellensatz certificates and semidefinite
programming.  No SDP solver ships offline, so this module implements the
LP-based alternative: **Handelman's Positivstellensatz** — over a compact
polytope ``P = {v : h_1(v) >= 0, ..., h_m(v) >= 0}``, every polynomial
strictly positive on ``P`` is a nonnegative combination of products
``h_1^{a_1} ... h_m^{a_m}``.  Encoding a bounded-degree combination and
matching monomial coefficients yields *linear* constraints, so polynomial
RepRSM synthesis stays an LP (plus the same Ser search over ``eps``).

The trade against the paper's SDP route: Handelman needs compact premises
(we check boundedness and refuse otherwise) and a degree budget, but is
exact rational LP — no SDP numerics.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ModelError, SynthesisError
from repro.numeric.lp import LinearProgram
from repro.numeric.ser import lp_eps_max, lp_oracle, sandwich_search
from repro.polyhedra.constraints import Polyhedron
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS
from repro.utils.numbers import Number, as_fraction
from repro.core.certificates import UpperBoundCertificate
from repro.core.invariants import InvariantMap, generate_interval_invariants

__all__ = ["Polynomial", "handelman_constraints", "polynomial_hoeffding_synthesis"]

Monomial = Tuple[Tuple[str, int], ...]  # sorted ((var, power), ...)


@lru_cache(maxsize=65536)
def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials, memoized — Handelman basis construction and
    affine substitution multiply the same small monomial pairs over and over
    (and interning the result tuples deduplicates the term-dict keys)."""
    powers: Dict[str, int] = dict(a)
    for v, p in b:
        powers[v] = powers.get(v, 0) + p
    return tuple(sorted((v, p) for v, p in powers.items() if p > 0))


def _mono_degree(m: Monomial) -> int:
    return sum(p for _, p in m)


class Polynomial:
    """A multivariate polynomial with :class:`LinExpr` coefficients.

    Coefficients are affine expressions over *unknown template parameters*
    (plain rationals embed as constants), which is exactly what template
    synthesis needs: ``eta(l, v)`` is a polynomial in the program variables
    whose coefficients are the unknowns.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, LinExpr] = ()):  # type: ignore[assignment]
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: Dict[Monomial, LinExpr] = {}
        for mono, coeff in items:
            coeff = LinExpr.coerce(coeff)
            if not coeff.is_zero:
                clean[mono] = coeff
        self.terms: Dict[Monomial, LinExpr] = clean

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def constant(value) -> "Polynomial":
        return Polynomial({(): LinExpr.coerce(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial({((name, 1),): LinExpr.constant(1)})

    @staticmethod
    def from_linexpr(expr: LinExpr) -> "Polynomial":
        terms: Dict[Monomial, LinExpr] = {(): LinExpr.constant(expr.const)}
        for v, c in expr.coeffs.items():
            terms[((v, 1),)] = LinExpr.constant(c)
        return Polynomial(terms)

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, LinExpr.constant(0)) + coeff
        return Polynomial(terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: Dict[Monomial, LinExpr] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if not c1.is_constant and not c2.is_constant:
                    raise ModelError(
                        "product of two unknown-coefficient polynomials is "
                        "not affine in the unknowns"
                    )
                mono = _mono_mul(m1, m2)
                if c1.is_constant:
                    prod = c2 * c1.const
                else:
                    prod = c1 * c2.const
                out[mono] = out.get(mono, LinExpr.constant(0)) + prod
        return Polynomial(out)

    def scale(self, k) -> "Polynomial":
        k = as_fraction(k)
        return Polynomial({m: c * k for m, c in self.terms.items()})

    # -- queries -----------------------------------------------------------------
    def degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

    def monomials(self) -> List[Monomial]:
        return sorted(self.terms, key=lambda m: (_mono_degree(m), m))

    def coefficient(self, mono: Monomial) -> LinExpr:
        return self.terms.get(mono, LinExpr.constant(0))

    def substitute_affine(self, mapping: Mapping[str, LinExpr]) -> "Polynomial":
        """Substitute program variables by *constant-coefficient* affine
        expressions (an affine update), staying polynomial."""
        result = Polynomial.constant(0)
        for mono, coeff in self.terms.items():
            term = Polynomial({(): coeff})
            for v, power in mono:
                base = (
                    Polynomial.from_linexpr(mapping[v])
                    if v in mapping
                    else Polynomial.variable(v)
                )
                for _ in range(power):
                    term = term * base
            result = result + term
        return result

    def at_point(self, point: Mapping[str, Number]) -> LinExpr:
        """The polynomial evaluated at an exact program-variable point,
        leaving the unknown-coefficient structure symbolic — the affine
        expression synthesis needs for initial-state constraints and
        objectives."""
        result = LinExpr.constant(0)
        for mono, coeff in self.terms.items():
            value = Fraction(1)
            for v, p in mono:
                value *= as_fraction(point[v]) ** p
            result = result + coeff * value
        return result

    def evaluate(self, valuation: Mapping[str, float], assignment: Mapping[str, float]) -> float:
        """Numeric value given program-variable and unknown assignments."""
        total = 0.0
        for mono, coeff in self.terms.items():
            c = float(coeff.const)
            for name, k in coeff.coeffs.items():
                c += float(k) * assignment.get(name, 0.0)
            m = 1.0
            for v, p in mono:
                m *= float(valuation[v]) ** p
            total += c * m
        return total

    def __repr__(self) -> str:
        parts = []
        for mono in self.monomials():
            mono_str = "*".join(
                (v if p == 1 else f"{v}^{p}") for v, p in mono
            ) or "1"
            parts.append(f"({self.terms[mono]})*{mono_str}")
        return " + ".join(parts) or "0"


def _products_up_to_degree(
    generators: Sequence[Polynomial], degree: int
) -> List[Polynomial]:
    """All products ``h_{i_1} * ... * h_{i_k}`` with ``k <= degree``.

    The generators are affine (degree 1), so a product of ``k`` of them has
    degree exactly ``k``; enumerating multisets of generator indices covers
    the full Handelman basis up to the degree budget.
    """
    products: List[Polynomial] = [Polynomial.constant(1)]
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(
            range(len(generators)), total
        ):
            p = Polynomial.constant(1)
            for i in combo:
                p = p * generators[i]
            products.append(p)
    return products


#: Handelman basis cache, keyed by the premise's defining inequalities and
#: the degree budget.  The same premise polytope appears in one block per
#: RepRSM condition (C3, C4lo, C4hi, ...), so the basis — the expensive
#: polynomial-product enumeration — is shared.
_HANDELMAN_BASIS_CACHE: Dict[Tuple, List[Polynomial]] = {}


def _handelman_basis(polytope: Polyhedron, degree: int) -> List[Polynomial]:
    key = (tuple(ineq.expr for ineq in polytope.inequalities), degree)
    products = _HANDELMAN_BASIS_CACHE.get(key)
    if products is None:
        generators = [
            Polynomial.from_linexpr(-ineq.expr) for ineq in polytope.inequalities
        ]
        products = _products_up_to_degree(generators, degree)
        _HANDELMAN_BASIS_CACHE[key] = products
    return products


def handelman_constraints(
    target: Polynomial,
    polytope: Polyhedron,
    lp: LinearProgram,
    degree: int,
    label: str,
) -> None:
    """Add LP rows forcing ``target(v) >= 0`` for all ``v`` in ``polytope``.

    Requires a *bounded* polytope (checked).  Encodes ``target`` as a
    nonnegative combination of products of the polytope's defining
    inequalities up to ``degree`` and matches monomial coefficients.
    """
    if not polytope.is_bounded():
        raise ModelError(
            "Handelman's Positivstellensatz needs a compact premise; "
            f"the polyhedron for {label!r} is unbounded"
        )
    # defining inequalities as polynomials h_i >= 0, basis shared via cache
    products = _handelman_basis(polytope, degree)
    combo = Polynomial.constant(0)
    for k, product in enumerate(products):
        lam = f"_h({label})[{k}]"
        lp.add_variable(lam, lower=0.0)
        combo = combo + product * Polynomial({(): LinExpr.variable(lam)})
    difference = target - combo
    lp.add_eq_many(
        (difference.coefficient(mono), f"{label}:mono{mono}")
        for mono in sorted(set(difference.monomials()))
    )


def _poly_template(
    pts: PTS, degree: int
) -> Tuple[Dict[str, Polynomial], List[str]]:
    """Per-location polynomial templates with fresh unknown coefficients."""
    variables = pts.program_vars
    monos: List[Monomial] = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(variables, total):
            powers: Dict[str, int] = {}
            for v in combo:
                powers[v] = powers.get(v, 0) + 1
            monos.append(tuple(sorted(powers.items())))
    templates: Dict[str, Polynomial] = {}
    unknowns: List[str] = []
    locations = list(pts.interior_locations) + [pts.term_location, pts.fail_location]
    for loc in locations:
        terms = {}
        for mono in monos:
            name = f"c({loc})[{mono}]"
            unknowns.append(name)
            terms[mono] = LinExpr.variable(name)
        templates[loc] = Polynomial(terms)
    return templates, unknowns


def polynomial_hoeffding_synthesis(
    pts: PTS,
    invariants: Optional[InvariantMap] = None,
    degree: int = 2,
    handelman_degree: Optional[int] = None,
    eps_cap: float = 1e3,
    verify: bool = False,
) -> UpperBoundCertificate:
    """Section 5.1 with polynomial RepRSMs (Remark 3), via Handelman + LP.

    Works on PTSs whose per-transition premises ``I(l) /\\ guard`` are
    bounded polytopes and whose sampling is absent or degenerate (the C4
    support box is folded into the premise for discrete/point cases).
    Returns the usual Hoeffding-form certificate ``exp(8 eps eta(init))``.
    """
    start = time.perf_counter()
    if invariants is None:
        invariants = generate_interval_invariants(pts)
    if pts.distributions:
        raise ModelError(
            "polynomial RepRSM synthesis currently supports fork randomness "
            "only (no sampling variables)"
        )
    handelman_degree = handelman_degree or degree + 1
    templates, unknowns = _poly_template(pts, degree)

    lp = LinearProgram()
    for name in unknowns:
        lp.add_variable(name)
    lp.add_variable("_omega", upper=0.0)
    # eps is an LP column, so the Ser search pins it per probe on one system
    lp.add_variable("_eps", lower=0.0)
    eps = Polynomial({(): LinExpr.variable("_eps")})
    init_val = {v: pts.init_valuation[v] for v in pts.program_vars}
    # (C1): eta(init) <= omega
    eta_init = templates[pts.init_location].at_point(init_val)
    lp.add_le(eta_init - LinExpr.variable("_omega"), label="C1")
    # (C2): eta(fail) >= 0 on I(fail)
    fail_inv = invariants.of(pts.fail_location)
    if not fail_inv.is_empty():
        handelman_constraints(
            templates[pts.fail_location], fail_inv, lp, handelman_degree, "C2"
        )
    # (C3) + (C4) per transition
    for t_index, t, psi in invariants.premises():
        expected = Polynomial.constant(0)
        for fork in t.forks:
            mapping = {v: fork.update.expr_for(v) for v in pts.program_vars}
            post = templates[fork.destination].substitute_affine(mapping)
            expected = expected + post.scale(fork.probability)
        decrease = templates[t.source] - expected - eps
        handelman_constraints(decrease, psi, lp, handelman_degree, f"C3@{t_index}")
        for f_index, fork in enumerate(t.forks):
            mapping = {v: fork.update.expr_for(v) for v in pts.program_vars}
            post = templates[fork.destination].substitute_affine(mapping)
            diff = post - templates[t.source]
            lp.add_variable("_beta")
            beta = Polynomial({(): LinExpr.variable("_beta")})
            handelman_constraints(
                diff - beta, psi, lp, handelman_degree, f"C4lo@{t_index}.{f_index}"
            )
            handelman_constraints(
                beta + Polynomial.constant(1) - diff,
                psi,
                lp,
                handelman_degree,
                f"C4hi@{t_index}.{f_index}",
            )

    # the eps range, then the same exact search as the affine pipeline
    eps_max = lp_eps_max(lp, "_eps", eps_cap)
    if eps_max is None:
        raise SynthesisError("no useful polynomial RepRSM found")
    result = sandwich_search(
        lp_oracle(lp, LinExpr.variable("_omega"), "_eps"), 0.0, eps_max, 8.0
    )
    if not result.found or result.value >= 0:
        raise SynthesisError("no useful polynomial RepRSM found")
    assignment = lp.assignment(result.payload.x)
    eps_star = result.eps

    init_float = {k: float(v) for k, v in pts.init_valuation.items()}
    eta_init = templates[pts.init_location].evaluate(init_float, assignment)
    log_bound = min(8.0 * eps_star * eta_init, 0.0)

    from repro.core.templates import ExpStateFunction

    # degree-1 projection for reporting; the full polynomial is in `extra`
    sf = ExpStateFunction(
        variables=pts.program_vars,
        coeffs={
            loc: {v: 0.0 for v in pts.program_vars} for loc in pts.interior_locations
        },
        consts={loc: log_bound for loc in pts.interior_locations},
        term_location=pts.term_location,
        fail_location=pts.fail_location,
    )
    certificate = UpperBoundCertificate(
        method="polynomial-hoeffding",
        log_bound=log_bound,
        state_function=sf,
        pts=pts,
        invariants=invariants,
        solve_seconds=time.perf_counter() - start,
        solver_info=f"Handelman LP x{result.evaluations}, eps*={eps_star:.4g}, degree={degree}",
    )
    certificate.polynomial_templates = templates  # type: ignore[attr-defined]
    certificate.polynomial_assignment = assignment  # type: ignore[attr-defined]
    if verify:
        _verify_polynomial_reprsm(pts, invariants, templates, assignment, eps_star)
    return certificate


def _verify_polynomial_reprsm(pts, invariants, templates, assignment, eps, tol=1e-5):
    """Sample-based re-check of (C1)-(C3) for the polynomial RepRSM."""
    import random

    from repro.errors import VerificationError
    from repro.core.certificates import sample_psi_points

    rng = random.Random(13)
    init = {k: float(v) for k, v in pts.init_valuation.items()}
    if templates[pts.init_location].evaluate(init, assignment) > tol:
        raise VerificationError("(C1) failed for polynomial RepRSM")
    for t in pts.transitions:
        psi = invariants.of(t.source).intersect(t.guard).with_variables(pts.program_vars)
        for point in sample_psi_points(psi, rng, count=6):
            current = templates[t.source].evaluate(point, assignment)
            expected = 0.0
            for fork in t.forks:
                nxt = {
                    v: fork.update.expr_for(v).evaluate_float(point)
                    for v in pts.program_vars
                }
                expected += float(fork.probability) * templates[
                    fork.destination
                ].evaluate(nxt, assignment)
            if expected > current - eps + tol * max(1.0, abs(current)):
                raise VerificationError(
                    f"(C3) failed for polynomial RepRSM at {t.name!r} {point}"
                )
