"""Bound certificates and their independent verification.

A synthesis algorithm returning coefficients is not the end of the story:
this library re-derives the soundness conditions *directly from the PTS
semantics* (not from the constraint encodings used during synthesis) and
checks them on the returned state function.  Concretely, for a state
function ``theta`` and transition ``tau`` enabled on ``Psi``:

* upper bounds need the pre fixed-point inequality
  ``ptf(theta)(l, v) <= theta(l, v)`` for ``v in Psi`` (Theorem 4.1/4.3);
* lower bounds need the post fixed-point inequality with ``>=`` plus
  boundedness and almost-sure termination (Theorem 4.4);
* RepRSM certificates additionally carry the (beta, delta, eps) data and
  re-check conditions (C1)-(C4) of Section 5.1;
* every certificate's printed ``log_bound`` must follow from its state
  function at the initial state: an upper bound may not undercut
  ``min(theta(init), 0)`` and a lower bound may not exceed ``theta(init)``.
  An upper bound of ``-inf`` is accepted only when no premise has a fork
  into ``l_fail`` (:func:`fail_reachable`).

Points are drawn from each ``Psi`` via its generator representation
(vertices, plus random convex combinations pushed along recession rays), so
the checks exercise both the bounded and the unbounded directions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import VerificationError
from repro.polyhedra.minkowski import decompose
from repro.pts.model import PTS, Transition
from repro.utils.logspace import format_log_bound, log_sum_exp
from repro.core.invariants import InvariantMap
from repro.core.templates import ExpStateFunction

__all__ = [
    "log_ptf_transition",
    "sample_psi_points",
    "RepRSMData",
    "UpperBoundCertificate",
    "LowerBoundCertificate",
]

NEG_INF = float("-inf")


def log_ptf_transition(
    pts: PTS, sf: ExpStateFunction, transition: Transition, valuation: Dict[str, float]
) -> float:
    """``log( sum_j p_j * E_r[ theta(dst_j, upd_j(v, r)) ] )`` at ``valuation``.

    Computed straight from the PTS: for each fork the expectation factors
    into the destination exponent at the mean update plus the log-MGFs of
    the sampling variables at their (numeric) ``gamma`` coefficients.
    Destination ``l_term`` contributes 0; ``l_fail`` contributes ``p_j``.
    """
    parts: List[float] = []
    for fork in transition.forks:
        dst = fork.destination
        log_p = math.log(float(fork.probability))
        if dst == pts.term_location and dst not in sf.coeffs:
            continue
        if dst == pts.fail_location and dst not in sf.coeffs:
            parts.append(log_p)
            continue
        row = sf.coeffs[dst]
        exponent = sf.consts[dst]
        gammas: Dict[str, float] = {}
        for w in pts.program_vars:
            a_w = row[w]
            if a_w == 0.0:
                continue
            expr = fork.update.expr_for(w)
            exponent += a_w * float(expr.const)
            for name, coeff in expr.coeffs.items():
                if name in pts.distributions:
                    gammas[name] = gammas.get(name, 0.0) + a_w * float(coeff)
                else:
                    exponent += a_w * float(coeff) * valuation[name]
        for r, gamma in gammas.items():
            exponent += pts.distributions[r].log_mgf(gamma)
        parts.append(log_p + exponent)
    return log_sum_exp(parts)


def fail_reachable(pts: PTS, invariants: InvariantMap) -> bool:
    """True iff some transition into the failure sink has a nonempty premise."""
    return any(
        f.destination == pts.fail_location
        for _, t, _ in invariants.premises()
        for f in t.forks
    )


def sample_psi_points(
    psi,
    rng: random.Random,
    count: int = 8,
    ray_scale: float = 50.0,
) -> List[Dict[str, float]]:
    """Sample points of a polyhedron from its generator representation.

    Always includes every vertex; adds random convex combinations of the
    vertices pushed along random nonnegative combinations of recession rays
    and lines (both signs), exercising the unbounded directions that the
    cone condition (D1) governs.
    """
    dec = decompose(psi)
    if dec.is_empty:
        return []
    names = dec.generators.variables
    vertices = [
        {v: float(val) for v, val in point.items()} for point in dec.polytope_points
    ]
    points = [dict(p) for p in vertices]
    directions = [[float(x) for x in ray] for ray in dec.generators.rays]
    for line in dec.generators.lines:
        directions.append([float(x) for x in line])
        directions.append([-float(x) for x in line])
    for _ in range(count):
        weights = [rng.random() for _ in vertices]
        total = sum(weights)
        point = {
            v: sum(w * p[v] for w, p in zip(weights, vertices)) / total for v in names
        }
        for direction in directions:
            t = rng.random() * ray_scale
            for i, v in enumerate(names):
                point[v] += t * direction[i]
        points.append(point)
    return points


@dataclass
class RepRSMData:
    """A solved repulsing ranking supermartingale (Section 5.1)."""

    eta: ExpStateFunction  # includes rows for the sink locations
    eps: float
    beta: float
    delta: float = 1.0


@dataclass
class _CheckReport:
    checked: int = 0
    worst: float = NEG_INF
    failures: List[str] = field(default_factory=list)


class _CertificateBase:
    """Shared plumbing for upper and lower bound certificates."""

    def __init__(
        self,
        method: str,
        log_bound: float,
        state_function: ExpStateFunction,
        pts: PTS,
        invariants: InvariantMap,
        canonical_constraints: Optional[Sequence] = None,
        solve_seconds: float = 0.0,
        solver_info: str = "",
        reprsm: Optional[RepRSMData] = None,
    ):
        self.method = method
        self.log_bound = float(log_bound)
        self.state_function = state_function
        self.pts = pts
        self.invariants = invariants
        self.canonical_constraints = list(canonical_constraints or [])
        self.solve_seconds = solve_seconds
        self.solver_info = solver_info
        self.reprsm = reprsm

    @property
    def bound(self) -> float:
        """The bound as a float (0.0 on underflow — use ``log_bound`` then)."""
        if self.log_bound == NEG_INF:
            return 0.0
        return math.exp(self.log_bound) if self.log_bound < 700 else float("inf")

    @property
    def bound_str(self) -> str:
        """Human-readable bound, robust to double underflow (``1e-3230``...)."""
        return format_log_bound(self.log_bound)

    def _init_log(self) -> float:
        """``log theta(l_init, v_init)`` of the stored state function."""
        return self.state_function.log_value(
            self.pts.init_location,
            {k: float(v) for k, v in self.pts.init_valuation.items()},
        )

    def render_template(self) -> Dict[str, str]:
        """Per-location symbolic form, like the paper's Tables 3-5."""
        return {
            loc: self.state_function.render(loc) for loc in self.state_function.coeffs
        }

    # -- shared fixed-point sampling check -----------------------------------------
    def _check_fixed_point(
        self, direction: str, tol: float, samples: int, seed: int
    ) -> _CheckReport:
        rng = random.Random(seed)
        report = _CheckReport()
        for _, t, psi in self.invariants.premises():
            for point in sample_psi_points(psi, rng, count=samples):
                lhs = log_ptf_transition(self.pts, self.state_function, t, point)
                rhs = self.state_function.log_value(t.source, point)
                gap = lhs - rhs if direction == "pre" else rhs - lhs
                # relative tolerance on large exponents
                scale = max(1.0, abs(rhs) if rhs != NEG_INF else 1.0)
                report.checked += 1
                report.worst = max(report.worst, gap)
                if gap > tol * scale:
                    report.failures.append(
                        f"{direction}-fixed-point violated at {t.name!r} "
                        f"{ {k: round(v, 3) for k, v in point.items()} }: "
                        f"gap {gap:.3e}"
                    )
        return report

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(method={self.method!r}, bound={self.bound_str}, "
            f"time={self.solve_seconds:.2f}s)"
        )


class UpperBoundCertificate(_CertificateBase):
    """A verified upper bound on the assertion violation probability."""

    def verify(self, tol: float = 1e-6, samples: int = 8, seed: int = 7) -> None:
        """Re-check soundness; raises :class:`VerificationError` on failure.

        * ``explinsyn``/``hoeffding``: the state function must be a pre
          fixed-point on every transition's ``Psi`` (sampled generators and
          ray extensions) — Theorem 4.1 then gives ``vpf <= theta``.
        * ``hoeffding``/``azuma``: the stored RepRSM must satisfy (C1)-(C4).
        * every method: ``log_bound >= min(theta(init), 0)`` up to
          ``tol * max(1, |theta(init)|)``; ``-inf`` only when no premise
          enters ``l_fail``.
        """
        failures: List[str] = []
        if self.method in ("explinsyn", "hoeffding"):
            report = self._check_fixed_point("pre", tol, samples, seed)
            failures.extend(report.failures[:5])
        if self.reprsm is not None:
            failures.extend(self._check_reprsm(tol, samples, seed)[:5])
        init_log = self._init_log()
        if self.log_bound == NEG_INF:
            if fail_reachable(self.pts, self.invariants):
                failures.append("reported log-bound -inf, but a premise enters l_fail")
        elif self.log_bound < min(init_log, 0.0) - tol * max(1.0, abs(init_log)):
            failures.append(
                f"reported log-bound {self.log_bound:.6g} below theta(init) {init_log:.6g}"
            )
        if failures:
            raise VerificationError(
                "upper-bound certificate failed verification:\n  " + "\n  ".join(failures)
            )

    def _check_reprsm(self, tol: float, samples: int, seed: int) -> List[str]:
        assert self.reprsm is not None
        rng = random.Random(seed + 1)
        eta = self.reprsm.eta
        eps, beta, delta = self.reprsm.eps, self.reprsm.beta, self.reprsm.delta
        pts = self.pts
        failures: List[str] = []
        # (C1)
        init_val = {k: float(v) for k, v in pts.init_valuation.items()}
        if eta.exponent(pts.init_location, init_val) > tol:
            failures.append("(C1) eta(init) > 0")
        # (C2) at every state entering l_fail (the form the synthesis encodes
        # and the only form Theorem 5.1's proof needs)
        premises = self.invariants.premises()
        for _, t, psi in premises:
            fail_forks = [f for f in t.forks if f.destination == pts.fail_location]
            if not fail_forks:
                continue
            for point in sample_psi_points(psi, rng, count=samples):
                for fork in fail_forks:
                    for draws in _support_draws(pts, rng):
                        nxt = {
                            v: fork.update.expr_for(v).evaluate_float({**point, **draws})
                            for v in pts.program_vars
                        }
                        if eta.exponent(pts.fail_location, nxt) < -tol * max(
                            1.0, abs(eta.exponent(pts.fail_location, nxt))
                        ):
                            failures.append(f"(C2) eta < 0 entering l_fail at {nxt}")
                            break
        # (C3) + (C4)
        for _, t, psi in premises:
            for point in sample_psi_points(psi, rng, count=samples):
                src_val = eta.exponent(t.source, point)
                expected = 0.0
                for fork in t.forks:
                    mean_update = {
                        v: fork.update.expr_for(v).evaluate_float(
                            {
                                **point,
                                **{
                                    r: float(d.mean())
                                    for r, d in pts.distributions.items()
                                },
                            }
                        )
                        for v in pts.program_vars
                    }
                    expected += float(fork.probability) * eta.exponent(
                        fork.destination, mean_update
                    )
                scale = max(1.0, abs(src_val))
                if expected > src_val - eps + tol * scale:
                    failures.append(f"(C3) violated at {t.name!r} {point}")
                for fork in t.forks:
                    for draws in _support_draws(pts, rng):
                        nxt = {
                            v: fork.update.expr_for(v).evaluate_float({**point, **draws})
                            for v in pts.program_vars
                        }
                        diff = eta.exponent(fork.destination, nxt) - src_val
                        if diff < beta - tol * scale or diff > beta + delta + tol * scale:
                            failures.append(
                                f"(C4) difference {diff:.4f} outside "
                                f"[{beta:.4f}, {beta + delta:.4f}] at {t.name!r}"
                            )
                            break
        return failures


def _support_draws(pts: PTS, rng: random.Random) -> List[Dict[str, float]]:
    """Extreme and random draws of all sampling variables (for C4 checks)."""
    names = sorted(pts.distributions)
    if not names:
        return [{}]
    draws: List[Dict[str, float]] = []
    for pick_hi in (False, True):
        d = {}
        for r in names:
            lo, hi = pts.distributions[r].bounded_support()
            d[r] = float(hi if pick_hi else lo)
        draws.append(d)
    for _ in range(3):
        draws.append({r: pts.distributions[r].sample(rng) for r in names})
    return draws


class LowerBoundCertificate(_CertificateBase):
    """A verified lower bound on the assertion violation probability.

    Soundness additionally rests on almost-sure termination (Theorem 4.4);
    ``termination_certificate`` records how that assumption was discharged
    (an RSM synthesized by :mod:`repro.core.termination`, or a caller
    assertion).
    """

    def __init__(self, *args, termination_certificate=None, bound_m: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.termination_certificate = termination_certificate
        self.bound_m = bound_m

    def verify(self, tol: float = 1e-6, samples: int = 8, seed: int = 11) -> None:
        """Re-check the post fixed-point inequality, boundedness, and that
        ``log_bound <= theta(init)`` up to ``tol * max(1, |theta(init)|)``."""
        failures: List[str] = []
        report = self._check_fixed_point("post", tol, samples, seed)
        failures.extend(report.failures[:5])
        # boundedness: exponent <= log M on sampled invariant points
        if self.bound_m > 0:
            log_m = math.log(self.bound_m) if self.bound_m >= 1 else 0.0
            rng = random.Random(seed + 2)
            for loc in self.state_function.coeffs:
                inv = self.invariants.of(loc)
                for point in sample_psi_points(inv, rng, count=samples):
                    if self.state_function.exponent(loc, point) > log_m + tol:
                        failures.append(f"boundedness violated at {loc!r}")
                        break
        if self.log_bound > tol:
            failures.append(f"lower bound exceeds 1: log={self.log_bound:.3g}")
        init_log = self._init_log()
        if self.log_bound > init_log + tol * max(1.0, abs(init_log)):
            failures.append(
                f"reported log-bound {self.log_bound:.6g} above theta(init) {init_log:.6g}"
            )
        if failures:
            raise VerificationError(
                "lower-bound certificate failed verification:\n  " + "\n  ".join(failures)
            )
