"""Bound certificates and their independent verification.

A synthesis algorithm returning coefficients is not the end of the story:
this library re-derives the soundness conditions *directly from the PTS
semantics* (not from the constraint encodings used during synthesis) and
checks them on the returned state function.  For a state function
``theta`` and each transition enabled on its premise
``Psi = I(l_src) /\\ guard``:

* upper bounds need the pre fixed-point inequality
  ``ptf(theta)(l, v) <= theta(l, v)`` for ``v in Psi`` (Theorem 4.1/4.3);
* lower bounds need the post fixed-point inequality with ``>=``, checked in
  the linear Jensen form of Theorem 6.1 that implies it, plus boundedness
  and almost-sure termination (Theorem 4.4): the attached ranking
  supermartingale is re-checked too;
* RepRSM certificates additionally carry the (beta, delta, eps) data and
  re-check conditions (C1)-(C4) of Section 5.1;
* every certificate's printed ``log_bound`` must follow from its state
  function at the initial state: an upper bound may not undercut
  ``min(theta(init), 0)`` and a lower bound may not exceed ``theta(init)``.
  An upper bound of ``-inf`` is accepted only when no premise has a fork
  into ``l_fail`` (:func:`fail_reachable`).

Every condition is checked at the generators of its premise's double
description (Proposition 1), which makes each check deterministic and
complete.  A linear condition holds on a polyhedron iff it holds at every
point and does not grow along any ray or line.  The pre fixed-point gap is
a log-sum-exp of affine functions: it holds on ``Psi`` iff it holds at
every point (D2) and no fork's exponent slope grows along ``Psi``'s rays
or lines (D1).  (C2) and (C4) also range over the sampling variables, so
they are checked on ``Psi x U``, with ``U`` the box of their supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import VerificationError
from repro.polyhedra.dd import GeneratorSet
from repro.pts.model import PTS, Fork, Transition
from repro.utils.logspace import format_log_bound, log_sum_exp
from repro.core.invariants import InvariantMap
from repro.core.templates import ExpStateFunction

__all__ = [
    "log_ptf_transition",
    "RepRSMData",
    "UpperBoundCertificate",
    "LowerBoundCertificate",
]

NEG_INF = float("-inf")

#: relative tolerance of every check (float arithmetic, no outward rounding)
TOL = 1e-6

#: an affine function as ``{variable: slope}``, its constant under the key ``""``
Affine = Dict[str, float]
#: one checked condition: (condition, where, worst relative violation)
Margin = Tuple[str, str, float]


def _composed(pts: PTS, sf: ExpStateFunction, fork: Fork) -> Optional[Affine]:
    """``log theta(dst, upd(v, r))`` of ``fork`` as an affine function of the
    program and sampling variables.  A sink without a row in ``sf`` follows
    the fixed-point convention: ``theta(l_fail) = 1`` is the zero function
    and ``theta(l_term) = 0`` is ``None``."""
    dst = fork.destination
    if dst not in sf.coeffs:
        if dst == pts.term_location:
            return None
        if dst == pts.fail_location:
            return {}
    f: Affine = {"": sf.consts[dst]}
    for w, a_w in sf.coeffs[dst].items():
        if a_w == 0.0:
            continue
        expr = fork.update.expr_for(w)
        f[""] += a_w * float(expr.const)
        for name, coeff in expr.coeffs.items():
            f[name] = f.get(name, 0.0) + a_w * float(coeff)
    return f


def log_ptf_transition(
    pts: PTS, sf: ExpStateFunction, transition: Transition, valuation: Mapping[str, float]
) -> float:
    """``log( sum_j p_j * E_r[ theta(dst_j, upd_j(v, r)) ] )`` at ``valuation``.

    Computed straight from the PTS: for each fork the expectation factors
    into the destination exponent at the mean update plus the log-MGFs of
    the sampling variables at their (numeric) ``gamma`` coefficients.
    Destination ``l_term`` contributes 0; ``l_fail`` contributes ``p_j``.
    """
    parts: List[float] = []
    for fork in transition.forks:
        f = _composed(pts, sf, fork)
        if f is None:
            continue
        exponent = math.log(float(fork.probability))
        for v, c in f.items():
            if v == "":
                exponent += c
            elif v in pts.distributions:
                exponent += pts.distributions[v].log_mgf(c)
            else:
                exponent += c * valuation[v]
        parts.append(exponent)
    return log_sum_exp(parts)


def _expected(pts: PTS, sf: ExpStateFunction, transition: Transition) -> Tuple[Affine, float]:
    """``sum_j p_j E_r[log theta(dst_j, upd_j(v, r))]`` over the forks whose
    destination is not ``theta = 0``, and the probability mass of those."""
    total: Affine = {}
    mass = 0.0
    for fork in transition.forks:
        f = _composed(pts, sf, fork)
        if f is None:
            continue
        p = float(fork.probability)
        mass += p
        for v, c in f.items():
            if v in pts.distributions:
                v, c = "", c * float(pts.distributions[v].mean())
            total[v] = total.get(v, 0.0) + p * c
    return total, mass


def _row(sf: ExpStateFunction, location: str) -> Affine:
    """``log sf(location, v)`` as an affine function."""
    return {**sf.coeffs[location], "": sf.consts[location]}


def _plus(f: Affine, g: Affine, scale: float = 1.0, shift: float = 0.0) -> Affine:
    """``f + scale * g + shift``."""
    out = {**f, "": f.get("", 0.0) + shift}
    for v, c in g.items():
        out[v] = out.get(v, 0.0) + scale * c
    return out


def _floats(gens: GeneratorSet) -> GeneratorSet:
    """The same generators with float coordinates (converted once per check)."""
    points, rays, lines = (
        [tuple(map(float, vec)) for vec in vectors]
        for vectors in (gens.points, gens.rays, gens.lines)
    )
    return GeneratorSet(gens.variables, points, rays, lines)


def _support_box(pts: PTS) -> GeneratorSet:
    """The vertices of the box of all sampling variables' supports (raises
    :class:`~repro.errors.UnboundedSupportError` for an unbounded one)."""
    names = tuple(sorted(pts.distributions))
    sides = [tuple(map(float, pts.distributions[r].bounded_support())) for r in names]
    return GeneratorSet(names, list(product(*sides)))


def _worst(gens: GeneratorSet, f: Affine) -> float:
    """The worst relative violation of ``f <= 0`` over the polyhedron
    ``gens`` generates: ``f`` at every point, its growth along every ray
    and its change along every line.  Each value is divided by
    ``max(1, sum |terms|)``, so a large primitive ray can neither hide nor
    fake a violation.  ``-inf`` for an empty polyhedron."""
    if not gens.points:
        return NEG_INF
    cols = [(i, f[v]) for i, v in enumerate(gens.variables) if f.get(v)]
    worst = NEG_INF
    for vectors, offset, sign in (  # a line is a ray in either direction
        (gens.points, f.get("", 0.0), 1.0),
        (gens.rays, 0.0, 1.0),
        (gens.lines, 0.0, 1.0),
        (gens.lines, 0.0, -1.0),
    ):
        for vec in vectors:
            terms = [sign * s * vec[i] for i, s in cols] + [offset]
            worst = max(worst, math.fsum(terms) / max(1.0, math.fsum(map(abs, terms))))
    return worst


def fail_reachable(pts: PTS, invariants: InvariantMap) -> bool:
    """True iff some transition into the failure sink has a nonempty premise."""
    return any(
        f.destination == pts.fail_location
        for _, t, _ in invariants.premises()
        for f in t.forks
    )


@dataclass
class RepRSMData:
    """A solved repulsing ranking supermartingale (Section 5.1)."""

    eta: ExpStateFunction  # includes rows for the sink locations
    eps: float
    beta: float
    delta: float = 1.0


class _CertificateBase:
    """Shared plumbing for upper and lower bound certificates."""

    def __init__(
        self,
        method: str,
        log_bound: float,
        state_function: ExpStateFunction,
        pts: PTS,
        invariants: InvariantMap,
        solve_seconds: float = 0.0,
        solver_info: str = "",
        reprsm: Optional[RepRSMData] = None,
    ):
        self.method = method
        self.log_bound = float(log_bound)
        self.state_function = state_function
        self.pts = pts
        self.invariants = invariants
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

    def _premises(self) -> Iterator[Tuple[Transition, GeneratorSet, str]]:
        """``(transition, Psi's generators in floats, where)`` per premise."""
        for _, t, psi in self.invariants.premises():
            yield t, _floats(psi.generators()), repr(t.name)

    def _raise_on(self, kind: str, margins: Iterator[Margin], failures: List[str]) -> None:
        """Raise :class:`VerificationError` listing every margin above
        :data:`TOL` and every failure of the printed-bound checks."""
        violated = [
            f"{what} violated at {where}: relative violation {worst:.3e}"
            for what, where, worst in margins
            if worst > TOL
        ]
        if violated or failures:
            raise VerificationError(
                f"{kind}-bound certificate failed verification:\n  "
                + "\n  ".join(violated + failures)
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(method={self.method!r}, bound={self.bound_str}, "
            f"time={self.solve_seconds:.2f}s)"
        )


class UpperBoundCertificate(_CertificateBase):
    """A verified upper bound on the assertion violation probability."""

    def verify(self) -> None:
        """Re-check soundness; raises :class:`VerificationError` on failure.

        * ``explinsyn``/``hoeffding``: the state function must be a pre
          fixed-point on every premise (D1 and D2 at its generators) —
          Theorem 4.1 then gives ``vpf <= theta``.
        * ``hoeffding``/``azuma``: the stored RepRSM must satisfy (C1)-(C4).
        * every method: ``log_bound >= min(theta(init), 0)`` up to
          ``TOL * max(1, |theta(init)|)``; ``-inf`` only when no premise
          enters ``l_fail``.
        """
        failures: List[str] = []
        init_log = self._init_log()
        if self.log_bound == NEG_INF:
            if fail_reachable(self.pts, self.invariants):
                failures.append("reported log-bound -inf, but a premise enters l_fail")
        elif self.log_bound < min(init_log, 0.0) - TOL * max(1.0, abs(init_log)):
            failures.append(
                f"reported log-bound {self.log_bound:.6g} below theta(init) {init_log:.6g}"
            )
        self._raise_on("upper", self._margins(), failures)

    def _margins(self) -> Iterator[Margin]:
        pts, sf, reprsm = self.pts, self.state_function, self.reprsm
        if reprsm is not None:
            init_val = {k: float(v) for k, v in pts.init_valuation.items()}
            yield "(C1) eta(init) <= 0", "l_init", reprsm.eta.exponent(pts.init_location, init_val)
            box = _support_box(pts)
        for t, gens, where in self._premises():
            if self.method in ("explinsyn", "hoeffding"):
                for p in gens.points:
                    point = dict(zip(gens.variables, p))
                    rhs = sf.exponent(t.source, point)
                    gap = log_ptf_transition(pts, sf, t, point) - rhs
                    yield "pre-fixed-point (D2)", where, gap / max(1.0, abs(rhs))
                cone = gens.cone()
                for j, fork in enumerate(t.forks):
                    f = _composed(pts, sf, fork)
                    if f is not None:  # the constant plays no part along the cone
                        slope = _plus(f, _row(sf, t.source), -1.0)
                        slope[""] = 0.0
                        yield "cone condition (D1)", f"{where} fork {j}", _worst(cone, slope)
            if reprsm is None:
                continue
            eta, extended = reprsm.eta, gens.product(box)
            source = _row(eta, t.source)
            # (C3) sum_j p_j E[eta_dst(upd_j(v, r))] <= eta_src(v) - eps on Psi
            c3 = _plus(_expected(pts, eta, t)[0], source, -1.0, reprsm.eps)
            yield "(C3) expected decrease by eps", where, _worst(gens, c3)
            for j, fork in enumerate(t.forks):
                f, at = _composed(pts, eta, fork), f"{where} fork {j}"
                # (C2) eta >= 0 at every state entering l_fail (the form the
                # synthesis encodes and the only form Theorem 5.1's proof needs)
                if fork.destination == pts.fail_location:
                    yield "(C2) eta >= 0 entering l_fail", at, _worst(extended, _plus({}, f, -1.0))
                # (C4) beta <= eta_dst(upd(v, r)) - eta_src(v) <= beta + delta on Psi x U
                low = _plus(source, f, -1.0, reprsm.beta)
                high = _plus(f, source, -1.0, -reprsm.beta - reprsm.delta)
                yield "(C4) difference >= beta", at, _worst(extended, low)
                yield "(C4) difference <= beta + delta", at, _worst(extended, high)


class LowerBoundCertificate(_CertificateBase):
    """A verified lower bound on the assertion violation probability.

    Soundness additionally rests on almost-sure termination (Theorem 4.4);
    ``termination_certificate`` records how that assumption was discharged
    (an RSM synthesized by :mod:`repro.core.termination`, re-checked by
    :meth:`verify`, or ``None`` for a caller assertion).
    """

    def __init__(self, *args, termination_certificate=None, bound_m: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.termination_certificate = termination_certificate
        self.bound_m = bound_m

    def verify(self) -> None:
        """Re-check the post fixed-point inequality in its Jensen form,
        boundedness, the attached termination RSM, and that ``log_bound <=
        theta(init)`` up to ``TOL * max(1, |theta(init)|)``."""
        failures: List[str] = []
        if self.log_bound > TOL:
            failures.append(f"lower bound exceeds 1: log={self.log_bound:.3g}")
        init_log = self._init_log()
        if self.log_bound > init_log + TOL * max(1.0, abs(init_log)):
            failures.append(
                f"reported log-bound {self.log_bound:.6g} above theta(init) {init_log:.6g}"
            )
        self._raise_on("lower", self._margins(), failures)

    def _margins(self) -> Iterator[Margin]:
        pts, sf = self.pts, self.state_function
        rho = getattr(self.termination_certificate, "rho", None)
        for t, gens, where in self._premises():
            expected, mass = _expected(pts, sf, t)
            if mass == 0.0:  # ptf(theta) = 0 < theta(l_src)
                yield "post-fixed-point (all mass to l_term)", where, math.inf
                continue
            # Theorem 6.1: ln Q + sum_j (p_j/Q) E[exponent_j(v, r)] >= eta_src(v),
            # with Q the mass not sent to l_term, implies the post fixed-point
            jensen = _plus(_row(sf, t.source), expected, -1.0 / mass, -math.log(mass))
            yield "post-fixed-point (Jensen form)", where, _worst(gens, jensen)
            if rho is not None:
                # E[rho(next)] <= rho(v) - 1, with rho = 0 at the sinks
                decrease = _plus(_expected(pts, rho, t)[0], _row(rho, t.source), -1.0, 1.0)
                yield "termination RSM decrease", where, _worst(gens, decrease)
        if self.bound_m > 0:
            log_m = math.log(self.bound_m) if self.bound_m >= 1 else 0.0
            yield from self._on_invariants("boundedness eta <= log M", sf, 1.0, -log_m)
        if rho is not None:
            yield from self._on_invariants("termination RSM rho >= 0", rho, -1.0, 0.0)

    def _on_invariants(self, what: str, sf: ExpStateFunction, scale: float, shift: float):
        """``scale * log sf(l, v) + shift <= 0`` on every ``I(l)``."""
        for loc in sf.coeffs:
            gens = _floats(self.invariants.of(loc).generators())
            yield what, f"location {loc!r}", _worst(gens, _plus({}, _row(sf, loc), scale, shift))
