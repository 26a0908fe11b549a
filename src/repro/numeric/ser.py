"""The ``Ser`` search of Appendix C.2, solved exactly.

HoeffdingSynthesis minimizes the bilinear objective ``m * eps * omega``
(``m = 8``; the Azuma baseline of Remark 2 uses ``m = 4``) over
``eps >= 0`` and ``omega <= 0``.  Appendix C.2 fixes ``eps``, minimizes
``omega`` by LP, and ternary-searches ``eps``, which Propositions 5/6
license by proving the objective unimodal.

The LP has more structure than that.  ``eps`` enters the (C1)-(C4)
generator-row system only as one column.  So ``omega*(eps)`` is the value
function of a right-hand-side parametric LP: convex, nondecreasing and
piecewise linear on the feasible range.  On a linear piece ``[l, r]`` the
objective is the quadratic ``m * eps * (omega*(l) + s * (eps - l))``,
minimized in closed form.

:func:`sandwich_search` finds the pieces with the sandwich method (Eisner
& Severance, J. ACM 23(4), 1976).  Each oracle call returns
``omega*(eps)`` and a subgradient, the LP's marginal on the fixed ``eps``
column.  An interval is one piece when the tangent at *either* endpoint
reaches the value at the other; otherwise the two tangents' intersection
is probed next.  Testing both endpoints matters: at a degenerate point
HiGHS may report any subgradient, e.g. slope 60 at ``eps = 0`` on Robot,
where ``omega*`` is linear with slope 61.  On random ``omega*`` with
``k`` pieces (``tests/test_numeric.py``) the search takes at most
``2k + 1`` oracle calls, the last re-solving at the winning ``eps`` for
the certificate's assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.errors import SolverError
from repro.numeric.lp import LinearProgram, LPResult
from repro.polyhedra.linexpr import LinExpr

__all__ = ["SerResult", "lp_eps_max", "lp_oracle", "sandwich_search"]

Payload = TypeVar("Payload")

#: ``oracle(eps) -> (omega*(eps), a subgradient there, payload)``, or
#: ``None`` where no ``omega`` is feasible
Oracle = Callable[[float], Optional[Tuple[float, float, Payload]]]

#: relative tolerance of the one-piece test (a tangent gap against the
#: largest ``|omega*|`` probed) and of the feasible-end bisection.  On
#: one-piece intervals of real searches the gaps are LP rounding, at most
#: 3e-15 over the Table 1 rows, the registry and 70 corpus programs; a
#: piece too small to clear the tolerance moves omega* by less than it
REL_TOL = 1e-13
#: oracle calls after which every open interval counts as one piece, so
#: noise in the LP values cannot keep the search splitting
MAX_EVALUATIONS = 64


@dataclass
class SerResult(Generic[Payload]):
    """Outcome of the search; ``evaluations`` counts oracle calls (LPs)."""

    eps: float
    value: float
    payload: Payload
    evaluations: int

    @property
    def found(self) -> bool:
        return math.isfinite(self.value)


def lp_eps_max(lp: LinearProgram, column: str, cap: float) -> Optional[float]:
    """Ser's first step: the largest feasible value of ``column``, capped at
    ``cap`` (also when unbounded or numerically unsolved); ``None`` when the
    system is infeasible."""
    try:
        widest = lp.optimize(-LinExpr.variable(column))
    except SolverError:
        return cap
    if widest.status == "infeasible":
        return None
    if not widest.ok:
        return cap
    return min(float(widest.x[lp.column(column)]), cap)


def lp_oracle(
    lp: LinearProgram, objective: LinExpr, column: str
) -> Callable[[float], Optional[Tuple[float, float, LPResult]]]:
    """The oracle of a right-hand-side parametric LP: minimize ``objective``
    with ``column`` pinned to ``eps``; the slope is that column's marginal.
    Every call reuses ``lp``'s assembled matrices."""
    j = lp.column(column)

    def oracle(eps: float):
        try:
            result = lp.optimize(objective, fix=(column, eps))
        except SolverError:
            return None
        if not result.ok:
            return None
        return result.objective, result.column_marginal(j), result

    return oracle


def sandwich_search(
    oracle: Oracle,
    lo: float,
    hi: float,
    multiplier: float = 1.0,
) -> SerResult:
    """Minimize ``multiplier * eps * omega(eps)`` over ``[lo, hi]``, for a
    convex, nondecreasing, piecewise-linear ``omega`` given by ``oracle``.

    The feasible ``eps`` form an interval starting at ``lo``: if ``lo`` is
    infeasible nothing is found, and if ``hi`` is infeasible the end of the
    feasible range is bisected to :data:`REL_TOL`.  The returned value is
    always one the oracle produced, never the piecewise model's, so an
    interval misjudged as linear within :data:`REL_TOL` can only cost
    optimality.
    """
    points: Dict[float, Tuple[float, float, Payload]] = {}
    calls = 0

    def probe(eps: float) -> bool:
        nonlocal calls
        calls += 1
        got = oracle(eps)
        if got is not None:
            points[eps] = got
        return got is not None

    if not probe(lo):
        return SerResult(eps=lo, value=math.inf, payload=None, evaluations=calls)
    right = hi
    if hi > lo and not probe(hi):
        feasible, infeasible = lo, hi
        while infeasible - feasible > REL_TOL * infeasible and calls < MAX_EVALUATIONS:
            mid = 0.5 * (feasible + infeasible)
            if probe(mid):
                feasible = mid
            else:
                infeasible = mid
        right = feasible

    pieces: List[Tuple[float, float]] = []
    stack = [(lo, right)] if right > lo else []
    while stack:
        l, r = stack.pop()
        wl, gl, _ = points[l]
        wr, gr, _ = points[r]
        # each tangent's gap below the other endpoint's value: zero iff
        # omega is linear on [l, r] (convexity keeps both nonnegative)
        gap_left = wr - wl - gl * (r - l)
        gap_right = wl - wr + gr * (r - l)
        scale = max(abs(w) for w, _, _ in points.values())
        if min(gap_left, gap_right) <= REL_TOL * scale or calls >= MAX_EVALUATIONS:
            pieces.append((l, r))
            continue
        x = l + (r - l) * gap_right / (gap_left + gap_right)  # tangents meet
        if not l < x < r or (x not in points and not probe(x)):
            pieces.append((l, r))
            continue
        stack += [(x, r), (l, x)]

    def value(eps: float) -> float:
        return multiplier * eps * points[eps][0]

    best = min(points, key=lambda eps: (value(eps), eps))
    # on a piece omega = w + s (eps - l), so the objective's vertex is
    # eps = (l - w / s) / 2; keep the piece with the lowest vertex value
    vertex, vertex_value = None, value(best)
    for l, r in pieces:
        w = points[l][0]
        s = (points[r][0] - w) / (r - l)
        if s <= 0:
            continue  # linear or concave objective: an endpoint wins
        eps = 0.5 * (l - w / s)
        model = multiplier * eps * (w + s * (eps - l))
        if l < eps < r and model < vertex_value:
            vertex, vertex_value = eps, model
    if vertex is not None and probe(vertex) and value(vertex) < value(best):
        best = vertex
    return SerResult(
        eps=best, value=value(best), payload=points[best][2], evaluations=calls
    )


#: the name the benchmark's tracer wraps to time Ser (``ser`` span,
#: ``ser.probes`` counter); retargeting the tracer retires this binding
ternary_search = sandwich_search
