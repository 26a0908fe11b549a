"""Convex solver for the ExpLinSyn optimization problem (Theorem 5.4).

After quantifier elimination, the Section 5.2 program has

* a **linear objective** ``min a_init . v_init + b_init`` (minimizing the
  log of the bound — equivalent to the paper's ``min exp(...)``),
* **linear constraints** (the cone conditions (D1), expressed on the
  recession cone's generators), and
* **log-sum-exp constraints** (D2): ``log sum_k exp(c_k + w_k . x [+ lmgf]) <= 0``
  where each exponent is affine in the unknowns ``x`` and ``lmgf`` are
  log-MGF terms of continuous distributions evaluated at affine arguments.

Theorem 5.4 makes this a convex program with one optimal value, and one
deterministic method reaches it, with no start point, restart or rescue to
tune: phase I, then a log-barrier Newton method (Boyd & Vandenberghe,
*Convex Optimization*, §11.3–11.4).  Phase I minimizes ``s`` subject to
every inequality ``<= s``; a negative ``s`` is a strictly feasible start.
Phase II follows the central path, growing the barrier parameter ``t``
tenfold per centering.  The LSE gradients and Hessians are exact and
vectorized over all terms (continuous factors supply ``d_log_mgf`` and
``d2_log_mgf``).

A barrier needs a nonempty, bounded interior, hence two additions:

* **a presolve.**  A single-term LSE row is a linear row, and a linear row
  whose exact negation is also present becomes an equality: (D1) rays
  ``r`` and ``-r`` arriving from two transitions pin ``alpha . r = 0``,
  which no point satisfies strictly.  Equalities are eliminated by
  Gauss–Jordan, ``x = origin + basis z``.
* **a box**, for the recession directions of the feasible set (2DWalk,
  3DWalk), along which the central path would diverge: no unknown may add
  more than ``1e6`` to an exponent or to the objective, which no
  meaningful bound needs (``objective_floor`` stops at ``exp(-1e5)``).
  It is scaled per unknown because fine lattices need large
  coefficients: a program stepping by ``1/1000003`` has its optimum at
  ``a = 8.4e5``.

``margin`` shifts every LSE row to ``<= -margin``.  The solver is **never
trusted**: the returned point is re-checked against every original
constraint (:attr:`ConvexSolution.feasible`), and ExpLinSyn re-derives the
certificate conditions from the PTS semantics
(:meth:`~repro.core.certificates.UpperBoundCertificate.verify`).  When no
strictly feasible point exists, the all-zero template (bound 1) is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.polyhedra.linexpr import LinExpr
from repro.pts.distributions import Distribution

__all__ = ["ConvexProgram", "ConvexSolution"]

#: box ``|a x_i| <= BOX`` for every exponent or objective coefficient ``a``
#: of an unknown (see the module docstring)
BOX = 1e6
#: weight of each box row per other inequality.  Along a recession
#: direction each other row's barrier pulls at most ``1/|x|`` outward, so
#: the box holds the central path within ``1 / sqrt(2 BOX_WEIGHT)`` of its
#: half-width there, instead of halfway to its wall
BOX_WEIGHT = 100
#: growth of the barrier parameter per centering
MU = 10.0
#: phase II stops at a duality gap below ``GAP_REL * max(1, |objective|)``
GAP_REL = 1e-10
#: phase I gives up, with no strictly feasible point, below this gap
PHASE1_GAP = 1e-12
#: Armijo fraction of the predicted decrease a step must achieve
ARMIJO = 0.25
#: Newton steps per centering, a guard the measured solves stay far below
MAX_NEWTON = 100


@dataclass
class ConvexSolution:
    """Solver outcome: assignment, objective, and the verification report."""

    assignment: Dict[str, float]
    objective: float
    max_violation: float
    method: str

    @property
    def feasible(self) -> bool:
        return self.max_violation <= 1e-6


class _LseRows:
    """Every LSE row of a program, stacked for vectorized evaluation.

    Term ``j`` belongs to row ``group[j]``; rows are contiguous and
    ``starts`` holds each row's first term.  Its exponent is
    ``rows[j] . x + offsets[j]`` plus ``log_mgf(gammas[i] . x +
    gamma_consts[i])`` for every smooth factor ``i`` with ``owners[i] == j``.
    """

    def __init__(self, rows, offsets, counts, gammas, gamma_consts, owners, dists):
        self.rows = rows
        self.offsets = offsets
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        self.group = np.repeat(np.arange(len(counts)), counts)
        self.gammas = gammas
        self.gamma_consts = gamma_consts
        self.owners = owners
        self.dists = dists

    def __len__(self) -> int:
        return len(self.counts)

    def split_single_terms(self) -> Tuple[np.ndarray, np.ndarray, "_LseRows"]:
        """Single-term rows with no smooth factor are linear rows
        ``r.x + c <= 0``: returns those ``(g, h)`` and the other rows."""
        smooth = np.zeros(len(self), dtype=bool)
        smooth[self.group[self.owners]] = True
        single = ~smooth & (self.counts == 1)
        firsts = self.starts[single]
        terms = ~single[self.group]
        # every smooth factor stays, only its term's index shifts
        rest = _LseRows(
            self.rows[terms],
            self.offsets[terms],
            self.counts[~single],
            self.gammas,
            self.gamma_consts,
            (np.cumsum(terms) - 1)[self.owners],
            self.dists,
        )
        return self.rows[firsts], self.offsets[firsts], rest

    def affine(self, origin: np.ndarray, basis: np.ndarray, shift: float) -> "_LseRows":
        """The rows over ``z`` with ``x = origin + basis z``, shifted by ``shift``."""
        return _LseRows(
            self.rows @ basis,
            self.offsets + self.rows @ origin + shift,
            self.counts,
            self.gammas @ basis,
            self.gamma_consts + self.gammas @ origin,
            self.owners,
            self.dists,
        )

    def with_phase1_column(self) -> "_LseRows":
        """Append the phase-I variable ``s``: each row becomes ``lse - s``."""
        return _LseRows(
            np.hstack([self.rows, -np.ones((len(self.rows), 1))]),
            self.offsets,
            self.counts,
            np.hstack([self.gammas, np.zeros((len(self.gammas), 1))]),
            self.gamma_consts,
            self.owners,
            self.dists,
        )

    def _exponents(self, x: np.ndarray, derivatives: bool):
        """Term exponents; with ``derivatives``, also their gradients (one
        row per term) and each smooth factor's ``d2_log_mgf``."""
        exps = self.rows @ x + self.offsets
        if not self.dists:
            return exps, self.rows, None
        args = self.gammas @ x + self.gamma_consts
        lmgf = [d.log_mgf(float(u)) for d, u in zip(self.dists, args)]
        exps = exps + np.bincount(self.owners, lmgf, minlength=len(exps))
        if not derivatives:
            return exps, None, None
        slopes = np.array([d.d_log_mgf(float(u)) for d, u in zip(self.dists, args)])
        jac = self.rows.copy()
        np.add.at(jac, self.owners, slopes[:, None] * self.gammas)
        curvature = np.array([d.d2_log_mgf(float(u)) for d, u in zip(self.dists, args)])
        return exps, jac, curvature

    def _softmax(self, exps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row LSE values and each term's weight within its row."""
        top = np.maximum.reduceat(exps, self.starts)
        shifted = np.exp(exps - top[self.group])
        total = np.add.reduceat(shifted, self.starts)
        return top + np.log(total), shifted / total[self.group]

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._softmax(self._exponents(x, False)[0])[0]

    def barrier_derivatives(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of ``-sum_k log(-lse_k(x))`` at a strictly
        feasible ``x``.  With softmax weights ``p`` and term gradients ``J``,
        ``grad lse = sum p J`` and ``hess lse = sum p (J - grad)(J - grad)^T``
        plus the smooth factors' curvature, each row weighted by its slack."""
        exps, jac, curvature = self._exponents(x, True)
        value, weights = self._softmax(exps)
        inv = -1.0 / value
        grads = np.add.reduceat(weights[:, None] * jac, self.starts, axis=0)
        centred = jac - grads[self.group]
        q = weights * inv[self.group]
        scaled = grads * inv[:, None]
        hess = (centred * q[:, None]).T @ centred + scaled.T @ scaled
        if curvature is not None:
            coef = q[self.owners] * curvature
            hess += (self.gammas * coef[:, None]).T @ self.gammas
        return grads.T @ inv, hess


class _Barrier:
    """``min c.z + offset`` subject to ``g z + h <= 0`` and ``lse(z) <= 0``,
    through the barrier ``-sum_i w_i log(-g_i z - h_i) - sum_k log(-lse_k(z))``.

    Only the box rows weigh more than 1.  ``gap_weight`` counts the other
    rows: at a centered point they put the objective within
    ``gap_weight / t`` of the optimum, and the far box adds about as much.
    """

    def __init__(self, c, offset: float, g, h, weights, lse: _LseRows, gap_weight: int):
        self.c = c
        self.offset = offset
        self.g = g
        self.h = h
        self.weights = weights
        self.lse = lse
        self.gap_weight = gap_weight
        self.all_weights = np.concatenate([weights, np.ones(len(lse))])

    def objective(self, z: np.ndarray) -> float:
        return float(self.c @ z) + self.offset

    def slacks(self, z: np.ndarray) -> Optional[np.ndarray]:
        """``-f_i(z)`` for every inequality, or None unless all are positive."""
        s = np.concatenate([-(self.g @ z + self.h), -self.lse.values(z)])
        return s if np.all(s > 0) else None  # NaN fails the comparison too

    def center(self, z: np.ndarray, s: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Damped Newton on ``t c.z + barrier`` from a strictly feasible ``z``."""
        n_lin = len(self.h)
        for _ in range(MAX_NEWTON):
            root = self.g * (np.sqrt(self.weights) / s[:n_lin])[:, None]
            lse_grad, lse_hess = self.lse.barrier_derivatives(z)
            grad = t * self.c + self.g.T @ (self.weights / s[:n_lin]) + lse_grad
            hess = root.T @ root + lse_hess
            # scaled to a unit diagonal, then regularized relative to it: a
            # fixed multiple of I would swamp the tiny curvature of flat
            # directions and turn Newton into gradient descent
            scale = np.sqrt(np.diag(hess))
            system = hess / np.outer(scale, scale) + 1e-14 * np.eye(len(z))
            step = -np.linalg.solve(system, grad / scale) / scale
            slope = float(grad @ step)  # -(Newton decrement)^2
            # F_t - min F_t is about decrement^2 / 2: stop once that is
            # below what float F_t = t c.z + ... can resolve
            if -slope / 2 <= max(1e-9, 1e-12 * t * max(1.0, abs(self.objective(z)))):
                break
            rate = self.g @ step
            growing = rate > 0
            alpha = 1.0
            if np.any(growing):
                alpha = min(1.0, 0.99 * float(np.min(s[:n_lin][growing] / rate[growing])))
            objective_rate = float(self.c @ step)
            while True:
                trial = z + alpha * step
                trial_s = self.slacks(trial)
                # Armijo on the change t a c.dz + (phi_new - phi_old): t c.z
                # itself reaches 1e10 and its rounding swallows the decrease
                if trial_s is not None:
                    change = t * alpha * objective_rate - float(self.all_weights @ np.log(trial_s / s))
                    if change <= ARMIJO * alpha * slope:
                        break
                alpha *= 0.5
                if alpha < 1e-16:  # no representable decrease at this t
                    return z, s
            z, s = trial, trial_s
        return z, s

    def interior_point(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Phase I: a strictly feasible ``(z, slacks)``, or None if the
        feasible set has no interior."""
        n = len(self.c)
        phase1 = _Barrier(
            np.eye(n + 1)[n],
            0.0,
            np.hstack([self.g, -np.ones((len(self.h), 1))]),
            self.h,
            self.weights,
            self.lse.with_phase1_column(),
            self.gap_weight,
        )
        z = np.zeros(n)
        worst = max(np.max(self.h), np.max(self.lse.values(z), initial=-np.inf))
        y = np.append(z, worst + 1.0)
        s = phase1.slacks(y)
        t = 1.0
        while True:
            y, s = phase1.center(y, s, t)
            if y[-1] < 0:
                found = self.slacks(y[:-1])
                if found is not None:
                    return y[:-1], found
            # min s >= s - (total weight)/t is certainly positive, or the
            # interior is thinner than PHASE1_GAP
            if y[-1] > float(np.sum(self.all_weights)) / t or self.gap_weight / t < PHASE1_GAP:
                return None
            t *= MU

    def minimize(self, z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Phase II: follow the central path from ``z`` until the duality
        gap is below ``GAP_REL`` of the objective.

        Phase I can stop far from the optimum.  A point whose objective is
        off by about ``|objective|`` lies near the central path at
        ``t = gap_weight / |objective|``, so the path is joined there: from
        a larger ``t``, damped Newton crawls along curved LSE boundaries.
        """
        t = min(1.0, self.gap_weight / (1.0 + abs(self.objective(z))))
        while True:
            z, s = self.center(z, s, t)
            if self.gap_weight / t <= GAP_REL * max(1.0, abs(self.objective(z))):
                return z
            t *= MU


def _equality_basis(a_eq: np.ndarray, b_eq: np.ndarray, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(origin, basis)`` with ``{x : a_eq x + b_eq = 0} = {origin + basis z}``,
    by Gauss–Jordan with partial pivoting; None when inconsistent.  Free
    unknowns keep their own coordinate, so integer rows stay exact."""
    aug = np.hstack([a_eq, -b_eq[:, None]])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(aug), initial=0.0)))
    pivots: List[int] = []
    for col in range(n):
        r = len(pivots)
        if r == len(aug):
            break
        best = r + int(np.argmax(np.abs(aug[r:, col])))
        if abs(aug[best, col]) <= tol:
            continue
        aug[[r, best]] = aug[[best, r]]
        aug[r] /= aug[r, col]
        others = np.arange(len(aug)) != r
        aug[others] -= np.outer(aug[others, col], aug[r])
        pivots.append(col)
    if np.any(np.abs(aug[len(pivots):, n]) > tol):
        return None
    free = [j for j in range(n) if j not in pivots]
    origin = np.zeros(n)
    basis = np.zeros((n, len(free)))
    basis[free, np.arange(len(free))] = 1.0
    for r, p in enumerate(pivots):
        origin[p] = aug[r, n]
        basis[p] = -aug[r, free]
    return origin, basis


def _negation_pairs(g: np.ndarray, h: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Rows ``g_i x + h_i <= 0`` whose exact negation is also a row: returns
    the mask of rows to keep and one index per pair, now an equality."""
    keep = np.ones(len(h), dtype=bool)
    pairs: List[int] = []
    unmatched: Dict[bytes, List[int]] = {}
    # adding 0.0 folds -0.0 into 0.0, so negated zeros compare equal
    keys = np.hstack([g, h[:, None]]) + 0.0
    negated = -keys + 0.0
    for i in range(len(h)):
        partners = unmatched.get(negated[i].tobytes())
        if partners:
            keep[partners.pop()] = keep[i] = False
            pairs.append(i)
        else:
            unmatched.setdefault(keys[i].tobytes(), []).append(i)
    return keep, pairs


class ConvexProgram:
    """A convex program over named unknowns, assembled symbolically."""

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._linear_le: List[Tuple[LinExpr, str]] = []
        self._linear_eq: List[Tuple[LinExpr, str]] = []
        self._lse: List[Tuple[List, str]] = []  # raw (terms spec, label)
        self._objective: LinExpr = LinExpr.constant(0)
        self._compiled: Optional[Tuple] = None  # (A_le, b_le, A_eq, b_eq, lse)

    # -- assembly ---------------------------------------------------------------
    def add_unknown(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._index)
            self._compiled = None
        return self._index[name]

    def _register(self, expr: LinExpr) -> None:
        for name in expr.variables():
            self.add_unknown(name)

    def add_linear_le(self, expr: LinExpr, label: str = "") -> None:
        """Constraint ``expr <= 0`` (affine in the unknowns)."""
        self._register(expr)
        self._linear_le.append((expr, label))
        self._compiled = None

    def add_linear_eq(self, expr: LinExpr, label: str = "") -> None:
        """Constraint ``expr == 0``."""
        self._register(expr)
        self._linear_eq.append((expr, label))
        self._compiled = None

    def add_linear_le_many(self, rows: "Sequence[Tuple[LinExpr, str]]") -> None:
        """Batched :meth:`add_linear_le` over ``(expr, label)`` pairs."""
        for expr, label in rows:
            self.add_linear_le(expr, label)

    def add_linear_eq_many(self, rows: "Sequence[Tuple[LinExpr, str]]") -> None:
        """Batched :meth:`add_linear_eq` over ``(expr, label)`` pairs."""
        for expr, label in rows:
            self.add_linear_eq(expr, label)

    def add_lse(
        self,
        terms: Sequence[Tuple[float, LinExpr, Sequence[Tuple[Distribution, LinExpr]]]],
        label: str = "",
    ) -> None:
        """Constraint ``log sum_k w_k exp(affine_k(x)) * prod E[exp(g(x) r)] <= 0``.

        ``terms`` holds ``(weight, affine, smooth)`` with ``weight > 0`` and
        ``smooth`` a list of ``(distribution, gamma_affine)`` factors.
        """
        for _, affine, smooth in terms:
            self._register(affine)
            for _, gamma in smooth:
                self._register(gamma)
        self._lse.append((list(terms), label))
        self._compiled = None

    def set_objective(self, expr: LinExpr) -> None:
        """Minimization objective (affine)."""
        self._register(expr)
        self._objective = expr

    # -- compilation to numpy -------------------------------------------------------
    def _row(self, expr: LinExpr) -> Tuple[np.ndarray, float]:
        row = np.zeros(len(self._index))
        for name, coeff in expr.iter_coeffs():
            row[self._index[name]] = float(coeff)
        return row, float(expr.const)

    def _block(self, exprs: Sequence[LinExpr]) -> Tuple[np.ndarray, np.ndarray]:
        """Stack expressions into ``(A, b)`` with one coefficient-scatter pass
        (no per-row array allocation + vstack)."""
        n = len(self._index)
        a = np.zeros((len(exprs), n))
        b = np.zeros(len(exprs))
        index = self._index
        for r, expr in enumerate(exprs):
            for name, coeff in expr.iter_coeffs():
                a[r, index[name]] = float(coeff)
            b[r] = float(expr.const)
        return a, b

    def _compile_lse(self) -> _LseRows:
        specs = []
        counts = []
        smooth_specs = []
        owners = []
        dists = []
        for terms, label in self._lse:
            for weight, affine, smooth in terms:
                if weight <= 0:
                    raise SolverError(f"non-positive weight {weight} in constraint {label!r}")
                for dist, gamma in smooth:
                    owners.append(len(specs))
                    dists.append(dist)
                    smooth_specs.append(gamma)
                specs.append((math.log(weight), affine))
            counts.append(len(terms))
        rows, consts = self._block([affine for _, affine in specs])
        gammas, gamma_consts = self._block(smooth_specs)
        return _LseRows(
            rows,
            np.array([w for w, _ in specs]) + consts,
            np.array(counts, dtype=int),
            gammas,
            gamma_consts,
            np.array(owners, dtype=int),
            dists,
        )

    def _compile(self) -> Tuple:
        """``(A_le, b_le, A_eq, b_eq, lse_rows)``, cached until the next ``add_*``."""
        if self._compiled is None:
            a_le, b_le = self._block([e for e, _ in self._linear_le])
            a_eq, b_eq = self._block([e for e, _ in self._linear_eq])
            self._compiled = (a_le, b_le, a_eq, b_eq, self._compile_lse())
        return self._compiled

    # -- evaluation ---------------------------------------------------------------------
    def max_violation(self, assignment: Dict[str, float]) -> float:
        """Largest constraint violation at ``assignment`` (0 when feasible)."""
        x = np.zeros(len(self._index))
        for name, idx in self._index.items():
            x[idx] = assignment.get(name, 0.0)
        a_le, b_le, a_eq, b_eq, lse = self._compile()
        return max(
            float(np.max(a_le @ x + b_le, initial=0.0)),
            float(np.max(np.abs(a_eq @ x + b_eq), initial=0.0)),
            float(np.max(lse.values(x), initial=0.0)),
        )

    # -- solving ------------------------------------------------------------------------
    def _barrier_point(
        self, obj_row: np.ndarray, obj_const: float, margin: float, objective_floor: Optional[float]
    ) -> Optional[np.ndarray]:
        """Presolve, phase I and phase II: the optimal ``x``, or None when
        the feasible set has no interior."""
        n = len(self._index)
        a_le, b_le, a_eq, b_eq, lse = self._compile()
        single_g, single_h, rest = lse.split_single_terms()
        g = np.vstack([a_le, single_g])
        h = np.concatenate([b_le, single_h])
        from_lse = np.arange(len(h)) >= len(b_le)
        keep, pairs = _negation_pairs(g, h)
        eliminated = _equality_basis(
            np.vstack([a_eq, g[pairs]]), np.concatenate([b_eq, h[pairs]]), n
        )
        if eliminated is None:
            return None
        origin, basis = eliminated
        # over z a row may not depend on the unknowns any more; one that
        # holds there (as a duplicate of a paired row, with no slack) goes
        g, h, from_lse = g[keep] @ basis, h[keep] + g[keep] @ origin, from_lse[keep]
        holds = ~np.any(g != 0, axis=1) & (h <= 0)
        g, h = g[~holds], h[~holds] + margin * from_lse[~holds]
        if objective_floor is not None and np.any(obj_row != 0):
            g = np.vstack([g, -obj_row @ basis])
            h = np.append(h, objective_floor - obj_const - obj_row @ origin)
        rest = rest.affine(origin, basis, margin)
        others = len(h) + len(rest)
        # the box bounds what each unknown adds to an exponent or to the
        # objective, so one whose exponents carry fine lattice steps may grow
        # as large as the steps are small; the linear rows are (D1) cone
        # conditions, homogeneous and of arbitrary scale
        scale = np.max(np.abs(np.vstack([lse.rows, lse.gammas, obj_row])), axis=0)
        scale[scale == 0] = 1.0
        box = np.vstack([np.diag(scale), -np.diag(scale)])
        barrier = _Barrier(
            basis.T @ obj_row,
            float(obj_row @ origin) + obj_const,
            np.vstack([g, box @ basis]),
            np.concatenate([h, np.full(2 * n, -BOX) + box @ origin]),
            np.concatenate([np.ones(len(h)), np.full(2 * n, BOX_WEIGHT * max(1, others))]),
            rest,
            others,
        )
        start = barrier.interior_point()
        if start is None:
            return None
        return origin + basis @ barrier.minimize(*start)

    def solve(
        self,
        margin: float = 1e-9,
        objective_floor: Optional[float] = -1e5,
    ) -> ConvexSolution:
        """Minimize the objective; returns a verified :class:`ConvexSolution`.

        ``margin`` shrinks every LSE constraint to ``<= -margin`` during the
        solve so small solver slack cannot produce an infeasible answer;
        ``objective_floor`` caps how far the objective may fall (a bound of
        ``exp(-1e5)`` is already indistinguishable from 0 and the cap keeps
        the solve well-scaled when the true optimum is unbounded).
        """
        n = len(self._index)
        if n == 0:
            return ConvexSolution({}, float(self._objective.const), 0.0, "trivial")
        obj_row, obj_const = self._row(self._objective)

        def solution(x: np.ndarray, method: str) -> ConvexSolution:
            assignment = {name: float(x[idx]) for name, idx in self._index.items()}
            objective = float(obj_row @ x) + obj_const
            return ConvexSolution(assignment, objective, self.max_violation(assignment), method)

        x = self._barrier_point(obj_row, obj_const, margin, objective_floor)
        if x is not None:
            barrier = solution(x, "barrier")
            if barrier.feasible:
                return barrier
        zero = solution(np.zeros(n), "zero-fallback")
        if not zero.feasible:
            raise SolverError(
                f"convex solve failed: even the trivial point violates "
                f"constraints by {zero.max_violation:.2e}"
            )
        return zero
