"""Linear-programming front-end over ``scipy.optimize.linprog`` (HiGHS).

Two interfaces are provided:

* a low-level matrix interface (:func:`solve_lp`), and
* a named-variable interface (:class:`LinearProgram`) used by the synthesis
  algorithms, which assemble constraints symbolically as
  :class:`~repro.polyhedra.linexpr.LinExpr` objects over unknown template
  coefficients — one row per generator of each premise
  (:meth:`~repro.polyhedra.dd.GeneratorSet.implication_rows`).

The named-variable interface assembles the constraint matrix as sparse COO
triplets while constraints stream in — no dense per-row Python lists — so
LP *assembly* stays proportional to the number of nonzero coefficients and
keeps pace with the HiGHS solve even on the large generator-row systems
(see ``PERFORMANCE.md``).  The CSR matrices are built once per
system and reused by every solve that only changes the objective or pins
one column (:meth:`LinearProgram.optimize`), as the Ser search does for
``eps`` and the [CFNH18] baseline for its difference cap.

``scipy.optimize`` is imported on the first solve (:func:`linprog`), so
commands that solve no LP do not pay for it at start-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import InfeasibleError, SolverError
from repro.polyhedra.linexpr import LinExpr

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

__all__ = ["LPResult", "solve_lp", "LinearProgram"]


def linprog(c, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: the import costs
    about half a second of start-up."""
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(c, **kwargs)


@dataclass
class LPResult:
    """Outcome of an LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    #: HiGHS's own result of an optimal solve, kept for sensitivity queries
    highs: Optional[OptimizeResult] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True iff an optimal solution was found."""
        return self.status == "optimal"

    def column_marginal(self, j: int) -> float:
        """Sensitivity of the optimum to column ``j``'s bounds.  For a column
        fixed at a value, this is the slope of the optimal value in that
        value: a subgradient, which HiGHS may pick anywhere in the
        subdifferential at a degenerate point."""
        return float(self.highs.lower.marginals[j] + self.highs.upper.marginals[j])


_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded", 4: "numerical"}

#: statuses worth one retry with the dual simplex before giving up — HiGHS'
#: default (interior point + crossover) occasionally stalls on nearly
#: degenerate systems where the simplex finishes cleanly
_RETRY_STATUSES = ("iteration-limit", "numerical")


def _is_empty(matrix) -> bool:
    """True for ``None`` or a 0-row matrix (dense sequence or scipy sparse)."""
    if matrix is None:
        return True
    shape = getattr(matrix, "shape", None)
    if shape is not None and not isinstance(matrix, (list, tuple)):
        return shape[0] == 0
    return len(matrix) == 0


def solve_lp(
    c: Sequence[float],
    a_ub=None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq=None,
    b_eq: Optional[Sequence[float]] = None,
    bounds: Optional[Sequence[Tuple[Optional[float], Optional[float]]]] = None,
) -> LPResult:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``.

    Variables are free by default (unlike ``linprog``'s nonnegative default).
    Constraint matrices may be dense sequences or ``scipy.sparse`` matrices.
    On an "iteration-limit" or "numerical" status the solve is retried once
    with ``method="highs-ds"`` (dual simplex) before raising
    :class:`SolverError`.  An "infeasible" status is confirmed by the
    zero-objective LP over the same rows and bounds: HiGHS's presolve
    reports some feasible, unbounded LPs as infeasible (min ``x0`` over the
    slab ``5 - 1/999983 <= 3 x0 - x1 - 2 x2 <= 5``), so a feasible answer
    there is reported as "unbounded".
    """
    n = len(c)
    if n == 0:  # linprog needs a column; with none, every row is a constant
        rows_hold = (_is_empty(a_ub) or min(b_ub) >= 0) and (_is_empty(a_eq) or not any(b_eq))
        return LPResult("optimal", np.zeros(0), 0.0) if rows_hold else LPResult("infeasible")
    if bounds is None:
        bounds = [(None, None)] * n
    a_ub_arg = None if _is_empty(a_ub) else a_ub
    b_ub_arg = None if a_ub_arg is None else b_ub
    a_eq_arg = None if _is_empty(a_eq) else a_eq
    b_eq_arg = None if a_eq_arg is None else b_eq

    def run(method: str, objective=c):
        return linprog(
            objective,
            A_ub=a_ub_arg,
            b_ub=b_ub_arg,
            A_eq=a_eq_arg,
            b_eq=b_eq_arg,
            bounds=bounds,
            method=method,
        )

    res = run("highs")
    status = _STATUS.get(res.status, "error")
    if status in _RETRY_STATUSES:
        res = run("highs-ds")
        status = _STATUS.get(res.status, "error")
    if status == "infeasible" and np.any(c):
        if _STATUS.get(run("highs", np.zeros(n)).status) == "optimal":
            return LPResult("unbounded")
    if status == "optimal":
        return LPResult("optimal", np.asarray(res.x, dtype=float), float(res.fun), res)
    if status in ("infeasible", "unbounded"):
        return LPResult(status)
    raise SolverError(f"linprog failed with status {res.status}: {res.message}")


class _TripletBlock:
    """One constraint block (<= or ==) as streaming COO triplets."""

    __slots__ = ("rows", "cols", "data", "rhs")

    def __init__(self) -> None:
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.data: List[float] = []
        self.rhs: List[float] = []

    def matrix(self, num_vars: int) -> Optional[csr_matrix]:
        if not self.rhs:
            return None
        return csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(len(self.rhs), num_vars)
        )


class LinearProgram:
    """An LP assembled from :class:`LinExpr` constraints over named unknowns.

    Constraints are ``expr <= 0`` or ``expr == 0`` where ``expr`` is affine in
    the unknowns.  Variables are registered on first use; bounds can be set
    per variable (default: free).  Coefficients go straight into sparse
    triplets at ``add_*`` time; the original expressions are retained only
    for :meth:`check_assignment` and labelled diagnostics.  The assembled
    matrices are cached until the next change to the system.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._lower: Dict[str, Optional[float]] = {}
        self._upper: Dict[str, Optional[float]] = {}
        self._le = _TripletBlock()
        self._eq = _TripletBlock()
        self._le_rows: List[Tuple[LinExpr, str]] = []
        self._eq_rows: List[Tuple[LinExpr, str]] = []
        self._objective: LinExpr = LinExpr.constant(0)
        self._assembled: Optional[Tuple] = None

    # -- model building ---------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> LinExpr:
        """Register a variable (idempotent) and return it as a LinExpr."""
        if name not in self._index:
            self._index[name] = len(self._index)
            self._lower[name] = lower
            self._upper[name] = upper
            self._assembled = None
        else:
            if lower is not None:
                cur = self._lower[name]
                self._lower[name] = lower if cur is None else max(cur, lower)
                self._assembled = None
            if upper is not None:
                cur = self._upper[name]
                self._upper[name] = upper if cur is None else min(cur, upper)
                self._assembled = None
        return LinExpr.variable(name)

    def _register(self, expr: LinExpr) -> None:
        for name in expr.variables():
            self.add_variable(name)

    def _append(self, block: _TripletBlock, expr: LinExpr) -> None:
        self._register(expr)
        self._assembled = None
        row = len(block.rhs)
        index = self._index
        for name, coeff in expr.iter_coeffs():
            block.rows.append(row)
            block.cols.append(index[name])
            block.data.append(float(coeff))
        block.rhs.append(-float(expr.const))

    def add_le(self, expr: LinExpr, label: str = "") -> None:
        """Add the constraint ``expr <= 0``."""
        self._append(self._le, expr)
        self._le_rows.append((expr, label))

    def add_eq(self, expr: LinExpr, label: str = "") -> None:
        """Add the constraint ``expr == 0``."""
        self._append(self._eq, expr)
        self._eq_rows.append((expr, label))

    def add_rows(
        self, le_rows: Iterable[Tuple[LinExpr, str]], eq_rows: Iterable[Tuple[LinExpr, str]]
    ) -> None:
        """Batched :meth:`add_le` and :meth:`add_eq` over ``(expr, label)``
        pairs, in the shape ``GeneratorSet.implication_rows`` returns."""
        for expr, label in le_rows:
            self.add_le(expr, label)
        for expr, label in eq_rows:
            self.add_eq(expr, label)

    def set_objective(self, expr: LinExpr) -> None:
        """Set the (minimization) objective."""
        self._register(expr)
        self._objective = expr

    @property
    def num_constraints(self) -> int:
        return len(self._le_rows) + len(self._eq_rows)

    # -- solving ------------------------------------------------------------------
    def column(self, name: str) -> int:
        """The column index of variable ``name``."""
        return self._index[name]

    def _system(self) -> Tuple:
        """``(a_ub, b_ub, a_eq, b_eq, bounds)``, assembled once per change."""
        if self._assembled is None:
            n = len(self._index)
            bounds = [(self._lower[name], self._upper[name]) for name in self._index]
            self._assembled = (
                self._le.matrix(n),
                self._le.rhs,
                self._eq.matrix(n),
                self._eq.rhs,
                bounds,
            )
        return self._assembled

    def optimize(
        self, objective: LinExpr, fix: Optional[Tuple[str, float]] = None
    ) -> LPResult:
        """Minimize ``objective``; ``fix = (name, value)`` pins that column's
        bounds to ``value`` for this solve only.

        Every call reuses the assembled matrices, so a family of solves that
        differ only in the objective or in one fixed column (a right-hand-side
        parametric LP) pays for assembly once.  With ``fix``, the result's
        :meth:`LPResult.column_marginal` at that column is the optimal
        value's slope in ``value``.
        """
        self._register(objective)
        a_ub, b_ub, a_eq, b_eq, bounds = self._system()
        c = np.zeros(len(bounds))
        for name, coeff in objective.iter_coeffs():
            c[self._index[name]] = float(coeff)
        if fix is not None:
            name, value = fix
            bounds = list(bounds)
            bounds[self._index[name]] = (value, value)
        return solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)

    def assignment(self, x: np.ndarray) -> Dict[str, float]:
        """A solution vector as ``{name: value}``."""
        return {name: float(x[j]) for name, j in self._index.items()}

    def solve(
        self, minimize: Optional[LinExpr] = None, fix: Optional[Tuple[str, float]] = None
    ) -> Dict[str, float]:
        """Solve (``fix`` as in :meth:`optimize`); returns the optimal
        assignment as ``{name: value}``.

        Raises :class:`InfeasibleError` if infeasible and
        :class:`SolverError` if unbounded or numerically failed.
        """
        if minimize is not None:
            self.set_objective(minimize)
        result = self.optimize(self._objective, fix)
        if result.status == "infeasible":
            raise InfeasibleError("linear program is infeasible")
        if result.status == "unbounded":
            raise SolverError("linear program is unbounded")
        return self.assignment(result.x)

    def feasible(self) -> bool:
        """True iff the constraint system admits some solution."""
        try:
            self.solve(minimize=LinExpr.constant(0))
            return True
        except InfeasibleError:
            return False

    def check_assignment(self, assignment: Dict[str, float], tol: float = 1e-7) -> bool:
        """Verify that ``assignment`` satisfies every constraint within ``tol``."""
        values = dict(assignment)
        for expr, _ in self._le_rows:
            if expr.evaluate_float(values) > tol:
                return False
        for expr, _ in self._eq_rows:
            if abs(expr.evaluate_float(values)) > tol:
                return False
        for name, idx in self._index.items():
            v = values.get(name, 0.0)
            lo, hi = self._lower[name], self._upper[name]
            if lo is not None and v < lo - tol:
                return False
            if hi is not None and v > hi + tol:
                return False
        return True
