"""Linear-programming front-end over HiGHS.

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

Every solve goes through :func:`linprog`, which drives HiGHS through
``scipy.optimize._highspy._core``, the highspy module behind
``scipy.optimize.linprog``'s own HiGHS methods.  It makes the calls
``linprog`` makes — the same options, status map, post-solve feasibility
check and bound marginals, on a fresh model per solve — but hands HiGHS
the assembled rows as they are, without ``linprog``'s re-validation and
sparse-format conversions, which took three quarters of the LP time of the
paper's tables (see ``PERFORMANCE.md``).  highspy is imported on the first
solve, so commands that solve no LP do not pay for importing
``scipy.optimize`` at start-up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix, issparse

from repro.errors import InfeasibleError, SolverError
from repro.polyhedra.linexpr import LinExpr

__all__ = ["LPResult", "solve_lp", "LinearProgram"]

#: the first scipy whose ``linprog`` runs on ``scipy.optimize._highspy._core``
SCIPY_FLOOR = "1.15"

#: ``linprog``'s post-solve feasibility tolerance, ``10 * sqrt(tol)`` at its
#: default ``tol = 1e-9``: an optimal ``x`` that breaks a bound or a row by
#: more is reported as "numerical"
_FEASIBILITY_TOL = 10 * math.sqrt(1e-9)


@functools.lru_cache(maxsize=None)
def _highs():
    """The highspy module, imported on the first solve: the import costs
    about half a second of start-up."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise ImportError(
            f"repro drives HiGHS through scipy.optimize._highspy._core, "
            f"which needs scipy>={SCIPY_FLOOR}"
        ) from exc
    return _core


@functools.lru_cache(maxsize=None)
def _options(method: str):
    """``linprog``'s HiGHS options for ``method="highs"`` or ``"highs-ds"``."""
    core = _highs()
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    if method == "highs-ds":
        options.solver = "simplex"
    elif method != "highs":
        raise ValueError(f"unknown HiGHS method {method!r}")
    return options


@functools.lru_cache(maxsize=None)
def _model_status(model_status) -> str:
    """``linprog``'s reading of a HiGHS model status (its
    ``_highs_to_scipy_status_message``) in this module's names: every status
    not listed, ``kUnboundedOrInfeasible`` included, is "numerical"."""
    status = _highs().HighsModelStatus
    return {
        status.kOptimal: "optimal",
        status.kTimeLimit: "iteration-limit",
        status.kIterationLimit: "iteration-limit",
        status.kInfeasible: "infeasible",
        status.kModelError: "infeasible",
        status.kUnbounded: "unbounded",
    }.get(model_status, "numerical")


class HighsResult(NamedTuple):
    """One HiGHS solve, reported as ``scipy.optimize.linprog`` reports it."""

    status: str  # "optimal" | "iteration-limit" | "infeasible" | "unbounded" | "numerical"
    message: str
    #: simplex iterations, or interior-point ones when no simplex ran
    nit: int
    x: Optional[np.ndarray] = None
    fun: Optional[float] = None
    #: column duals and basis statuses of an optimal solve
    col_dual: Optional[List[float]] = None
    col_status: Optional[list] = None


#: ``(indptr, indices, data)`` of an absent block of rows
_NO_ROWS = (np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))


def _row_block(a, b, n: int, name: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data, rhs)`` of one block of rows in canonical CSR
    form.  A dense block keeps only its nonzeros, as ``linprog`` keeps them;
    a non-finite entry raises ``ValueError``, as in ``linprog``."""
    rhs = np.array(() if b is None else b, dtype=float).reshape(-1)
    if a is None:
        shape, (indptr, indices, data) = (0, n), _NO_ROWS
    else:
        if not issparse(a):
            a = csr_matrix(np.array(a, dtype=float).reshape(-1, n))
        elif a.format != "csr" or not a.has_canonical_format:
            a = csr_matrix(a, dtype=float, copy=True)
            a.sum_duplicates()
        shape, indptr, indices, data = a.shape, a.indptr, a.indices, a.data
    if shape != (rhs.size, n):
        raise ValueError(f"{name} is {shape}, not ({rhs.size}, {n})")
    if not (np.isfinite(data).all() and np.isfinite(rhs).all()):
        raise ValueError(f"{name} or its right-hand side is not finite")
    return indptr, indices, data, rhs


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, method="highs"):
    """``scipy.optimize.linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, method)``
    for ``method`` ``"highs"`` or ``"highs-ds"``, solve for solve: the same
    answer to the last bit, the same iteration count and the same status.

    This is the module's one call into HiGHS.  ``bounds`` are ``(lower,
    upper)`` pairs with ``None`` for infinite, ``(0, None)`` each by default
    as in ``linprog``.  HiGHS gets the ``<=`` rows, then the ``==`` rows, in
    row-wise form, on a fresh model with no start point.  Returns a
    :class:`HighsResult`.
    """
    core = _highs()
    c = np.array(c, dtype=float).reshape(-1)
    n = c.size
    if not np.isfinite(c).all():
        raise ValueError("c is not finite")
    ub_start, ub_index, ub_value, b_ub = _row_block(A_ub, b_ub, n, "A_ub")
    eq_start, eq_index, eq_value, b_eq = _row_block(A_eq, b_eq, n, "A_eq")
    col_bounds = np.array([(0, None)] * n if bounds is None else bounds, dtype=float)
    if col_bounds.shape != (n, 2):
        raise ValueError(f"bounds are {col_bounds.shape}, not ({n}, 2)")
    inf = core.kHighsInf
    # None arrives as nan, which fmax and fmin skip: no bound is -inf or +inf
    lower = np.fmax(col_bounds[:, 0], -inf)
    upper = np.fmin(col_bounds[:, 1], inf)
    m_ub = b_ub.size

    lp = core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m_ub + b_eq.size
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.concatenate((np.full(m_ub, -inf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kRowwise
    matrix.num_col_ = n
    matrix.num_row_ = lp.num_row_
    # the matrix's vectors convert faster from lists than from numpy arrays
    matrix.start_ = np.concatenate((ub_start, eq_start[1:] + ub_start[-1])).tolist()
    matrix.index_ = np.concatenate((ub_index, eq_index)).tolist()
    matrix.value_ = np.concatenate((ub_value, eq_value)).tolist()

    highs = core._Highs()
    highs.passOptions(_options(method))
    if highs.passModel(lp) == core.HighsStatus.kError:
        return HighsResult("infeasible", "HiGHS rejected the model", 0)
    ran = highs.run()
    model_status = highs.getModelStatus()
    message = f"HiGHS model status {int(model_status)}: {highs.modelStatusToString(model_status)}"
    status = _model_status(model_status)
    if ran == core.HighsStatus.kError:  # no solution to read, nor iterations
        return HighsResult("numerical" if status == "optimal" else status, message, 0)
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status != "optimal":
        return HighsResult(status, message, nit)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    row_value = np.array(solution.row_value)
    tol = _FEASIBILITY_TOL
    holds = (
        not math.isnan(fun)
        and ((x >= lower - tol) & (x <= upper + tol)).all()
        and (b_ub - row_value[:m_ub] >= -tol).all()
        and (np.abs(b_eq - row_value[m_ub:]) <= tol).all()
    )
    if not holds:
        message = f"{message}, but x breaks a bound or row by more than {tol:.2e}"
        return HighsResult("numerical", message, nit, x, fun)
    return HighsResult(status, message, nit, x, fun, solution.col_dual, highs.getBasis().col_status)


@dataclass
class LPResult:
    """Outcome of an LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    #: HiGHS's column duals and basis statuses of an optimal solve, kept for
    #: sensitivity queries
    col_dual: Optional[List[float]] = field(default=None, repr=False)
    col_status: Optional[list] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True iff an optimal solution was found."""
        return self.status == "optimal"

    def column_marginal(self, j: int) -> float:
        """Sensitivity of the optimum to column ``j``'s bounds: its dual when
        it is nonbasic at a bound, else 0, as ``linprog``'s ``lower`` plus
        ``upper`` marginals.  For a column fixed at a value, this is the
        slope of the optimal value in that value: a subgradient, which HiGHS
        may pick anywhere in the subdifferential at a degenerate point."""
        basis = _highs().HighsBasisStatus
        if self.col_status[j] in (basis.kLower, basis.kUpper):
            return self.col_dual[j] + 0.0  # linprog's sum turns -0.0 into 0.0
        return 0.0


#: statuses worth one retry with HiGHS's solver fixed to the simplex
#: (``method="highs-ds"``) instead of left to HiGHS's choice
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

    Variables are free by default (:func:`linprog` keeps scipy's nonnegative
    default).  Constraint matrices may be dense sequences or ``scipy.sparse``
    matrices.  On an "iteration-limit" or "numerical" status the solve is
    retried once through ``linprog(..., method="highs-ds")``, which fixes
    HiGHS's solver to the simplex, before raising :class:`SolverError`.  An
    "infeasible" status is confirmed by the zero-objective LP over the same
    rows and bounds: HiGHS's presolve reports some feasible, unbounded LPs as
    infeasible (min ``x0`` over the slab ``5 - 1/999983 <= 3 x0 - x1 - 2 x2
    <= 5``), so a feasible answer there is reported as "unbounded".
    """
    n = len(c)
    if n == 0:  # with no column, every row is a constant
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
    if res.status in _RETRY_STATUSES:
        res = run("highs-ds")
    if res.status == "infeasible" and np.any(c):
        if run("highs", np.zeros(n)).status == "optimal":
            return LPResult("unbounded")
    if res.status == "optimal":
        return LPResult("optimal", res.x, res.fun, res.col_dual, res.col_status)
    if res.status in ("infeasible", "unbounded"):
        return LPResult(res.status)
    raise SolverError(f"HiGHS failed ({res.status}): {res.message}")


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
