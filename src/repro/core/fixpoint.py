"""Fixed-point machinery: the probability transformer and value iteration.

Theorem 4.3 characterizes the violation probability as ``vpf = lfp ptf``;
Theorem 4.2 constructs it as the limit of ``ptf^(i)(bottom)``.  For PTSs
with discrete sampling and finitely many reachable states this is directly
computable, giving the library *ground truth* to validate every synthesized
bound against:

* iterating from ``bottom`` (0 everywhere) yields an increasing sequence of
  **lower** approximations of ``vpf``;
* iterating from ``top`` (1 everywhere, the ``K_1`` top) yields a
  decreasing sequence of **upper** approximations of ``gfp ptf_1`` — equal
  to ``vpf`` under almost-sure termination (Theorem 4.4).

When the reachable space overflows ``max_states``, overflow states are
pessimized (0 in the lower pass, 1 in the upper pass), so the returned
bracket remains rigorous.

Engine architecture (see ``PERFORMANCE.md`` and ``docs/ARCHITECTURE.md``)
-------------------------------------------------------------------------

Exploration runs on two interchangeable engines producing *bit-identical*
models, and ``explore="auto"`` (the default) splits one BFS between them:

* **scalar Fraction interning** (``explore="fraction"``): the original
  state-interning BFS whose per-location transition logic is *compiled* —
  guards become float predicates and fork/draw updates become
  tuple-to-tuple stepper functions — handling non-lattice systems and
  arbitrary magnitudes with exact rational arithmetic.  Its cost is per
  state, so it is the cheap engine on narrow BFS levels.
* **lattice frontier batches** (``explore="scaled"``): when the PTS lives
  on a fixed-point lattice — per-variable denominator LCMs ``s_v``
  (:attr:`IntegralityReport.scale <repro.pts.IntegralityReport>`, all
  ones on the integer lattice) — the BFS explores the rescaled integers
  ``s_v * v``.  Guards compile to stacked integer inequality matrices
  (each row multiplied by its own positive integer so coefficients stay
  integral) and fork/draw updates to ``int64`` affine maps, and the BFS
  advances a whole level per step at a fixed number of numpy calls —
  one guard product per location, one gathered affine map for every
  successor, deduplication through one uint64 key per
  ``(location, values)`` row (every key match verified row for row; two
  states under one key take the overflow fallback) and one dict from key
  to state index — admitting states in exactly the sequential discovery
  order, so state indices, truncation cuts and COO triplet order match
  the scalar engine bit for bit; the lazy ``index`` descales back to the
  exact rationals.  The translation is validated by construction: one
  per-row admission rule (``_guard_row``) makes the integer decision
  ``<= 0`` coincide with the reference engine's float ``<= 1e-9``
  decision on every in-range state, and any state beyond its
  per-variable limit aborts the batch and falls back to the exact path.
  Models are labelled ``"int64"`` on an integer-lattice PTS (limits
  ``2**31``) and ``"scaled-int64"`` otherwise (limits
  ``min(2**31, s_v * 2**15)``).

Under ``"auto"`` the scalar engine runs the BFS until the next level holds
``_BATCH_MIN_WIDTH`` states; on an admitted PTS it then converts the
explored states to lattice rows and hands its tables — states, triplets,
overflow masses, level digests — to the batched loop, which finishes the
same BFS.  A state outside the admitted range at that point keeps the run
scalar; an overflow after the handoff reruns the whole BFS on the scalar
engine, the only restart left.

Both emit COO triplets ``(state, successor, probability)`` plus
fail/terminate/overflow masks, assembled into one ``scipy.sparse`` CSR
matrix whatever the state count.  Value iteration is one kernel: Jacobi
sweeps ``X <- A X + B`` over a two-column iterate (the lower and upper
passes side by side) with a sup-norm convergence check, and — after a
32-sweep warmup — the certified direct solve of :mod:`repro.core.solvers`.
A sparse LU solve of ``(I - A) x = b`` proposes a candidate, and a
constant number of monotone certification sweeps either proves it
brackets the fixed point (clamping it into a valid lower/upper pair, plus
a contraction witness for the lower side) or rejects it and falls back to
plain sweeping from the unchanged, still-valid iterate.  The emitted
bracket is rigorous either way — the oracle is pure acceleration, never
trusted.

The legacy pure-Python engine is preserved in
:mod:`repro.core.fixpoint_reference` and the equivalence suite keeps the
brackets in lockstep.  The reference sweeps in place (a Gauss-Seidel
schedule), so its iteration counts differ from the Jacobi sweeps here;
the fixed point it converges to does not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.core import solvers as _solvers
from repro.core.runcert import (
    DigestAccumulator,
    canonical_level_rows,
    exact_state_row,
)
from repro.core.solvers import SOLVERS
from repro.errors import ModelError
from repro.pts.model import PTS

__all__ = [
    "FIXPOINT_FINGERPRINT",
    "SOLVERS",
    "ValueIterationResult",
    "SparseFixpointModel",
    "build_sparse_model",
    "iterate_model",
    "value_iteration",
    "exact_vpf",
]

State = Tuple[str, Tuple[Fraction, ...]]

#: version stamp of the exploration/sweep machinery, folded into engine
#: cache keys (see ``repro.engine.task``) so artifacts produced by
#: different fixpoint engines can never alias on disk.
#: v2: scaled-lattice (fixed-point int64) admission — ``explore="auto"``
#: now covers fractional PTSs too
#: v3: solve-then-certify value iteration (oracle candidates adopted only
#: after monotone certification) + the tiny-model explorer heuristic, which
#: changes ``explore="auto"`` engine selection on small state spaces
#: v4: one value-iteration kernel — CSR Jacobi sweeps on every model (the
#: dense exact-Gauss-Seidel operator of small models is gone), which
#: changes sweep counts and last-ulp brackets below 2048 states
#: v5: one lattice lowering — int64 is the scale-1 case of the scaled
#: plan, and exact guard rows of fractional PTSs are admitted (and their
#: headroom recorded) against 2**52 instead of the gap rule
#: v6: one BFS under auto — the scalar loop hands its tables to the
#: batched lattice loop at the first wide level (the thin/tiny bailouts
#: and their restarts are gone), which changes ``explore="auto"``'s
#: engine label on small, bushy models
FIXPOINT_FINGERPRINT = "scaled-int64-frontier.csr-jacobi.v6"

#: per-variable scaled-magnitude limit of every admitted state on an
#: integer-lattice PTS (the cap of every limit otherwise); states beyond
#: their limit abort the frontier BFS (fallback to the exact Fraction
#: path).  Chosen so that every guard/update product stays well inside
#: int64 *and* exact guard rows evaluate exactly in float (see `_guard_row`)
_INT_VALUE_LIMIT = 2**31

#: admission bound for exact guard rows (see `_guard_row`):
#: sum(|a_j| * limit_j) + |c| must stay below 2**52 so the reference's
#: float products and partial sums of in-range states are exact — this
#: is what makes such a row's integer decision *identical* to the
#: reference's float-with-1e-9-tolerance decision
_INT_GUARD_MAGNITUDE = 2**52

#: admission bound for update rows and gap-rule guard rows: results only
#: need to not overflow int64 before the per-batch range check (updates
#: are exact in all engines)
_INT_STEP_MAGNITUDE = 2**62

#: per-variable *real-coordinate* magnitude limit on a fractional PTS:
#: scaled values are range-checked against ``min(2**31, s_v * 2**15)``,
#: i.e. descaled magnitudes stay below 2**15.  Together with
#: `_SCALED_GUARD_SLACK` this is what bounds the reference engine's float
#: guard-evaluation error on fractional states (lattice guard decisions
#: are exact integers, the reference's are floats with a 1e-9 tolerance —
#: see `_guard_row` for the agreement argument)
_SCALED_REAL_LIMIT = 2**15

#: cap on a gap-rule guard row's clearing multiplier ``m``: the exact guard
#: value at any lattice state is a multiple of ``1/m``, so a nonzero value
#: is at least ``1/m >= 2e-9`` — comfortably past the reference's 1e-9
#: float tolerance even after the worst admissible evaluation error
_SCALED_GAP_LIMIT = 5 * 10**8

#: admissible bound on the reference engine's absolute float error when it
#: evaluates a guard row at any in-range state; half the margin between
#: the lattice gap floor (2e-9) and the 1e-9 decision tolerance
_SCALED_GUARD_SLACK = 5e-10

#: unit roundoff of IEEE double arithmetic
_FLOAT_ULP = 2.0**-53

#: multiply–xorshift constant of the lattice explorer's 64-bit state keys
#: (see `_frontier_keys`); fixed, because a key only routes a state to its
#: candidate duplicates — every key match is compared row for row
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_KEY_COLLISION = "two distinct states share a 64-bit frontier key"

_EXPLORE_MODES = ("auto", "scaled", "fraction")

#: ``explore="auto"`` runs the scalar BFS until the next level holds at
#: least this many states, then hands its tables to the batched lattice
#: loop: a batched level costs a fixed ~150 µs of numpy calls, a scalar
#: state 9–22 µs (see PERFORMANCE.md for the width sweep)
_BATCH_MIN_WIDTH = 16


class _IntOverflow(Exception):
    """Internal: a frontier batch left the admitted per-variable range, or
    two distinct states met under one 64-bit key (the message says which)."""


@dataclass
class ValueIterationResult:
    """A rigorous bracket ``lower <= vpf(init) <= upper``."""

    lower: float
    upper: float
    states: int
    iterations: int
    truncated: bool  # True when the reachable set overflowed max_states
    #: which solver produced the adopted bracket: ``"sweep"`` when plain
    #: monotone sweeping did (including every oracle rejection/fallback),
    #: else ``"direct"`` (a certified direct-solve candidate was adopted)
    solver: str = "sweep"
    #: True when *both* bracket sides were adopted from a certified oracle
    #: candidate (the bracket carries its own proof; see repro.core.solvers)
    certified: bool = False
    #: monotone verification sweeps spent on certification (0 without an
    #: oracle attempt; each slack-ladder trial costs one two-column sweep,
    #: plus one matvec for the lower side's contraction witness)
    certify_sweeps: int = 0
    #: sup-norm residual ``max |A x* + b - x*|`` of the oracle candidate
    #: over both bracket columns (None when no oracle ran)
    oracle_residual: Optional[float] = None
    #: solver-certification evidence for run certificates (witness hash,
    #: slack-ladder parameters, measured pre/post-fixpoint margins);
    #: excluded from equality — evidence describes *how* the bracket was
    #: certified, not what it is
    evidence: Optional[Dict] = field(default=None, repr=False, compare=False)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def tight(self) -> bool:
        """True when the bracket pins vpf to within 1e-9."""
        return self.width <= 1e-9

    def contains(self, p: float, slack: float = 1e-12) -> bool:
        return self.lower - slack <= p <= self.upper + slack


# ---------------------------------------------------------------------------
# transition compilation: guards -> float predicates, updates -> steppers
# ---------------------------------------------------------------------------


def _normalize(value: Fraction):
    """Integral rationals as plain ints: same hash/equality, faster arithmetic."""
    return int(value) if value.denominator == 1 else value


def _compile_guard(guard, var_index: Dict[str, int]) -> Callable:
    """Compile ``Polyhedron.contains_float(..., tol=1e-9)`` into a predicate
    over the float state vector, reproducing the reference evaluation order
    (constant first, then coefficients in insertion order)."""
    consts: List[float] = []
    clauses: List[str] = []
    for ineq in guard.inequalities:
        expr = ineq.expr
        parts = [repr(float(expr.const))]
        for name, coeff in expr.iter_coeffs():
            consts.append(float(coeff))
            parts.append(f"_c[{len(consts) - 1}] * f[{var_index[name]}]")
        clauses.append(f"({' + '.join(parts)}) <= 1e-9")
    body = " and ".join(clauses) or "True"
    namespace: Dict[str, object] = {"_c": consts}
    exec(f"def _guard(f, _c=_c):\n    return {body}", namespace)
    return namespace["_guard"]  # type: ignore[return-value]


def _compile_step(
    update, program_vars: Tuple[str, ...], var_index: Dict[str, int], draw: Dict[str, Fraction]
) -> Callable:
    """Compile one fork/draw combination into ``step(values) -> values'``.

    The sampling draw is substituted at compile time, so each stepper is a
    pure tuple-to-tuple affine map over exact numbers (ints where possible).
    """
    consts: List[object] = []
    parts: List[str] = []
    for v in program_vars:
        expr = update.assignments.get(v)
        if expr is None:
            parts.append(f"v[{var_index[v]}]")
            continue
        const = expr.const
        terms: List[str] = []
        for name, coeff in expr.iter_coeffs():
            if name in draw:
                const = const + coeff * draw[name]
                continue
            j = var_index[name]
            if coeff == 1:
                terms.append(f"v[{j}]")
            elif coeff == -1:
                terms.append(f"-v[{j}]")
            else:
                consts.append(_normalize(coeff))
                terms.append(f"_c[{len(consts) - 1}] * v[{j}]")
        if const != 0 or not terms:
            consts.append(_normalize(const))
            terms.append(f"_c[{len(consts) - 1}]")
        parts.append(" + ".join(terms))
    inner = ", ".join(parts)
    if len(parts) == 1:
        inner += ","
    namespace: Dict[str, object] = {"_c": consts}
    exec(f"def _step(v, _c=_c):\n    return ({inner})", namespace)
    return namespace["_step"]  # type: ignore[return-value]


def _draw_list(pts: PTS) -> List[Tuple[float, Dict[str, Fraction]]]:
    """Cartesian product of sampling atoms, in the reference engine's order
    (so probability weights are bit-identical float products)."""
    atoms_by_var = {}
    for r, dist in pts.distributions.items():
        atoms = dist.atoms()
        if atoms is None:
            raise ModelError(
                f"value iteration needs discrete sampling; {r!r} is continuous"
            )
        atoms_by_var[r] = atoms
    combos: List[Tuple[float, Dict[str, Fraction]]] = [(1.0, {})]
    for r, atoms in atoms_by_var.items():
        combos = [
            (p * float(q), {**d, r: value})
            for p, d in combos
            for q, value in atoms
        ]
    return combos


def _update_key(update) -> frozenset:
    """Content key of one affine update (equal keys iff equal updates):
    its lowerings are exact, so assignment and coefficient order do not
    matter."""
    return frozenset(update.assignments.items())


def _lazy_guard(entry: list, guard, var_index: Dict[str, int]) -> Callable:
    """A stand-in for ``entry[0]`` that compiles ``guard`` on its first
    call, stores the predicate in ``entry[0]`` and answers that call."""

    def first_call(f):
        entry[0] = guard_fn = _compile_guard(guard, var_index)
        return guard_fn(f)

    return first_call


def _compile_plan(pts: PTS):
    """Per-location list of ``[guard_predicate, steppers]`` in transition
    order, where ``steppers`` is ``[(probability, destination, step_fn)]``
    over every fork/draw combination.

    A stepper compiles once per distinct (update content, draw) pair.  A
    guard predicate compiles the first time the BFS evaluates it (the
    entry's stand-in replaces itself), so the guards of locations the
    scalar loop never expands before a handoff cost nothing."""
    draw_list = _draw_list(pts)
    var_index = {v: i for i, v in enumerate(pts.program_vars)}
    plan: Dict[str, List[list]] = {}
    step_cache: Dict[frozenset, List[Callable]] = {}
    for t in pts.transitions:
        steppers: List[Tuple[float, str, Callable]] = []
        for fork in t.forks:
            key = _update_key(fork.update)
            steps = step_cache.get(key)
            if steps is None:
                steps = step_cache[key] = [
                    _compile_step(fork.update, pts.program_vars, var_index, draw)
                    for _, draw in draw_list
                ]
            p_fork = float(fork.probability)
            for (draw_p, _), step in zip(draw_list, steps):
                steppers.append((p_fork * draw_p, fork.destination, step))
        entry = [None, steppers]
        entry[0] = _lazy_guard(entry, t.guard, var_index)
        plan.setdefault(t.source, []).append(entry)
    return plan


# ---------------------------------------------------------------------------
# lattice compilation: guards -> stacked integer inequality matrices,
# fork/draw updates -> int64 affine maps
# ---------------------------------------------------------------------------


@dataclass
class _IntLocPlan:
    """Vectorized transition logic of one location.

    ``guard_t`` holds every inequality row of every transition out of the
    location as a column, so ``values @ guard_t > guard_bound`` marks the
    violated rows (``row . values + const > 0``), and ``member[r, t]`` is 1
    for the rows of transition ``t``: ``(violated @ member) == 0`` is the
    enabled-transition mask (first match = argmax).  Both products run in
    float64, exactly: admission keeps every lowered row's magnitude
    ``sum(|row_j| * limit_j) + |const|`` below ``2**53`` — exact rows below
    ``2**52``, gap rows below ``_SCALED_GAP_LIMIT`` times the slack rule's
    cap ``_SCALED_GUARD_SLACK / (4 * _FLOAT_ULP)`` on their real
    magnitude — so at in-range states every product and partial sum is an
    integer float64 represents, in any summation order.
    Transition ``t`` fires the plan's steppers ``first_step[t]`` to
    ``first_step[t] + step_count[t] - 1``, in fork x draw order.
    """

    guard_t: np.ndarray
    guard_bound: np.ndarray
    member: np.ndarray
    first_step: np.ndarray
    step_count: np.ndarray


@dataclass
class _IntPlan:
    """A compiled frontier-batch exploration plan plus its lattice.

    ``scale[j]`` is the fixed-point denominator of program variable ``j``
    (all ones on an integer-lattice PTS); state vectors inside the BFS
    hold ``scale * value``.  ``limits[j]`` is the per-variable magnitude
    bound in *scaled* coordinates that every admitted state must satisfy:
    ``2**31`` on an integer-lattice PTS, ``min(2**31, scale[j] * 2**15)``
    otherwise.  ``admission`` is the run-certificate record of the bounds
    actually used — the ``lattice`` tag naming that limits rule, every
    guard row (with its clearing multiplier and overflow headroom) and
    every stepper's headroom, in transition order; an independent checker
    re-derives the same record from the PTS (see
    :mod:`repro.core.runcert`).

    Stepper ``k`` (every fork x draw combination of every transition, in
    transition order) fires with probability ``step_prob[k]`` and maps a
    state's scaled values ``v`` to the row ``[location, values] =
    step_row[k] + [0, step_a[k] @ v]``: ``step_row[k]`` is the destination
    and the constant part.  ``linear`` is false when every ``step_a[k]``
    is the identity, so successors are plain translations.
    """

    by_loc: Dict[int, _IntLocPlan]
    scale: List[int]
    limits: List[int]
    admission: Dict
    step_prob: np.ndarray
    step_row: np.ndarray
    step_a: np.ndarray
    linear: bool = field(init=False)

    def __post_init__(self) -> None:
        self.linear = bool((self.step_a != np.eye(len(self.scale), dtype=np.int64)).any())


def _guard_row(expr, var_index, scale, limits, ti: int, k: int) -> Optional[Dict]:
    """Lower guard inequality ``k`` of transition ``ti`` onto the lattice
    as its admission entry (row, const, clearing multiplier ``m`` and
    headroom), or ``None`` when it is inadmissible.

    The exact row ``sum(a_j * x_j) + c <= 0`` becomes
    ``sum((m * a_j / s_j) * (s_j * x_j)) + m * c <= 0`` for the smallest
    positive integer ``m`` clearing every denominator — sign-preserving,
    so the decision is unchanged.  Admission enforces the
    translation-validation argument that this integer decision equals the
    reference engine's ``float <= 1e-9`` decision at every in-range
    lattice state, where ``V_j = limits[j] / s_j`` bounds ``|x_j|``:

    * an *exact* row (``m = 1``, every variable of the row on scale 1)
      has integer coefficients over integer values, so when
      ``sum(|a_j| * V_j) + |c| < 2**52`` every float product and partial
      sum the reference forms is an exactly representable integer;
    * every other row needs a gap: with ``m <= 5e8`` a nonzero exact
      value is at least ``1/m >= 2e-9``, while the reference's float
      error is at most ``(nt + 4) * u * (|c| + sum |a_j| * V_j) <= 5e-10``
      for ``nt`` terms and unit roundoff ``u = 2**-53`` (each input is
      correctly rounded, each product adds ~3u relative error, each
      partial sum one more).  So exact ``<= 0`` implies float
      ``<= 5e-10 < 1e-9``, and exact ``> 0`` implies float
      ``>= 2e-9 - 5e-10 > 1e-9``.  The lowered row must also stay below
      ``2**62`` so the batched dot products cannot wrap.

    ``headroom`` is the margin of ``sum(|row_j| * limits[j]) + |m * c|``
    below the bound that applied (``2**52`` or ``2**62``).
    """
    terms = [(var_index[name], Fraction(coeff)) for name, coeff in expr.iter_coeffs()]
    const = Fraction(expr.const)
    mult = const.denominator
    for j, coeff in terms:
        mult = lcm(mult, (coeff / scale[j]).denominator)
    exact = mult == 1 and all(scale[j] == 1 for j, _ in terms)
    if not exact:
        if mult > _SCALED_GAP_LIMIT:
            return None
        magnitude = abs(float(const)) + sum(
            abs(float(coeff)) * (limits[j] / scale[j]) for j, coeff in terms
        )
        if (len(terms) + 4) * _FLOAT_ULP * magnitude > _SCALED_GUARD_SLACK:
            return None
    row = [0] * len(scale)
    for j, coeff in terms:
        row[j] = int(coeff / scale[j] * mult)
    c = int(const * mult)
    bound = _INT_GUARD_MAGNITUDE if exact else _INT_STEP_MAGNITUDE
    magnitude = sum(abs(a) * limit for a, limit in zip(row, limits)) + abs(c)
    if magnitude >= bound:
        return None
    return {
        "transition": ti,
        "ineq": k,
        "mult": mult,
        "row": row,
        "const": c,
        "headroom": bound - magnitude,
    }


def _step_rows(update, draw, program_vars, var_index, scale, limits):
    """Lower one fork/draw update onto the lattice as ``(A, c, headroom)``
    with ``succ = values @ A.T + c``, or ``None`` when inadmissible.

    Row ``v`` maps scaled values to ``s_v * x_v'`` through
    ``A[v, j] = s_v * a_vj / s_j`` and ``c_v = s_v * e_v`` (the draw
    folded into ``e_v``), integral by the report's divisibility fixpoint.
    Each row must stay below ``2**62`` at the per-variable limits so
    successor products cannot wrap before the per-batch range check;
    identity rows skip that check but count toward the headroom.
    """
    nv = len(program_vars)
    a_mat = np.zeros((nv, nv), dtype=np.int64)
    c_vec = np.zeros(nv, dtype=np.int64)
    worst = 0
    for vi, v in enumerate(program_vars):
        expr = update.assignments.get(v)
        if expr is None:
            a_mat[vi, vi] = 1
            worst = max(worst, limits[vi])
            continue
        row = [0] * nv
        const = Fraction(expr.const)
        for name, coeff in expr.iter_coeffs():
            if name in draw:
                const += coeff * draw[name]
                continue
            j = var_index[name]
            q = Fraction(coeff) * scale[vi] / scale[j]
            if q.denominator != 1:  # pragma: no cover - the report's divisibility fixpoint
                return None
            row[j] = int(q)
        const *= scale[vi]
        if const.denominator != 1:  # pragma: no cover - likewise
            return None
        magnitude = sum(abs(a) * limit for a, limit in zip(row, limits)) + abs(int(const))
        if magnitude >= _INT_STEP_MAGNITUDE:
            return None
        worst = max(worst, magnitude)
        a_mat[vi] = row
        c_vec[vi] = int(const)
    return a_mat, c_vec, _INT_STEP_MAGNITUDE - worst


def _compile_int_plan(pts: PTS) -> Optional[_IntPlan]:
    """Compile the lattice exploration plan, or ``None`` when inadmissible.

    The lattice is the report's per-variable scale (:meth:`PTS.integrality`,
    all ones on an integer-lattice PTS), and the per-variable limits are
    ``2**31`` on an integer-lattice PTS and ``min(2**31, s_v * 2**15)``
    otherwise — the ``lattice`` tag (``"int64"``/``"scaled"``) of the
    admission record names which.  Guard rows lower through
    :func:`_guard_row` (which owns the float-agreement argument), steppers
    through :func:`_step_rows`, each once per distinct atom (coefficient
    order included, since `_guard_row` sums its float magnitude in that
    order) and once per distinct (update content, draw) pair; the
    admission record still holds one entry per row and per stepper.
    """
    report = pts.integrality()
    if report.scale is None:
        return None
    program_vars = pts.program_vars
    nv = len(program_vars)
    var_index = {v: i for i, v in enumerate(program_vars)}
    loc_id = {name: i for i, name in enumerate(pts.locations)}
    draw_list = _draw_list(pts)
    scale = [int(s) for s in report.scale]
    if report.integral:
        lattice, limits = "int64", [_INT_VALUE_LIMIT] * nv
    else:
        lattice = "scaled"
        limits = [min(_INT_VALUE_LIMIT, s * _SCALED_REAL_LIMIT) for s in scale]

    guard_entries: List[Dict] = []
    step_entries: List[Dict] = []
    rows_by_loc: Dict[int, List[Tuple]] = {}
    guard_cache: Dict[Tuple, Dict] = {}
    step_cache: Dict[frozenset, List[Tuple[np.ndarray, np.ndarray, int]]] = {}
    step_prob: List[float] = []
    step_row: List[List[int]] = []
    step_a: List[np.ndarray] = []
    for ti, t in enumerate(pts.transitions):
        guard_rows: List[List[int]] = []
        guard_consts: List[int] = []
        for k, ineq in enumerate(t.guard.inequalities):
            key = ineq.expr.ordered_key()
            lowered = guard_cache.get(key)
            if lowered is None:
                lowered = _guard_row(ineq.expr, var_index, scale, limits, ti, k)
                if lowered is None:
                    return None
                guard_cache[key] = lowered
            entry = {**lowered, "transition": ti, "ineq": k, "row": list(lowered["row"])}
            guard_entries.append(entry)
            guard_rows.append(entry["row"])
            guard_consts.append(entry["const"])
        first_step = len(step_prob)
        for fi, fork in enumerate(t.forks):
            key = _update_key(fork.update)
            lowered_steps = step_cache.get(key)
            if lowered_steps is None:
                lowered_steps = [
                    _step_rows(fork.update, draw, program_vars, var_index, scale, limits)
                    for _, draw in draw_list
                ]
                if None in lowered_steps:
                    return None
                step_cache[key] = lowered_steps
            p_fork = float(fork.probability)
            dest = loc_id[fork.destination]
            for d_idx, ((draw_p, _), (a_mat, c_vec, headroom)) in enumerate(
                zip(draw_list, lowered_steps)
            ):
                step_entries.append(
                    {"transition": ti, "fork": fi, "draw": d_idx, "headroom": headroom}
                )
                step_prob.append(p_fork * draw_p)
                step_row.append([dest] + c_vec.tolist())
                step_a.append(a_mat)
        rows_by_loc.setdefault(loc_id[t.source], []).append(
            (guard_rows, guard_consts, first_step, len(step_prob) - first_step)
        )

    admission = {
        "lattice": lattice,
        "scale": list(scale),
        "limits": list(limits),
        "guards": guard_entries,
        "steps": step_entries,
        "bounds": {
            "value_limit": _INT_VALUE_LIMIT,
            "real_limit": _SCALED_REAL_LIMIT,
            "guard_magnitude": _INT_GUARD_MAGNITUDE,
            "step_magnitude": _INT_STEP_MAGNITUDE,
            "gap_limit": _SCALED_GAP_LIMIT,
            "guard_slack": _SCALED_GUARD_SLACK,
            "ulp": _FLOAT_ULP,
        },
    }

    by_loc: Dict[int, _IntLocPlan] = {}
    for lid, transitions in rows_by_loc.items():
        all_rows: List[List[int]] = []
        all_consts: List[int] = []
        member = np.zeros(
            (sum(len(t[0]) for t in transitions), len(transitions)), dtype=np.float64
        )
        for t_idx, (guard_rows, guard_consts, _, _) in enumerate(transitions):
            member[len(all_rows) : len(all_rows) + len(guard_rows), t_idx] = 1.0
            all_rows.extend(guard_rows)
            all_consts.extend(guard_consts)
        by_loc[lid] = _IntLocPlan(
            np.array(all_rows, dtype=np.float64).reshape(len(all_rows), nv).T,
            -np.array(all_consts, dtype=np.float64),
            member,
            np.array([t[2] for t in transitions], dtype=np.int64),
            np.array([t[3] for t in transitions], dtype=np.int64),
        )
    return _IntPlan(
        by_loc,
        scale,
        limits,
        admission,
        np.array(step_prob, dtype=np.float64),
        np.array(step_row, dtype=np.int64).reshape(len(step_row), nv + 1),
        np.array(step_a, dtype=np.int64).reshape(len(step_a), nv, nv),
    )


# ---------------------------------------------------------------------------
# state-interning BFS -> sparse model
# ---------------------------------------------------------------------------


@dataclass
class SparseFixpointModel:
    """The explored fragment as linear-algebra data.

    ``matrix`` holds interior-row transition probabilities into *every*
    state (sink rows are empty); the fixed sink values and the overflow
    pessimization live in the affine offsets, so one sweep of both passes is
    ``X <- matrix @ X + B``.  ``explored_via`` records which exploration
    engine produced the model: ``"fraction"``, or the lattice engine as
    ``"int64"`` (integer-lattice PTS) or ``"scaled-int64"`` (fractional
    PTS); both engines produce bit-identical data on admissible systems.
    """

    n: int
    matrix: csr_matrix  # shape (n, n)
    b_lower: np.ndarray  # per-state affine offset of the lower pass
    b_upper: np.ndarray  # ... of the upper pass (includes overflow mass)
    x0_lower: np.ndarray  # bottom lattice element (fail states pinned to 1)
    x0_upper: np.ndarray  # top lattice element (term states pinned to 0)
    truncated: bool
    explored_via: str = "fraction"
    # cache-only plumbing for the lazy `index` property: excluded from
    # equality (bit-identical models must compare equal regardless of which
    # engine built them) and from repr
    _index: Optional[Dict[State, int]] = field(default=None, repr=False, compare=False)
    _index_builder: Optional[Callable[[], Dict[State, int]]] = field(
        default=None, repr=False, compare=False
    )
    # exploration evidence for run certificates (per-level frontier
    # digests + the frontier plan's admission record); excluded from
    # equality for the same reason as the index plumbing — bit-identical
    # models must compare equal whichever engine built them
    _evidence: Optional[Dict] = field(default=None, repr=False, compare=False)

    @property
    def index(self) -> Dict[State, int]:
        """State -> row interning map, materialized on first access.

        The lattice explorer never builds Python state tuples during the
        BFS (it descales fixed-point coordinates back to exact rationals
        here); callers that want the mapping (tests, debugging) pay for it
        here instead of on every exploration.
        """
        if self._index is None:
            self._index = self._index_builder() if self._index_builder else {}
        return self._index

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)


def _matrix_from_triplets(n: int, rows, cols, probs) -> csr_matrix:
    """CSR from COO triplets; duplicate ``(i, j)`` entries sum, matching
    successor-list semantics.  Every explorer emits the same triplet
    order, so the summation is bit-identical across explorers."""
    return csr_matrix((probs, (rows, cols)), shape=(n, n))


def build_sparse_model(
    pts: PTS, max_states: int = 200_000, explore: str = "auto"
) -> SparseFixpointModel:
    """Explore the reachable fragment and assemble the sparse model.

    ``explore`` selects the exploration engine.  ``"auto"`` (default)
    runs one BFS: the scalar level loop explores while levels are narrow,
    and when the PTS is admitted by :func:`_compile_int_plan` it hands its
    tables to the batched lattice loop at the first level holding at
    least ``_BATCH_MIN_WIDTH`` states.  A state outside the admitted range
    (or two states under one key) at that point keeps the run scalar; an
    overflow after the handoff rebuilds the model on the scalar engine.
    ``"scaled"`` batches every level (raising :class:`ModelError` when
    the lattice engine cannot run); ``"fraction"`` never leaves the exact
    scalar path.  ``max_states`` must be at least 1: the initial state is
    always explored.

    All engines visit states in exactly the reference engine's order (so
    ``max_states`` truncation cuts the same frontier) and emit COO triplets
    in the same order, making the resulting models bit-identical.
    """
    if explore not in _EXPLORE_MODES:
        raise ValueError(f"explore must be one of {_EXPLORE_MODES}, got {explore!r}")
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    plan = None if explore == "fraction" else _compile_int_plan(pts)
    if explore != "scaled":
        try:
            return _build_model_exact(pts, max_states, plan)
        except _IntOverflow:
            # a batched level left the admitted range or met a shared key:
            # the exact path handles any magnitude and interns exact tuples
            return _build_model_exact(pts, max_states)
    if plan is None:
        # scale_reason is empty when a lattice exists but a row is refused
        raise ModelError(
            "scaled exploration requires a fixed-point-admissible PTS: "
            + (
                pts.integrality().scale_reason
                or "coefficient magnitudes or guard gaps exceed the admission bounds"
            )
        )
    prefix = _ScalarPrefix.initial(pts)
    try:
        tables = _lattice_tables(pts, plan, prefix.order)
        return _build_model_int(pts, plan, max_states, prefix, tables)
    except _IntOverflow as exc:
        why = str(exc) or (
            f"state values overflowed the {plan.admission['lattice']} "
            f"frontier limit (|scaled value| beyond the per-variable "
            f"bound, at most {_INT_VALUE_LIMIT})"
        )
        raise ModelError(f"{why}; rerun with explore='fraction'") from None


@dataclass
class _ScalarPrefix:
    """What the scalar BFS has built when it hands over at a level
    boundary: the states in discovery order (levels before
    ``level_start`` fully expanded), the COO triplets and overflow masses
    so far, the truncation flag and the level digests."""

    order: List[State]
    level_start: int
    rows: List[int]
    cols: List[int]
    probs: List[float]
    overflow: Dict[int, float]
    truncated: bool
    acc: DigestAccumulator

    @staticmethod
    def initial(pts: PTS) -> "_ScalarPrefix":
        init = tuple(pts.init_valuation[v] for v in pts.program_vars)
        return _ScalarPrefix(
            [(pts.init_location, init)], 0, [], [], [], {}, False, DigestAccumulator()
        )


def _build_model_exact(
    pts: PTS, max_states: int, plan: Optional[_IntPlan] = None
) -> SparseFixpointModel:
    """The scalar engine: state-interning BFS over compiled tuple steppers.

    The BFS walks the same state sequence it always did, but in *level
    windows* — the window ``[level_start, level_stop)`` snapshots the
    intern table exactly like the frontier engines' batch windows, so the
    per-level certificate digests agree across engines bit for bit.
    Given a lattice ``plan``, the first level of ``_BATCH_MIN_WIDTH`` or
    more states hands the run to :func:`_build_model_int` instead.  A
    guard predicate compiles the first time a state evaluates it.
    """
    compiled = _compile_plan(pts)
    loc_id = {name: i for i, name in enumerate(pts.locations)}
    prefix = _ScalarPrefix.initial(pts)
    order, rows, cols, probs = prefix.order, prefix.rows, prefix.cols, prefix.probs
    overflow, acc = prefix.overflow, prefix.acc
    index: Dict[State, int] = {order[0]: 0}
    truncated = False
    is_sink = pts.is_sink
    level_start = 0
    while level_start < len(order):
        level_stop = len(order)
        if plan is not None and level_stop - level_start >= _BATCH_MIN_WIDTH:
            prefix.level_start, prefix.truncated = level_start, truncated
            try:
                tables = _lattice_tables(pts, plan, order)
            except _IntOverflow:
                plan = None  # an out-of-range state or a shared key: stay scalar
            else:
                return _build_model_int(pts, plan, max_states, prefix, tables)
        acc.add_level(
            [
                exact_state_row(loc_id[loc], values)
                for loc, values in order[level_start:level_stop]
            ]
        )
        for frontier in range(level_start, level_stop):
            loc, values = order[frontier]
            if is_sink(loc):
                continue
            fvals = [float(x) for x in values]
            for guard_fn, steppers in compiled.get(loc, ()):
                if guard_fn(fvals):
                    break
            else:
                valuation = dict(zip(pts.program_vars, values))
                raise ModelError(f"no enabled transition at {loc!r} with {valuation}")
            for p, destination, step in steppers:
                nxt = (destination, step(values))
                j = index.get(nxt)
                if j is None:
                    if len(order) >= max_states:
                        truncated = True
                        overflow[frontier] = overflow.get(frontier, 0.0) + p
                        continue
                    j = len(order)
                    index[nxt] = j
                    order.append(nxt)
                rows.append(frontier)
                cols.append(j)
                probs.append(p)
        level_start = level_stop

    n = len(order)
    fail_loc, term_loc = pts.fail_location, pts.term_location
    b_lower = np.zeros(n)
    x0_upper = np.ones(n)
    for i, (loc, _) in enumerate(order):
        if loc == fail_loc:
            b_lower[i] = 1.0
        elif loc == term_loc:
            x0_upper[i] = 0.0
    b_upper = b_lower.copy()
    for i, mass in overflow.items():
        b_upper[i] += mass
    return SparseFixpointModel(
        n=n,
        matrix=_matrix_from_triplets(n, rows, cols, probs),
        b_lower=b_lower,
        b_upper=b_upper,
        x0_lower=b_lower.copy(),
        x0_upper=x0_upper,
        truncated=truncated,
        explored_via="fraction",
        _index=index,
        _evidence={"levels": acc.finish(), "admission": None},
    )


def _frontier_keys(comb: np.ndarray) -> np.ndarray:
    """One uint64 key per ``(location, values)`` int64 row: the row's
    columns folded in by xor, multiply by `_KEY_MULTIPLIER` and xorshift.

    Equal rows get equal keys; distinct rows almost never share one, and
    the explorer compares every key match row for row, so a shared key
    costs a fallback, never a wrong model.
    """
    cols = comb.view(np.uint64)
    keys = cols[:, 0] * _KEY_MULTIPLIER
    for j in range(1, cols.shape[1]):
        keys ^= cols[:, j]
        keys *= _KEY_MULTIPLIER
        keys ^= keys >> np.uint64(32)
    return keys


def _lattice_tables(
    pts: PTS, plan: _IntPlan, order: List[State]
) -> Tuple[np.ndarray, Dict[int, int]]:
    """The lattice engine's tables of the exact states ``order``: one
    ``[location, scaled values...]`` int64 row per state, and the intern
    dict from each row's 64-bit key to its index.

    Raises :class:`_IntOverflow` when a state leaves the admitted range
    ``plan.limits`` (or is off the lattice, which admission rules out),
    and with ``_KEY_COLLISION`` when two of the distinct states share a
    key.
    """
    loc_id = {name: i for i, name in enumerate(pts.locations)}
    rows = []
    for loc, values in order:
        row = [loc_id[loc]]
        for value, s, limit in zip(values, plan.scale, plan.limits):
            scaled = value * s
            if scaled.denominator != 1 or abs(scaled) > limit:
                raise _IntOverflow
            row.append(int(scaled))
        rows.append(row)
    states = np.array(rows, dtype=np.int64)
    keys = dict(zip(_frontier_keys(states).tolist(), range(len(rows))))
    if len(keys) != len(rows):
        raise _IntOverflow(_KEY_COLLISION)
    return states, keys


def _build_model_int(
    pts: PTS,
    plan: _IntPlan,
    max_states: int,
    prefix: _ScalarPrefix,
    tables: Tuple[np.ndarray, Dict[int, int]],
) -> SparseFixpointModel:
    """The lattice engine: frontier-batch BFS with verified uint64 keys.

    Picks up where the scalar BFS ``prefix`` stopped (at level 0 for a
    forced ``"scaled"`` run), from its states as ``tables`` (see
    :func:`_lattice_tables`).  Each BFS level costs a fixed number of
    whole-level numpy calls plus one guard product per present location:
    the first enabled transition of every state picks a run of the plan's
    global steppers, candidates are laid out directly in sequential
    ``(source, stepper)`` discovery order (a state's first candidate sits
    at the exclusive cumsum of the stepper counts before it), and one
    gathered affine map computes every successor.  Within the level,
    candidates deduplicate by an argsort of their :func:`_frontier_keys`
    (first occurrences by ``np.minimum.reduceat``); across levels, one
    dict from key to state index interns them, and new states are
    admitted in first-appearance order — so interning, truncation and
    triplet emission replicate the scalar engine exactly.  Keys are
    checked, not trusted: every candidate must equal its level
    representative and every table hit the stored row, and a mismatch
    (two states under one key) raises :class:`_IntOverflow`.  The BFS runs
    entirely in fixed-point coordinates (``plan.scale * value``, an exact
    bijection onto the reachable rationals); only the lazy ``index``
    descales back.  Raises :class:`_IntOverflow` the moment an admitted
    successor leaves the per-variable range ``plan.limits``.
    """
    loc_names = pts.locations
    loc_id = {name: i for i, name in enumerate(loc_names)}
    sink = np.array([pts.is_sink(name) for name in loc_names], dtype=bool)
    program_vars = pts.program_vars
    nv = len(program_vars)
    limits = np.array(plan.limits, dtype=np.int64)
    scale_row = np.array(plan.scale, dtype=np.int64).reshape(1, nv)

    prefix_states, keys = tables
    n = len(prefix_states)
    cap = max(1024, 2 * n)
    # one [location, scaled values...] row per state
    states = np.zeros((cap, nv + 1), dtype=np.int64)
    states[:n] = prefix_states
    over = np.zeros(cap, dtype=np.float64)
    for i, mass in prefix.overflow.items():
        over[i] = mass
    rows_chunks = [np.array(prefix.rows, dtype=np.int64)]
    cols_chunks = [np.array(prefix.cols, dtype=np.int64)]
    probs_chunks = [np.array(prefix.probs, dtype=np.float64)]
    truncated = prefix.truncated
    acc = prefix.acc

    base = prefix.level_start
    while base < n:
        stop = n
        width = stop - base
        level_locs = states[base:stop, 0]
        level_vals = states[base:stop, 1:]
        acc.add_level(canonical_level_rows(level_locs, level_vals, scale_row))

        # dispatch: the first enabled transition's run of global steppers
        count = np.zeros(width, dtype=np.int64)
        first = np.zeros(width, dtype=np.int64)
        present = np.bincount(level_locs, minlength=len(loc_names))
        present[sink] = 0
        for lid in np.flatnonzero(present).tolist():
            sel = slice(None) if present[lid] == width else np.flatnonzero(level_locs == lid)
            group = level_vals[sel]
            lp = plan.by_loc.get(lid)
            if lp is None:
                enabled = np.zeros((len(group), 1), dtype=bool)
            else:
                violated = group.astype(np.float64) @ lp.guard_t > lp.guard_bound
                enabled = (violated @ lp.member) == 0
            stuck = ~enabled.any(axis=1)
            if stuck.any():
                bad = int(np.flatnonzero(stuck)[0])
                valuation = dict(zip(program_vars, (int(x) for x in group[bad])))
                raise ModelError(
                    f"no enabled transition at {loc_names[lid]!r} with {valuation}"
                )
            choice = enabled.argmax(axis=1)
            count[sel] = lp.step_count[choice]
            first[sel] = lp.first_step[choice]

        # candidates in sequential discovery order: source, then stepper
        ends = np.cumsum(count)
        total = int(ends[-1])
        if not total:
            base = stop
            continue
        step = np.repeat(first - ends + count, count)
        step += np.arange(total)
        cand = plan.step_row[step]
        moved = np.repeat(level_vals, count, axis=0)
        if plan.linear:
            moved = np.einsum("cvj,cj->cv", plan.step_a[step], moved)
        cand[:, 1:] += moved
        prob = plan.step_prob[step]

        # dedup within the level: representative = first occurrence
        cand_keys = _frontier_keys(cand)
        by_key = np.argsort(cand_keys)
        sorted_keys = cand_keys[by_key]
        head = np.empty(total, dtype=bool)
        head[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        uniq = sorted_keys[starts]
        rep = np.minimum.reduceat(by_key, starts)
        inverse = np.empty(total, dtype=np.int64)
        inverse[by_key] = np.cumsum(head) - 1
        if not (cand == cand[rep[inverse]]).all():
            raise _IntOverflow(_KEY_COLLISION)

        # intern: probe the table, verify hits, admit the rest in order
        gidx = np.fromiter(
            map(keys.get, uniq.tolist(), repeat(-1)), dtype=np.int64, count=len(uniq)
        )
        known = gidx >= 0
        if not (states[gidx[known]] == cand[rep[known]]).all():
            raise _IntOverflow(_KEY_COLLISION)
        new = np.flatnonzero(~known)
        if len(new):
            new = new[np.argsort(rep[new])]
            room = max_states - n
            if len(new) > room:
                truncated = True
                new = new[:room]
            m = len(new)
            if m:
                admitted = cand[rep[new]]
                # range-check only states actually admitted: candidates the
                # max_states budget drops (or duplicates of in-range states)
                # may carry any magnitude — they never feed guard evaluation.
                # Every admitted state staying within its per-variable limit
                # is also what keeps the next level's stepper products
                # inside int64 (and, on scaled lattices, the reference
                # engine's float guard evaluation within the admitted error)
                if (np.abs(admitted[:, 1:]) > limits).any():
                    raise _IntOverflow
                if n + m > cap:
                    while cap < n + m:
                        cap *= 2
                    # explicit grow-and-copy (np.resize would repeat-fill);
                    # the live level views keep the old buffer alive
                    states_grown = np.zeros((cap, nv + 1), dtype=np.int64)
                    states_grown[:n] = states[:n]
                    states = states_grown
                    over_grown = np.zeros(cap, dtype=np.float64)
                    over_grown[:n] = over[:n]
                    over = over_grown
                states[n : n + m] = admitted
                gidx[new] = np.arange(n, n + m)
                keys.update(zip(uniq[new].tolist(), range(n, n + m)))
                n += m

        cols = gidx[inverse]
        rows = np.repeat(np.arange(base, stop), count)
        dropped = cols < 0
        if dropped.any():
            np.add.at(over, rows[dropped], prob[dropped])
            kept = ~dropped
            rows, cols, prob = rows[kept], cols[kept], prob[kept]
        rows_chunks.append(rows)
        cols_chunks.append(cols)
        probs_chunks.append(prob)
        base = stop

    locs = states[:n, 0]
    vals = states[:n, 1:]
    b_lower = np.zeros(n)
    x0_upper = np.ones(n)
    b_lower[locs == loc_id[pts.fail_location]] = 1.0
    x0_upper[locs == loc_id[pts.term_location]] = 0.0
    b_upper = b_lower + over[:n]

    def index_builder() -> Dict[State, int]:
        # descale back to the exact representation: Fraction(k, s)
        # auto-reduces, and _normalize keeps integral values as plain ints
        # — both hash-equal to the scalar engine's tuples
        names = [loc_names[i] for i in locs.tolist()]
        rows_list = vals.tolist()
        return {
            (
                names[i],
                tuple(
                    _normalize(Fraction(k, s)) for k, s in zip(rows_list[i], plan.scale)
                ),
            ): i
            for i in range(n)
        }

    return SparseFixpointModel(
        n=n,
        matrix=_matrix_from_triplets(
            n,
            np.concatenate(rows_chunks),
            np.concatenate(cols_chunks),
            np.concatenate(probs_chunks),
        ),
        b_lower=b_lower,
        b_upper=b_upper,
        x0_lower=b_lower.copy(),
        x0_upper=x0_upper,
        truncated=truncated,
        explored_via="int64" if plan.admission["lattice"] == "int64" else "scaled-int64",
        _index_builder=index_builder,
        _evidence={"levels": acc.finish(), "admission": plan.admission},
    )


# ---------------------------------------------------------------------------
# value iteration sweeps
# ---------------------------------------------------------------------------


def iterate_model(
    model: SparseFixpointModel,
    max_iterations: int = 100_000,
    tol: float = 1e-12,
    solver: str = "auto",
) -> ValueIterationResult:
    """Run the value-iteration passes over an already-built sparse model.

    Every sweep is one CSR matvec ``X <- A X + B`` over the two-column
    (lower, upper) iterate.  ``solver`` selects the solve-then-certify
    policy:

    * ``"sweep"`` — plain monotone sweeping to ``tol``;
    * ``"auto"`` — after a short sweep warmup (fast-mixing systems
      converge inside it and never pay oracle setup), solve
      ``(I - A) x = [b_lower, b_upper, 1]`` directly, certify the
      candidate with monotone sweeps (:func:`repro.core.solvers
      .certify_bracket`; the third column is the lower side's contraction
      witness), adopt whatever certifies, and resume sweeping from the —
      certified or unchanged — iterate as polish and fallback.

    A fully certified adoption (both sides) ends the run immediately: the
    bracket then carries its own proof and further sweeps could only
    shrink it below oracle precision.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    n = model.n
    x = np.stack([model.x0_lower, model.x0_upper], axis=1)
    b = np.stack([model.b_lower, model.b_upper], axis=1)
    matrix = model.matrix

    def sweep(v):
        return matrix @ v + b

    iterations = 0
    converged = False

    def sweep_until(x, budget):
        nonlocal iterations, converged
        for _ in range(budget):
            iterations += 1
            x_new = sweep(x)
            delta = float(np.abs(x_new - x).max())
            x = x_new
            if delta <= tol:
                converged = True
                break
        return x

    used_solver = "sweep"
    certified = False
    certify_sweeps = 0
    oracle_residual: Optional[float] = None
    # run-certificate evidence: how (not what) the bracket was certified.
    # Deliberately free of timings/timestamps so serial and pooled runs
    # of the same model produce byte-identical certificates.
    vi_evidence: Dict = {
        "requested": solver,
        "oracle": None,
        "warmup_sweeps": None,
        "witness_sha256": None,
        "witness_max": None,
        "witness_ok": None,
        "slack_ladder": None,
        "adopted_lower": False,
        "adopted_upper": False,
        "post_fixpoint_margin": None,
        "pre_fixpoint_margin": None,
        "tol": tol,
    }

    if solver == "auto":
        x = sweep_until(x, min(_solvers.WARMUP_SWEEPS, max_iterations))
        if not converged and iterations < max_iterations:
            rhs = np.column_stack([model.b_lower, model.b_upper, np.ones(n)])
            try:
                candidate = _solvers.run_oracle(matrix, rhs, n)
            except _solvers.OracleFailure:
                candidate = None
            if candidate is not None:
                resid = sweep(candidate[:, :2]) - candidate[:, :2]
                oracle_residual = float(np.abs(resid).max())
                allow_lower = _solvers.contraction_witness_ok(
                    matrix, candidate[:, 2]
                )
                certify_sweeps += 1  # the witness matvec
                x, ok_lower, ok_upper, sweeps = _solvers.certify_bracket(
                    matrix,
                    b,
                    x,
                    candidate[:, :2],
                    candidate[:, 2],
                    oracle_residual,
                    allow_lower,
                )
                certify_sweeps += sweeps
                # the witness evidence is the certifier's nudge direction
                nudge = _solvers.nudge_direction(candidate[:, 2])
                base = max(oracle_residual, 2.0**-52)
                vi_evidence.update(
                    oracle="direct",
                    warmup_sweeps=_solvers.WARMUP_SWEEPS,
                    witness_sha256=hashlib.sha256(
                        np.ascontiguousarray(nudge.astype("<f8")).tobytes()
                    ).hexdigest(),
                    witness_max=float(nudge.max(initial=1.0)),
                    witness_ok=bool(allow_lower),
                    slack_ladder={
                        "base": base,
                        "multiples": list(_solvers.SLACK_MULTIPLES),
                        "cap": _solvers.SLACK_CAP,
                    },
                    adopted_lower=bool(ok_lower),
                    adopted_upper=bool(ok_upper),
                )
                if ok_lower or ok_upper:
                    used_solver = "direct"
                    # one extra matvec measures the adopted iterate's
                    # fixed-point margins — the checkable residue of the
                    # Knaster–Tarski argument (post-fixpoint: T(x) >= x
                    # on the lower column; pre-fixpoint: T(x) <= x on
                    # the upper).  Evidence only: certify_sweeps and the
                    # bracket itself are untouched.
                    margin = sweep(x) - x
                    if ok_lower:
                        vi_evidence["post_fixpoint_margin"] = float(margin[:, 0].min())
                    if ok_upper:
                        vi_evidence["pre_fixpoint_margin"] = float(-margin[:, 1].max())
                if ok_lower and ok_upper:
                    certified = True
                    # the bracket carries its own proof; end the run when
                    # the candidate was solve-quality (further sweeps could
                    # only polish below oracle precision).  A certified but
                    # coarse candidate instead jump-starts the resumed
                    # sweeps: adopted points are pre/post-fixpoints, so
                    # monotone sweeping keeps improving them
                    if oracle_residual <= max(10.0 * tol, 1e-11):
                        converged = True
    if not converged:
        x = sweep_until(x, max_iterations - iterations)
    return ValueIterationResult(
        lower=float(x[0, 0]),
        upper=float(x[0, 1]),
        states=n,
        iterations=iterations,
        truncated=model.truncated,
        solver=used_solver,
        certified=certified,
        certify_sweeps=certify_sweeps,
        oracle_residual=oracle_residual,
        evidence=vi_evidence,
    )


def value_iteration(
    pts: PTS,
    max_states: int = 200_000,
    max_iterations: int = 100_000,
    tol: float = 1e-12,
    explore: str = "auto",
    solver: str = "auto",
) -> ValueIterationResult:
    """Compute a rigorous bracket on ``vpf(l_init, v_init)`` by iterating
    ``ptf`` from bottom and from top over the explored state space.

    Both passes run simultaneously as one matrix product over a two-column
    array per sweep; convergence is a sup-norm check at ``tol``.

    ``explore`` selects the exploration engine (see
    :func:`build_sparse_model`); ``solver`` the solve-then-certify policy
    (see :func:`iterate_model`): ``"sweep"`` sweeps only, ``"auto"``
    accelerates slow-mixing systems through a certified direct-solve
    candidate without weakening the bracket.
    """
    model = build_sparse_model(pts, max_states, explore=explore)
    return iterate_model(
        model, max_iterations=max_iterations, tol=tol, solver=solver
    )


def exact_vpf(pts: PTS, max_states: int = 200_000, tol: float = 1e-12) -> float:
    """``vpf(init)`` when the bracket closes; raises otherwise."""
    result = value_iteration(pts, max_states=max_states, tol=tol)
    if result.width > 1e-6:
        raise ModelError(
            f"value iteration bracket did not close (width {result.width:.2e}); "
            "the PTS may not terminate almost-surely or was truncated"
        )
    return 0.5 * (result.lower + result.upper)
