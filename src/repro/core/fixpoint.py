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

Exploration runs on one of two interchangeable engines producing
*bit-identical* models:

* **lattice frontier batches** (the fast path, ``explore="scaled"``):
  when the PTS lives on a fixed-point lattice — per-variable denominator
  LCMs ``s_v`` (:attr:`IntegralityReport.scale
  <repro.pts.IntegralityReport>`, all ones on the integer lattice) — the
  BFS explores the rescaled integers ``s_v * v``.  Guards compile to
  stacked integer inequality matrices (each row multiplied by its own
  positive integer so coefficients stay integral) and fork/draw updates
  to ``int64`` affine maps, and the BFS advances a whole frontier per
  step — successor batches are computed as matrix products, deduplicated
  through one uint64 key per ``(location, values)`` row (every key match
  verified row for row; two states under one key take the overflow
  fallback) instead of per-state tuple interning, and admitted in exactly
  the sequential discovery order, so state indices, truncation cuts and
  COO triplet order match the scalar engine bit for bit; the lazy
  ``index`` descales back to the exact rationals.  The translation is
  validated by construction: one per-row admission rule (``_guard_row``)
  makes the integer decision ``<= 0`` coincide with the reference
  engine's float ``<= 1e-9`` decision on every in-range state, and any
  state beyond its per-variable limit aborts the batch and falls back to
  the exact path.
  Models are labelled ``"int64"`` on an integer-lattice PTS (limits
  ``2**31``) and ``"scaled-int64"`` otherwise (limits
  ``min(2**31, s_v * 2**15)``).
* **scalar Fraction interning** (``explore="fraction"``): the original
  state-interning BFS whose per-location transition logic is *compiled* —
  guards become float predicates and fork/draw updates become
  tuple-to-tuple stepper functions — handling non-lattice systems and
  arbitrary magnitudes with exact rational arithmetic.

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
FIXPOINT_FINGERPRINT = "scaled-int64-frontier.csr-jacobi.v5"

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

#: thin-frontier bailout (``explore="auto"`` only): after this many BFS
#: levels, a run averaging fewer than ``_THIN_MIN_WIDTH`` states per level
#: restarts on the scalar engine — per-batch numpy overhead makes batching
#: a loss on long, narrow chains (1DWalk-shaped systems)
_THIN_CHECK_BATCHES = 64
_THIN_MIN_WIDTH = 8

#: tiny-model bailout (``explore="auto"`` only): a fully explored model
#: below this many states re-runs on the scalar Fraction engine — per-batch
#: numpy setup costs more than the whole scalar BFS on such models (the
#: 13-state gambler measured a 0.29x "speedup" under lattice batching)
_TINY_MODEL_STATES = 256


class _IntOverflow(Exception):
    """Internal: a frontier batch left the admitted per-variable range, or
    two distinct states met under one 64-bit key (the message says which)."""


class _ThinFrontier(Exception):
    """Internal: frontier too narrow for batching to pay off."""


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


def _compile_plan(pts: PTS):
    """Per-location list of ``(guard_predicate, steppers)`` in transition
    order, where ``steppers`` is ``[(probability, destination, step_fn)]``
    over every fork/draw combination."""
    draw_list = _draw_list(pts)
    var_index = {v: i for i, v in enumerate(pts.program_vars)}
    plan: Dict[str, List[Tuple[Callable, List[Tuple[float, str, Callable]]]]] = {}
    step_cache: Dict[Tuple[int, int], Callable] = {}
    for t in pts.transitions:
        guard_fn = _compile_guard(t.guard, var_index)
        steppers: List[Tuple[float, str, Callable]] = []
        for fork in t.forks:
            p_fork = float(fork.probability)
            for d_idx, (draw_p, draw) in enumerate(draw_list):
                key = (id(fork.update), d_idx)
                step = step_cache.get(key)
                if step is None:
                    step = _compile_step(fork.update, pts.program_vars, var_index, draw)
                    step_cache[key] = step
                steppers.append((p_fork * draw_p, fork.destination, step))
        plan.setdefault(t.source, []).append((guard_fn, steppers))
    return plan


# ---------------------------------------------------------------------------
# lattice compilation: guards -> stacked integer inequality matrices,
# fork/draw updates -> int64 affine maps
# ---------------------------------------------------------------------------


class _IntLocPlan:
    """Vectorized transition logic of one location.

    ``guard_matrix``/``guard_const`` stack every inequality row of every
    transition out of the location; ``guard_slices[t]`` is the row range of
    transition ``t`` (first-match dispatch slices the evaluated matrix).
    ``steppers[t]`` lists the fork x draw combinations of transition ``t``
    as ``(probability, destination_loc_id, A, c)`` with
    ``succ = values @ A.T + c``.
    """

    __slots__ = ("guard_matrix", "guard_const", "guard_slices", "steppers")

    def __init__(self, guard_matrix, guard_const, guard_slices, steppers):
        self.guard_matrix = guard_matrix
        self.guard_const = guard_const
        self.guard_slices = guard_slices
        self.steppers = steppers


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
    """

    __slots__ = ("by_loc", "scale", "limits", "admission")

    def __init__(self, by_loc, scale, limits, admission):
        self.by_loc = by_loc
        self.scale = scale
        self.limits = limits
        self.admission = admission


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
    through :func:`_step_rows`.
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
    step_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, int]] = {}
    for ti, t in enumerate(pts.transitions):
        guard_rows: List[List[int]] = []
        guard_consts: List[int] = []
        for k, ineq in enumerate(t.guard.inequalities):
            entry = _guard_row(ineq.expr, var_index, scale, limits, ti, k)
            if entry is None:
                return None
            guard_entries.append(entry)
            guard_rows.append(entry["row"])
            guard_consts.append(entry["const"])
        steppers: List[Tuple[float, int, np.ndarray, np.ndarray]] = []
        for fi, fork in enumerate(t.forks):
            p_fork = float(fork.probability)
            dest = loc_id[fork.destination]
            for d_idx, (draw_p, draw) in enumerate(draw_list):
                key = (id(fork.update), d_idx)
                cached = step_cache.get(key)
                if cached is None:
                    cached = _step_rows(
                        fork.update, draw, program_vars, var_index, scale, limits
                    )
                    if cached is None:
                        return None
                    step_cache[key] = cached
                a_mat, c_vec, headroom = cached
                step_entries.append(
                    {"transition": ti, "fork": fi, "draw": d_idx, "headroom": headroom}
                )
                steppers.append((p_fork * draw_p, dest, a_mat, c_vec))
        rows_by_loc.setdefault(loc_id[t.source], []).append(
            (guard_rows, guard_consts, steppers)
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
        slices: List[Tuple[int, int]] = []
        stepper_lists = []
        for guard_rows, guard_consts, steppers in transitions:
            start = len(all_rows)
            all_rows.extend(guard_rows)
            all_consts.extend(guard_consts)
            slices.append((start, len(all_rows)))
            stepper_lists.append(steppers)
        by_loc[lid] = _IntLocPlan(
            np.array(all_rows, dtype=np.int64).reshape(len(all_rows), nv),
            np.array(all_consts, dtype=np.int64),
            slices,
            stepper_lists,
        )
    return _IntPlan(by_loc, scale, limits, admission)


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

    ``explore`` selects the exploration engine: ``"auto"`` (default) runs
    the lattice frontier-batch BFS whenever the PTS is admitted by
    :func:`_compile_int_plan` and silently falls back to the exact path
    on inadmissible systems, on value overflow mid-exploration, and on
    thin or tiny models where batching does not pay; ``"scaled"`` forces
    the lattice engine (raising :class:`ModelError` when it cannot run,
    and never bailing out to the scalar engine); ``"fraction"`` forces
    the exact scalar path.

    All engines visit states in exactly the reference engine's order (so
    ``max_states`` truncation cuts the same frontier) and emit COO triplets
    in the same order, making the resulting models bit-identical.
    """
    if explore not in _EXPLORE_MODES:
        raise ValueError(f"explore must be one of {_EXPLORE_MODES}, got {explore!r}")
    if explore != "fraction":
        plan = _compile_int_plan(pts)
        if plan is None:
            if explore == "scaled":
                # scale_reason is empty when a lattice exists but a row is refused
                raise ModelError(
                    "scaled exploration requires a fixed-point-admissible PTS: "
                    + (
                        pts.integrality().scale_reason
                        or "coefficient magnitudes or guard gaps exceed the admission bounds"
                    )
                )
        else:
            try:
                # forced scaled disables the thin-frontier bailout so tests
                # and benchmarks exercise the batched path deterministically
                return _build_model_int(
                    pts, plan, max_states, allow_thin_bailout=explore == "auto"
                )
            except _IntOverflow as exc:
                if explore == "scaled":
                    why = str(exc) or (
                        f"state values overflowed the {plan.admission['lattice']} "
                        f"frontier limit (|scaled value| beyond the per-variable "
                        f"bound, at most {_INT_VALUE_LIMIT})"
                    )
                    raise ModelError(f"{why}; rerun with explore='fraction'") from None
                # fall through to the exact path, which handles any magnitude
                # and interns exact state tuples instead of 64-bit keys
            except _ThinFrontier:
                pass  # narrow chain: the scalar engine is faster
    return _build_model_exact(pts, max_states)


def _build_model_exact(pts: PTS, max_states: int) -> SparseFixpointModel:
    """The scalar engine: state-interning BFS over compiled tuple steppers.

    The BFS walks the same state sequence it always did, but in *level
    windows* — the window ``[level_start, level_stop)`` snapshots the
    intern table exactly like the frontier engines' batch windows, so the
    per-level certificate digests agree across engines bit for bit.
    """
    plan = _compile_plan(pts)
    loc_id = {name: i for i, name in enumerate(pts.locations)}
    init_state: State = (
        pts.init_location,
        tuple(pts.init_valuation[v] for v in pts.program_vars),
    )
    index: Dict[State, int] = {init_state: 0}
    order: List[State] = [init_state]
    rows: List[int] = []
    cols: List[int] = []
    probs: List[float] = []
    overflow: Dict[int, float] = {}
    truncated = False
    is_sink = pts.is_sink
    acc = DigestAccumulator()
    level_start = 0
    while level_start < len(order):
        level_stop = len(order)
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
            for guard_fn, steppers in plan.get(loc, ()):
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


def _build_model_int(
    pts: PTS,
    plan: _IntPlan,
    max_states: int,
    allow_thin_bailout: bool = False,
) -> SparseFixpointModel:
    """The lattice engine: frontier-batch BFS with verified uint64 keys.

    Each BFS level is processed as numpy batches — guard dispatch is one
    integer matrix product per location group, successor generation one
    product per fork/draw stepper — and candidates are reordered to the
    sequential ``(source, stepper)`` discovery order before ``np.unique``
    over their :func:`_frontier_keys` assigns new state indices in
    first-appearance order, so interning, truncation and triplet emission
    replicate the scalar engine exactly.  The global intern table is a
    *sorted* uint64 key array probed with ``np.searchsorted`` — no
    per-state Python hashing anywhere.  Keys are checked, not trusted:
    every candidate must equal its batch representative and every table
    hit the stored row, and a mismatch (two states under one key) raises
    :class:`_IntOverflow`.  The BFS runs entirely in fixed-point
    coordinates (``plan.scale * value``, an exact bijection onto the
    reachable rationals); only the lazy ``index`` descales back.  Raises
    :class:`_IntOverflow` the moment any successor leaves the per-variable
    admitted range ``plan.limits`` and :class:`_ThinFrontier` (when
    allowed) on chain-shaped systems whose levels are too narrow to
    amortize batching, or on fully explored models too small
    (``< _TINY_MODEL_STATES``) for batching to have paid for itself.
    """
    loc_names = pts.locations
    loc_id = {name: i for i, name in enumerate(loc_names)}
    is_sink = np.array([pts.is_sink(name) for name in loc_names], dtype=bool)
    program_vars = pts.program_vars
    nv = len(program_vars)
    width = nv + 1  # location id + values, the dedup record
    limits = np.array(plan.limits, dtype=np.int64)

    init_vals = []
    for v, s in zip(program_vars, plan.scale):
        value = pts.init_valuation[v] * s
        if value.denominator != 1:  # pragma: no cover - admission folds
            raise _IntOverflow  # init denominators into the scale
        init_vals.append(int(value))
    if any(abs(x) > limit for x, limit in zip(init_vals, plan.limits)):
        raise _IntOverflow

    cap = 1024
    vals = np.zeros((cap, nv), dtype=np.int64)
    locs = np.zeros(cap, dtype=np.int64)
    over = np.zeros(cap, dtype=np.float64)
    vals[0] = init_vals
    locs[0] = loc_id[pts.init_location]
    n = 1

    first_rec = np.empty((1, width), dtype=np.int64)
    first_rec[0, 0] = locs[0]
    first_rec[0, 1:] = vals[0]
    # two-tier sorted intern table (LSM-style): fresh keys go into the small
    # `side` arrays (cheap O(|side|) inserts); when side overflows it merges
    # into `main` once, so the O(n) rebuild happens every ~8k admissions
    # instead of every batch.  Probes are two binary searches.
    main_keys = _frontier_keys(first_rec)
    main_gidx = np.zeros(1, dtype=np.int64)
    side_keys = main_keys[:0]
    side_gidx = main_gidx[:0]
    _SIDE_LIMIT = 8192

    rows_chunks: List[np.ndarray] = []
    cols_chunks: List[np.ndarray] = []
    probs_chunks: List[np.ndarray] = []
    truncated = False
    batches = 0
    acc = DigestAccumulator()
    scale_row = np.array(plan.scale, dtype=np.int64).reshape(1, nv)

    base = 0
    while base < n:
        stop = n
        batch_locs = locs[base:stop]
        batch_vals = vals[base:stop]
        acc.add_level(canonical_level_rows(batch_locs, batch_vals, scale_row))

        c_src: List[np.ndarray] = []
        c_rank: List[np.ndarray] = []
        c_loc: List[np.ndarray] = []
        c_vals: List[np.ndarray] = []
        c_prob: List[np.ndarray] = []
        for lid in np.unique(batch_locs):
            lid = int(lid)
            if is_sink[lid]:
                continue
            sel = np.nonzero(batch_locs == lid)[0]
            group = batch_vals[sel]
            lp = plan.by_loc.get(lid)
            if lp is None:
                valuation = dict(zip(program_vars, (int(x) for x in group[0])))
                raise ModelError(
                    f"no enabled transition at {loc_names[lid]!r} with {valuation}"
                )
            if lp.guard_matrix.size:
                holds = (group @ lp.guard_matrix.T + lp.guard_const) <= 0
            else:
                holds = np.ones((len(group), 0), dtype=bool)
            enabled = np.column_stack(
                [holds[:, a:b].all(axis=1) for a, b in lp.guard_slices]
            )
            if not enabled.any(axis=1).all():
                bad = int(np.nonzero(~enabled.any(axis=1))[0][0])
                valuation = dict(zip(program_vars, (int(x) for x in group[bad])))
                raise ModelError(
                    f"no enabled transition at {loc_names[lid]!r} with {valuation}"
                )
            choice = enabled.argmax(axis=1)
            for t_idx, steppers in enumerate(lp.steppers):
                t_sel = sel[choice == t_idx]
                if not len(t_sel):
                    continue
                t_vals = batch_vals[t_sel]
                for rank, (p, dest, a_mat, c_vec) in enumerate(steppers):
                    c_src.append(t_sel)
                    c_rank.append(np.full(len(t_sel), rank, dtype=np.int64))
                    c_loc.append(np.full(len(t_sel), dest, dtype=np.int64))
                    c_vals.append(t_vals @ a_mat.T + c_vec)
                    c_prob.append(np.full(len(t_sel), p, dtype=np.float64))

        if not c_src:
            base = stop
            continue
        src = np.concatenate(c_src)
        rank = np.concatenate(c_rank)
        dest_loc = np.concatenate(c_loc)
        succ = np.vstack(c_vals)
        prob = np.concatenate(c_prob)
        # sequential discovery order: source position, then stepper rank
        emit_order = np.lexsort((rank, src))
        src = src[emit_order]
        dest_loc = dest_loc[emit_order]
        succ = succ[emit_order]
        prob = prob[emit_order]

        comb = np.empty((len(src), width), dtype=np.int64)
        comb[:, 0] = dest_loc
        comb[:, 1:] = succ
        uniq, first, inverse = np.unique(
            _frontier_keys(comb), return_index=True, return_inverse=True
        )
        if not (comb == comb[first[inverse]]).all():
            raise _IntOverflow(_KEY_COLLISION)
        gidx = np.full(len(uniq), -1, dtype=np.int64)
        pos = np.searchsorted(main_keys, uniq)
        clipped = np.minimum(pos, len(main_keys) - 1)
        known = main_keys[clipped] == uniq
        gidx[known] = main_gidx[pos[known]]
        if len(side_keys):
            pos = np.searchsorted(side_keys, uniq)
            clipped = np.minimum(pos, len(side_keys) - 1)
            in_side = side_keys[clipped] == uniq
            gidx[in_side] = side_gidx[pos[in_side]]
            known |= in_side
        hits = np.nonzero(known)[0]
        if len(hits):
            g, rec = gidx[hits], comb[first[hits]]
            if not ((locs[g] == rec[:, 0]).all() and (vals[g] == rec[:, 1:]).all()):
                raise _IntOverflow(_KEY_COLLISION)
        new_ks = np.nonzero(~known)[0]
        if len(new_ks):
            # admit in first-appearance (= sequential discovery) order
            new_ks = new_ks[np.argsort(first[new_ks], kind="stable")]
            room = max_states - n
            if len(new_ks) > room:
                truncated = True
                new_ks = new_ks[:room]
            m = len(new_ks)
            if m:
                if n + m > cap:
                    while cap < n + m:
                        cap *= 2
                    # explicit grow-and-copy (np.resize would repeat-fill);
                    # live batch views keep the old buffers alive
                    vals_grown = np.zeros((cap, nv), dtype=np.int64)
                    vals_grown[:n] = vals[:n]
                    vals = vals_grown
                    locs_grown = np.zeros(cap, dtype=np.int64)
                    locs_grown[:n] = locs[:n]
                    locs = locs_grown
                    over_grown = np.zeros(cap, dtype=np.float64)
                    over_grown[:n] = over[:n]
                    over = over_grown
                admitted_rows = first[new_ks]
                admitted_vals = succ[admitted_rows]
                # range-check only states actually admitted: candidates the
                # max_states budget drops (or duplicates of in-range states)
                # may carry any magnitude — they never feed guard evaluation.
                # Every admitted state staying within its per-variable limit
                # is also what keeps the next level's stepper products
                # inside int64 (and, on scaled lattices, the reference
                # engine's float guard evaluation within the admitted error)
                if admitted_vals.size and bool(
                    (np.abs(admitted_vals) > limits).any()
                ):
                    raise _IntOverflow
                vals[n : n + m] = admitted_vals
                locs[n : n + m] = dest_loc[admitted_rows]
                gidx[new_ks] = n + np.arange(m, dtype=np.int64)
                # admit into the side tier (ascending positions into uniq =
                # ascending key order), spilling into main when it overflows
                adm = np.sort(new_ks)
                ins = np.searchsorted(side_keys, uniq[adm])
                side_keys = np.insert(side_keys, ins, uniq[adm])
                side_gidx = np.insert(side_gidx, ins, gidx[adm])
                if len(side_keys) > _SIDE_LIMIT:
                    ins = np.searchsorted(main_keys, side_keys)
                    main_keys = np.insert(main_keys, ins, side_keys)
                    main_gidx = np.insert(main_gidx, ins, side_gidx)
                    side_keys = side_keys[:0]
                    side_gidx = side_gidx[:0]
                n += m
        cols = gidx[inverse]
        emit = cols >= 0
        rows_chunks.append(src[emit] + base)
        cols_chunks.append(cols[emit])
        probs_chunks.append(prob[emit])
        dropped = ~emit
        if dropped.any():
            np.add.at(over, src[dropped] + base, prob[dropped])
        base = stop
        batches += 1
        if (
            allow_thin_bailout
            and batches == _THIN_CHECK_BATCHES
            and n < _THIN_CHECK_BATCHES * _THIN_MIN_WIDTH
        ):
            raise _ThinFrontier

    if allow_thin_bailout and n < _TINY_MODEL_STATES:
        # the whole reachable set is tiny: batching never amortized its
        # per-level numpy setup, so re-run on the scalar engine (cheap at
        # this size, and what `explore="auto"` should have picked)
        raise _ThinFrontier

    vals = vals[:n]
    locs = locs[:n]
    over = over[:n]
    rows = np.concatenate(rows_chunks) if rows_chunks else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols_chunks) if cols_chunks else np.empty(0, dtype=np.int64)
    probs = (
        np.concatenate(probs_chunks) if probs_chunks else np.empty(0, dtype=np.float64)
    )

    b_lower = np.zeros(n)
    x0_upper = np.ones(n)
    b_lower[locs == loc_id[pts.fail_location]] = 1.0
    x0_upper[locs == loc_id[pts.term_location]] = 0.0
    b_upper = b_lower + over

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
        matrix=_matrix_from_triplets(n, rows, cols, probs),
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
