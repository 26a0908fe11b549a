"""Legacy pure-Python value iteration, kept as the differential oracle.

This module is the pre-vectorization implementation of
:mod:`repro.core.fixpoint`, preserved byte-for-byte in behaviour: the same
breadth-first exploration order, the same overflow pessimization, the same
(Gauss-Seidel style, in-place) sweep over successor lists.  The sparse
engine in :mod:`repro.core.fixpoint` must produce brackets that agree with
this one to within iteration tolerance on every discrete program — the
equivalence suites (``tests/test_fixpoint_equivalence.py`` for the scalar
Fraction explorer, ``tests/test_fixpoint_int.py`` for the lattice
frontier-batch explorer) enforce that on the example
programs and on randomized PTSs.

Do not optimize this module; its value is being slow and obviously correct.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.errors import ModelError
from repro.pts.model import PTS
from repro.core.fixpoint import ValueIterationResult

__all__ = ["value_iteration", "exact_vpf"]

State = Tuple[str, Tuple[Fraction, ...]]


def _explore(
    pts: PTS, max_states: int
) -> Tuple[Dict[State, int], List[Optional[List[Tuple[float, int]]]], bool]:
    """Enumerate reachable states; returns (index, successor lists, truncated).

    ``successors[i]`` is ``None`` for sink/overflow states; otherwise a list
    of ``(probability, state_index)``.  Requires discrete distributions
    (finite atom sets) — continuous sampling has uncountable reach.
    """
    atoms_by_var = {}
    for r, dist in pts.distributions.items():
        atoms = dist.atoms()
        if atoms is None:
            raise ModelError(
                f"value iteration needs discrete sampling; {r!r} is continuous"
            )
        atoms_by_var[r] = atoms

    def draws() -> List[Tuple[float, Dict[str, Fraction]]]:
        combos: List[Tuple[float, Dict[str, Fraction]]] = [(1.0, {})]
        for r, atoms in atoms_by_var.items():
            combos = [
                (p * float(q), {**d, r: value})
                for p, d in combos
                for q, value in atoms
            ]
        return combos

    draw_list = draws()
    init_state: State = (
        pts.init_location,
        tuple(pts.init_valuation[v] for v in pts.program_vars),
    )
    index: Dict[State, int] = {init_state: 0}
    order: List[State] = [init_state]
    successors: List[Optional[List[Tuple[float, int]]]] = []
    truncated = False
    frontier = 0
    while frontier < len(order):
        loc, values = order[frontier]
        frontier += 1
        if pts.is_sink(loc):
            successors.append(None)
            continue
        valuation = dict(zip(pts.program_vars, values))
        float_val = {k: float(v) for k, v in valuation.items()}
        transition = pts.enabled_transition(loc, float_val)
        if transition is None:
            raise ModelError(f"no enabled transition at {loc!r} with {valuation}")
        outs: List[Tuple[float, int]] = []
        for fork in transition.forks:
            for draw_p, draw in draw_list:
                nxt_val = fork.update.apply(valuation, draw)
                nxt: State = (
                    fork.destination,
                    tuple(nxt_val[v] for v in pts.program_vars),
                )
                if nxt not in index:
                    if len(order) >= max_states:
                        truncated = True
                        outs.append((float(fork.probability) * draw_p, -1))
                        continue
                    index[nxt] = len(order)
                    order.append(nxt)
                outs.append((float(fork.probability) * draw_p, index.get(nxt, -1)))
        successors.append(outs)
    return index, successors, truncated


def value_iteration(
    pts: PTS,
    max_states: int = 200_000,
    max_iterations: int = 100_000,
    tol: float = 1e-12,
) -> ValueIterationResult:
    """Compute a rigorous bracket on ``vpf(l_init, v_init)`` by iterating
    ``ptf`` from bottom and from top over the explored state space."""
    index, successors, truncated = _explore(pts, max_states)
    n = len(successors)
    loc_of = [None] * n
    for (loc, _), i in index.items():
        loc_of[i] = loc

    lower = [0.0] * n
    upper = [0.0] * n
    for i in range(n):
        if loc_of[i] == pts.fail_location:
            lower[i] = upper[i] = 1.0
        elif loc_of[i] == pts.term_location:
            lower[i] = upper[i] = 0.0
        elif successors[i] is None:  # pragma: no cover - only sinks are None
            lower[i], upper[i] = 0.0, 1.0
        else:
            lower[i], upper[i] = 0.0, 1.0

    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        delta = 0.0
        for i in range(n):
            outs = successors[i]
            if outs is None:
                continue
            lo = 0.0
            hi = 0.0
            for p, j in outs:
                if j < 0:
                    hi += p  # overflow state: pessimistic 1 above, 0 below
                else:
                    lo += p * lower[j]
                    hi += p * upper[j]
            delta = max(delta, abs(lo - lower[i]), abs(hi - upper[i]))
            lower[i], upper[i] = lo, hi
        if delta <= tol:
            break
    return ValueIterationResult(
        lower=lower[0],
        upper=upper[0],
        states=n,
        iterations=iterations,
        truncated=truncated,
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
