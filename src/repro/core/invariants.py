"""Invariants for PTSs: representation, checking, and interval generation.

The paper assumes an affine invariant ``I`` mapping each location to a
polyhedron over-approximating the reachable valuations (it derived these
manually for the benchmarks; see Section 7, "Invariants and Termination").
This module provides:

* :class:`InvariantMap` — the invariant object consumed by all three
  synthesis algorithms;
* :func:`generate_interval_invariants` — an automatic generator based on
  interval abstract interpretation with widening (invariant generation is
  an orthogonal problem, as the paper notes; intervals are enough for the
  box-shaped invariants all paper benchmarks use);
* trajectory-based soundness checking (an invariant that fails on sampled
  reachable states is rejected before synthesis).

Interval generation is exact and LP-free: every bound is a ``Fraction``
computed by interval arithmetic, by bound propagation through guards, or
(for guards with two or more coupled atoms) from the double-description
generators of :mod:`repro.polyhedra.dd`.  No float decides a bound, so
each generated box contains every reachable valuation of its location
exactly, on fractional lattices too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ModelError
from repro.polyhedra.constraints import (
    Box,
    Interval,
    Polyhedron,
    _box_to_polyhedron,
    _tighten_box_by_guard,
)
from repro.polyhedra.linexpr import LinExpr
from repro.pts.model import PTS, Transition

__all__ = ["InvariantMap", "generate_interval_invariants"]


class InvariantMap:
    """A location-indexed affine invariant ``I : L -> Polyhedron``.

    Locations without an entry get the universe polyhedron (always sound,
    rarely useful).  All polyhedra are re-embedded over the full program
    variable tuple so downstream matrix code sees a consistent dimension.
    """

    def __init__(self, pts: PTS, mapping: Optional[Mapping[str, Polyhedron]] = None):
        self._pts = pts
        self._map: Dict[str, Polyhedron] = {}
        for loc, poly in (mapping or {}).items():
            if loc not in pts.locations:
                raise ModelError(f"invariant for unknown location {loc!r}")
            self._map[loc] = poly.with_variables(pts.program_vars)
        self._premises: Optional[Tuple[Tuple[int, Transition, Polyhedron], ...]] = None

    @property
    def pts(self) -> PTS:
        return self._pts

    def of(self, location: str) -> Polyhedron:
        """The invariant polyhedron at ``location`` (universe by default)."""
        poly = self._map.get(location)
        if poly is None:
            return Polyhedron.universe(self._pts.program_vars)
        return poly

    def premises(self) -> Tuple[Tuple[int, Transition, Polyhedron], ...]:
        """``(index, transition, Psi = I(l_src) /\\ guard)`` for each transition
        whose premise is nonempty (an empty one is unreachable by the
        invariant), in transition order.  Built once per map, so every
        synthesis family reads the same ``Psi`` objects."""
        if self._premises is None:
            pts = self._pts
            premises = (
                (i, t, self.of(t.source).intersect(t.guard).with_variables(pts.program_vars))
                for i, t in enumerate(pts.transitions)
            )
            self._premises = tuple(p for p in premises if not p[2].is_empty())
        return self._premises

    def set(self, location: str, poly: Polyhedron) -> "InvariantMap":
        """Return a copy with the invariant at ``location`` replaced."""
        new = dict(self._map)
        new[location] = poly.with_variables(self._pts.program_vars)
        return InvariantMap(self._pts, new)

    def merged_with(self, annotations: Mapping[str, Polyhedron]) -> "InvariantMap":
        """Intersect with source-level annotations (e.g. ``invariant`` clauses)."""
        new = dict(self._map)
        for loc, poly in annotations.items():
            if loc in new:
                merged = Polyhedron(
                    self._pts.program_vars,
                    list(new[loc].inequalities)
                    + list(poly.with_variables(self._pts.program_vars).inequalities),
                )
                new[loc] = merged
            else:
                new[loc] = poly.with_variables(self._pts.program_vars)
        return InvariantMap(self._pts, new)

    def locations(self) -> List[str]:
        return sorted(self._map)

    def check_on_trajectories(
        self, episodes: int = 200, max_steps: int = 2000, seed: int = 0
    ) -> List[str]:
        """Empirically check soundness: every visited state must satisfy I.

        Returns a list of violation descriptions (empty when none found).
        """
        pts = self._pts
        rng = random.Random(seed)
        sampling = sorted(pts.distributions)
        problems: List[str] = []
        for _ in range(episodes):
            location = pts.init_location
            valuation = {k: float(v) for k, v in pts.init_valuation.items()}
            for _ in range(max_steps):
                if not self.of(location).contains_float(valuation, tol=1e-6):
                    problems.append(
                        f"invariant at {location!r} violated by reachable state "
                        + ", ".join(f"{k}={x:.4f}" for k, x in valuation.items())
                    )
                    return problems
                if pts.is_sink(location):
                    break
                transition = pts.enabled_transition(location, valuation)
                if transition is None:
                    break
                u = rng.random()
                acc = 0.0
                fork = transition.forks[-1]
                for f in transition.forks:
                    acc += float(f.probability)
                    if u <= acc:
                        fork = f
                        break
                draws = {r: pts.distributions[r].sample(rng) for r in sampling}
                valuation = fork.update.apply_float(valuation, draws)
                location = fork.destination
        return problems

    def __repr__(self) -> str:
        return f"InvariantMap({len(self._map)} locations)"


# ---------------------------------------------------------------------------
# interval abstract interpretation
# ---------------------------------------------------------------------------

def _interval_add(a: Interval, b: Interval) -> Interval:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return lo, hi


def _interval_scale(a: Interval, k: Fraction) -> Interval:
    if k == 0:
        return Fraction(0), Fraction(0)
    lo, hi = a
    if k > 0:
        return (None if lo is None else lo * k), (None if hi is None else hi * k)
    return (None if hi is None else hi * k), (None if lo is None else lo * k)


def _interval_join(a: Interval, b: Interval) -> Interval:
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return lo, hi


def _interval_widen(
    old: Interval, new: Interval, thresholds: List[Fraction]
) -> Interval:
    """Widening with thresholds: a growing bound jumps to the nearest guard
    constant beyond it (infinity when none remains).

    Threshold widening keeps the guard-shaped bounds the paper's manual
    invariants rely on (e.g. ``x <= 100`` for the Figure 3 walk, one past
    the loop guard ``x <= 99``) while still guaranteeing termination of the
    analysis: each widening strictly advances through the finite threshold
    list.
    """
    if old[0] is None or new[0] is None or new[0] < old[0]:
        below = [t for t in thresholds if new[0] is not None and t <= new[0]]
        lo = max(below) if below else None
    else:
        lo = old[0]
    if old[1] is None or new[1] is None or new[1] > old[1]:
        above = [t for t in thresholds if new[1] is not None and t >= new[1]]
        hi = min(above) if above else None
    else:
        hi = old[1]
    return lo, hi


def _guard_thresholds(pts: PTS) -> Dict[str, List[Fraction]]:
    """Per-variable threshold candidates from single-variable guard atoms.

    An atom ``c * x <= d`` contributes ``d / c``; the initial value of each
    variable is included as well (and a +/-1 neighbourhood of each, since
    integer programs typically overshoot a guard by one step).
    """
    thresholds: Dict[str, set] = {v: {pts.init_valuation[v]} for v in pts.program_vars}
    for t in pts.transitions:
        for ineq in t.guard.inequalities:
            names = ineq.expr.variables()
            if len(names) != 1:
                continue
            (name,) = names
            bound = -ineq.expr.const / ineq.expr.coeff(name)
            thresholds[name].update({bound - 1, bound, bound + 1})
    return {v: sorted(vals) for v, vals in thresholds.items()}


def _eval_expr_interval(expr: LinExpr, box: Box, sampling_supports: Box) -> Interval:
    result: Interval = (expr.const, expr.const)
    for name, coeff in expr.coeffs.items():
        if name in box:
            iv = box[name]
        elif name in sampling_supports:
            iv = sampling_supports[name]
        else:
            iv = (None, None)
        result = _interval_add(result, _interval_scale(iv, coeff))
    return result


def generate_interval_invariants(
    pts: PTS, widen_after: int = 12, max_rounds: int = 200, narrow_rounds: int = 4
) -> InvariantMap:
    """Interval abstract interpretation with threshold widening + narrowing.

    Computes a sound per-location box over-approximating the reachable
    valuations, starting from the initial state and propagating through
    guards (the exact bounding box of box ∩ guard, see
    :func:`_tighten_box_by_guard`) and affine updates (interval arithmetic;
    sampling variables contribute their support interval).  After
    ``widen_after`` updates of a location, unstable bounds are widened to
    the next guard threshold (or infinity), guaranteeing termination; a
    final descending (narrowing) phase then recovers bounds like
    ``x <= guard + max overshoot`` that widening skipped past.
    """
    variables = pts.program_vars
    thresholds = _guard_thresholds(pts)
    sampling_supports: Box = {
        r: d.support() for r, d in pts.distributions.items()
    }
    boxes: Dict[str, Box] = {
        pts.init_location: {v: (pts.init_valuation[v], pts.init_valuation[v]) for v in variables}
    }
    visits: Dict[str, int] = {}
    worklist = [pts.init_location]
    rounds = 0
    while worklist and rounds < max_rounds:
        rounds += 1
        loc = worklist.pop()
        box = boxes.get(loc)
        if box is None:
            continue
        for t in pts.transitions_from(loc):
            entry = _tighten_box_by_guard(box, t.guard)
            if entry is None:
                continue
            for fork in t.forks:
                image: Box = {
                    v: _eval_expr_interval(fork.update.expr_for(v), entry, sampling_supports)
                    for v in variables
                }
                dest = fork.destination
                old = boxes.get(dest)
                if old is None:
                    boxes[dest] = image
                    if not pts.is_sink(dest):
                        worklist.append(dest)
                    continue
                joined = {v: _interval_join(old[v], image[v]) for v in variables}
                if joined != old:
                    visits[dest] = visits.get(dest, 0) + 1
                    if visits[dest] > widen_after:
                        joined = {
                            v: _interval_widen(old[v], joined[v], thresholds[v])
                            for v in variables
                        }
                    boxes[dest] = joined
                    if not pts.is_sink(dest):
                        worklist.append(dest)
    boxes = _narrow(pts, boxes, sampling_supports, narrow_rounds)
    mapping = {
        loc: _box_to_polyhedron(box, variables) for loc, box in boxes.items()
    }
    return InvariantMap(pts, mapping)


def _interval_meet(a: Interval, b: Interval) -> Interval:
    lo = b[0] if a[0] is None else (a[0] if b[0] is None else max(a[0], b[0]))
    hi = b[1] if a[1] is None else (a[1] if b[1] is None else min(a[1], b[1]))
    return lo, hi


def _narrow(
    pts: PTS,
    boxes: Dict[str, Box],
    sampling_supports: Box,
    rounds: int,
) -> Dict[str, Box]:
    """Descending iterations from the widened post-fixpoint.

    One round recomputes every location's box as the join of the initial
    state (for the initial location) and all one-step images under the
    current boxes, then meets it with the current box.  Starting from a
    post-fixpoint this stays a sound over-approximation while shrinking
    bounds that widening blew past.
    """
    variables = pts.program_vars
    for _ in range(rounds):
        fresh: Dict[str, Box] = {
            pts.init_location: {
                v: (pts.init_valuation[v], pts.init_valuation[v]) for v in variables
            }
        }
        for loc, box in boxes.items():
            for t in pts.transitions_from(loc):
                entry = _tighten_box_by_guard(box, t.guard)
                if entry is None:
                    continue
                for fork in t.forks:
                    image: Box = {
                        v: _eval_expr_interval(
                            fork.update.expr_for(v), entry, sampling_supports
                        )
                        for v in variables
                    }
                    dest = fork.destination
                    if dest in fresh:
                        fresh[dest] = {
                            v: _interval_join(fresh[dest][v], image[v]) for v in variables
                        }
                    else:
                        fresh[dest] = image
        changed = False
        for loc in list(boxes):
            if loc not in fresh:
                continue  # keep the old (sound) box for locations not re-derived
            met = {v: _interval_meet(boxes[loc][v], fresh[loc][v]) for v in variables}
            if met != boxes[loc]:
                boxes[loc] = met
                changed = True
        if not changed:
            break
    return boxes
