"""Well-formedness checks for PTSs beyond construction-time validation.

The paper assumes (Section 2, "Additional Assumption") that transition
guards out of each location are *mutually exclusive* and *complete*.  Exact
completeness of a union of polyhedra is expensive to decide in general; we
check exclusivity exactly up to boundaries (full-dimensional overlap leaves
the intersection nonempty after shrinking) and completeness statistically on
sampled valuations, which catches every compiler bug we care about in practice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple

from repro.errors import ModelError
from repro.polyhedra.constraints import AffineIneq, Polyhedron
from repro.pts.model import PTS

__all__ = ["ValidationReport", "check_exclusivity", "check_completeness", "validate_pts"]


@dataclass
class ValidationReport:
    """Outcome of PTS validation."""

    exclusive: bool = True
    complete: bool = True
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exclusive and self.complete and not self.problems

    def raise_if_bad(self) -> None:
        if not self.ok:
            raise ModelError("PTS validation failed:\n  " + "\n  ".join(self.problems))


def _has_full_dimensional_overlap(a: Polyhedron, b: Polyhedron, gap: Fraction) -> bool:
    """True iff ``a ∩ b`` still contains a point after shrinking every
    inequality by ``gap`` — i.e. the overlap is not just a shared boundary."""
    merged = a.intersect(b)
    shrunk = Polyhedron(
        merged.variables,
        [AffineIneq(i.expr + gap) for i in merged.inequalities],
    )
    return not shrunk.is_empty()


def check_exclusivity(pts: PTS, gap: Fraction = Fraction(1, 1000)) -> List[str]:
    """Detect pairs of same-source transitions with overlapping guards.

    Overlap confined to guard boundaries (the compiler's closed-complement
    convention) is tolerated; interior overlap is reported.
    """
    problems = []
    for loc in pts.interior_locations:
        ts = pts.transitions_from(loc)
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                if _has_full_dimensional_overlap(ts[i].guard, ts[j].guard, gap):
                    problems.append(
                        f"location {loc!r}: guards of {ts[i].name!r} and "
                        f"{ts[j].name!r} overlap on an interior region"
                    )
    return problems


def check_completeness(
    pts: PTS,
    region: Optional[Mapping[str, Tuple[float, float]]] = None,
    samples: int = 200,
    seed: int = 0,
    max_steps: int = 400,
) -> List[str]:
    """Statistically check completeness on *reachable* states.

    The paper's completeness assumption quantifies over all real valuations,
    but integer-stepped programs (all paper benchmarks) legitimately leave
    guard gaps between grid points; what simulation and value iteration need
    is completeness on the reachable set ``S``.  We therefore follow
    ``samples`` random trajectories from the initial state and report any
    reached interior state with no enabled transition.  Locations with no
    outgoing transitions at all are always reported.  ``region`` is accepted
    for API compatibility and ignored.
    """
    del region  # reachability-based check needs no sampling box
    rng = random.Random(seed)
    problems = []
    for loc in pts.interior_locations:
        if not pts.transitions_from(loc):
            problems.append(f"location {loc!r} has no outgoing transitions")
    if problems:
        return problems
    sampling = sorted(pts.distributions)
    for _ in range(samples):
        location = pts.init_location
        valuation = {k: float(v) for k, v in pts.init_valuation.items()}
        for _ in range(max_steps):
            if pts.is_sink(location):
                break
            transition = pts.enabled_transition(location, valuation)
            if transition is None:
                problems.append(
                    f"location {location!r}: no guard enabled at reachable valuation "
                    f"{ {k: round(x, 3) for k, x in valuation.items()} }"
                )
                return problems
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


def validate_pts(
    pts: PTS,
    region: Optional[Mapping[str, Tuple[float, float]]] = None,
    check_complete: bool = True,
) -> ValidationReport:
    """Full validation: construction invariants already hold; adds guard
    exclusivity and (optionally) statistical completeness."""
    report = ValidationReport()
    excl = check_exclusivity(pts)
    if excl:
        report.exclusive = False
        report.problems.extend(excl)
    if check_complete:
        comp = check_completeness(pts, region)
        if comp:
            report.complete = False
            report.problems.extend(comp)
    return report
