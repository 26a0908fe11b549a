"""Probabilistic transition systems (Section 2 of the paper).

A PTS is a tuple ``(V, R, D, L, T, l_init, v_init, l_term, l_fail)``:
program variables, sampling variables with distributions, locations, guarded
probabilistic transitions, an initial state and two distinguished sink
locations — ``l_term`` for normal termination and ``l_fail`` for assertion
violation.  The quantity of interest (QAVA) is::

    vpf(l, v) = Pr[ reach l_fail | start in (l, v) ]

All guards are conjunctions of affine inequalities (:class:`Polyhedron`) and
all updates are affine maps ``upd(v, r) = Q v + R r + e`` — the *affine PTS*
class for which the paper's algorithms are sound/complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.polyhedra.constraints import Polyhedron
from repro.polyhedra.linexpr import LinExpr
from repro.pts.distributions import Distribution
from repro.utils.numbers import Number, as_fraction

__all__ = [
    "TERM",
    "FAIL",
    "AffineUpdate",
    "Fork",
    "Transition",
    "PTS",
    "IntegralityReport",
]

#: canonical names of the two sink locations
TERM = "__term__"
FAIL = "__fail__"

#: hard cap on any per-variable fixed-point denominator of the scaled
#: lattice (see :meth:`PTS.integrality`): the guard-gap argument of the
#: lattice explorer needs ``1/scale`` to stay orders of magnitude
#: above the reference engine's 1e-9 float guard tolerance
_SCALE_LIMIT = 10**6

#: bound on the divisibility-propagation passes of the scaled-lattice
#: analysis — a safety net only: contractive update coefficients (like
#: ``x := x/2``) grow some denominator geometrically and trip the
#: ``_SCALE_LIMIT`` cap within a few passes, long before this budget
_SCALE_PASSES = 64


@dataclass(frozen=True)
class IntegralityReport:
    """Lattice-admission report: does a PTS live on the integer lattice,
    and if not, on which *scaled* (fixed-point) lattice?

    ``scale`` reports the per-variable denominator LCMs ``s_v`` of a
    fixed-point lattice: every reachable value of variable ``v`` is an
    integer multiple of ``1/s_v``, so exploration can run on the rescaled
    machine integers ``s_v * v`` (the lattice frontier fast path in
    :mod:`repro.core.fixpoint`) with decisions provably identical to the
    exact :class:`~fractions.Fraction` semantics, and descale emitted
    states back to the exact representation.  ``scale`` is ``None`` —
    with ``scale_reason`` naming the witness — when no such lattice
    exists: continuous sampling, contractive update coefficients
    (``x := x/2`` refines the lattice forever), or denominators beyond
    the 10^6 cap.

    A PTS is *integer-lattice* (``integral``, with ``scale`` all ones)
    when every quantity that enters a reachable state or a guard is an
    integer: the initial valuation, every guard coefficient and constant,
    every update coefficient and constant, and every atom value of every
    (discrete) sampling distribution.  The explorer then admits states up
    to ``2**31`` per variable (run label ``"int64"``); on any other
    lattice descaled magnitudes stay below ``2**15`` (``"scaled-int64"``).

    Fork *probabilities* are deliberately exempt throughout: they weight
    transitions but never enter a state vector.  Engine magnitude limits
    (values that would overflow ``int64``) are a property of a *run*, not
    of the system, and are checked by the explorer, not here.
    """

    integral: bool
    reason: str = ""
    #: per-``program_vars`` fixed-point denominators, or ``None`` when the
    #: system admits no finite scaled lattice
    scale: Optional[Tuple[int, ...]] = None
    #: why ``scale`` is ``None`` (empty otherwise)
    scale_reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.integral

    @property
    def max_scale(self) -> int:
        """The coarsest single denominator covering every variable (1 when
        no scaled lattice exists)."""
        if not self.scale:
            return 1
        return lcm(*self.scale)


class AffineUpdate:
    """An affine update function ``upd(v, r) = Q v + R r + e``.

    Stored as a mapping from each *updated* program variable to an affine
    :class:`LinExpr` over program and sampling variables; unmentioned
    variables keep their value (identity rows of ``Q``).
    """

    __slots__ = ("assignments",)

    def __init__(self, assignments: Mapping[str, LinExpr] = ()):  # type: ignore[assignment]
        items = dict(assignments) if isinstance(assignments, Mapping) else dict(assignments)
        self.assignments: Dict[str, LinExpr] = {
            name: LinExpr.coerce(expr) for name, expr in items.items()
        }

    @staticmethod
    def identity() -> "AffineUpdate":
        """The update that leaves every variable unchanged."""
        return AffineUpdate({})

    def expr_for(self, variable: str) -> LinExpr:
        """The post-expression of ``variable`` (its own value if unmentioned)."""
        return self.assignments.get(variable, LinExpr.variable(variable))

    def apply(
        self,
        valuation: Mapping[str, Fraction],
        samples: Mapping[str, Fraction] = (),
    ) -> Dict[str, Fraction]:
        """Exact simultaneous application (tuple-assignment semantics)."""
        env: Dict[str, Fraction] = dict(valuation)
        if samples:
            env.update(samples)
        return {
            name: self.expr_for(name).evaluate(env) for name in valuation
        }

    def apply_float(
        self,
        valuation: Mapping[str, float],
        samples: Mapping[str, float] = (),
    ) -> Dict[str, float]:
        """Float application (simulation hot path)."""
        env: Dict[str, float] = dict(valuation)
        if samples:
            env.update(samples)
        return {
            name: self.expr_for(name).evaluate_float(env) for name in valuation
        }

    def matrices(
        self, program_vars: Sequence[str], sampling_vars: Sequence[str]
    ) -> Tuple[List[List[Fraction]], List[List[Fraction]], List[Fraction]]:
        """``(Q, R, e)`` with row order = ``program_vars``."""
        q: List[List[Fraction]] = []
        r: List[List[Fraction]] = []
        e: List[Fraction] = []
        for v in program_vars:
            expr = self.expr_for(v)
            q.append([expr.coeff(u) for u in program_vars])
            r.append([expr.coeff(u) for u in sampling_vars])
            e.append(expr.const)
        return q, r, e

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineUpdate):
            return NotImplemented
        return self.assignments == other.assignments

    def __repr__(self) -> str:
        if not self.assignments:
            return "AffineUpdate(identity)"
        inner = ", ".join(f"{k} := {v}" for k, v in sorted(self.assignments.items()))
        return f"AffineUpdate({inner})"


@dataclass(frozen=True)
class Fork:
    """One probabilistic branch of a transition: ``(destination, p, update)``."""

    destination: str
    probability: Fraction
    update: AffineUpdate

    def __init__(self, destination: str, probability: Number, update: Optional[AffineUpdate] = None):
        object.__setattr__(self, "destination", destination)
        object.__setattr__(self, "probability", as_fraction(probability))
        object.__setattr__(self, "update", update if update is not None else AffineUpdate.identity())
        if not 0 < self.probability <= 1:
            raise ModelError(f"fork probability {self.probability} outside (0, 1]")


@dataclass(frozen=True)
class Transition:
    """A guarded probabilistic transition out of ``source``."""

    source: str
    guard: Polyhedron
    forks: Tuple[Fork, ...]
    name: str = ""

    def __init__(self, source: str, guard: Polyhedron, forks: Iterable[Fork], name: str = ""):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "forks", tuple(forks))
        object.__setattr__(self, "name", name or source)
        total = sum((f.probability for f in self.forks), Fraction(0))
        if total != 1:
            raise ModelError(
                f"transition {self.name!r}: fork probabilities sum to {total}, not 1"
            )


class PTS:
    """A probabilistic transition system (immutable after construction)."""

    def __init__(
        self,
        program_vars: Sequence[str],
        init_location: str,
        init_valuation: Mapping[str, Number],
        transitions: Iterable[Transition],
        distributions: Mapping[str, Distribution] = (),
        term_location: str = TERM,
        fail_location: str = FAIL,
        name: str = "pts",
    ):
        self.name = name
        self.program_vars: Tuple[str, ...] = tuple(program_vars)
        self.term_location = term_location
        self.fail_location = fail_location
        self.init_location = init_location
        missing_init = set(self.program_vars) - set(init_valuation)
        if missing_init:
            raise ModelError(f"initial valuation missing variables {sorted(missing_init)}")
        self.init_valuation: Dict[str, Fraction] = {
            v: as_fraction(init_valuation[v]) for v in self.program_vars
        }
        self.distributions: Dict[str, Distribution] = dict(distributions)
        self.transitions: Tuple[Transition, ...] = tuple(transitions)
        self._by_source: Dict[str, List[Transition]] = {}
        for t in self.transitions:
            self._by_source.setdefault(t.source, []).append(t)
        self.locations: Tuple[str, ...] = self._collect_locations()
        self._validate()
        #: (report, stamp ids, stamp refs) — see :meth:`integrality` for
        #: the immutability contract this cache leans on; dropped by
        #: ``__getstate__`` so copies recompute instead of false-alarming
        self._integrality: Optional[Tuple[IntegralityReport, Tuple, Tuple]] = None

    # -- construction-time validation -------------------------------------------
    def _collect_locations(self) -> Tuple[str, ...]:
        names = {self.init_location, self.term_location, self.fail_location}
        for t in self.transitions:
            names.add(t.source)
            for f in t.forks:
                names.add(f.destination)
        return tuple(sorted(names))

    def _validate(self) -> None:
        overlap = set(self.program_vars) & set(self.distributions)
        if overlap:
            raise ModelError(f"names used as both program and sampling variables: {sorted(overlap)}")
        if len(set(self.program_vars)) != len(self.program_vars):
            raise ModelError("duplicate program variables")
        if self.term_location == self.fail_location:
            raise ModelError("terminal and failure locations must differ")
        missing = set(self.program_vars) - set(self.init_valuation)
        if missing:
            raise ModelError(f"initial valuation missing variables {sorted(missing)}")
        allowed = set(self.program_vars) | set(self.distributions)
        for t in self.transitions:
            if t.source in (self.term_location, self.fail_location):
                raise ModelError(f"transition out of sink location {t.source!r}")
            bad_guard = set(v for i in t.guard.inequalities for v in i.variables()) - set(self.program_vars)
            if bad_guard:
                raise ModelError(
                    f"transition {t.name!r}: guard uses non-program variables {sorted(bad_guard)}"
                )
            for f in t.forks:
                for target, expr in f.update.assignments.items():
                    if target not in self.program_vars:
                        raise ModelError(
                            f"transition {t.name!r}: update assigns unknown variable {target!r}"
                        )
                    bad = set(expr.variables()) - allowed
                    if bad:
                        raise ModelError(
                            f"transition {t.name!r}: update for {target!r} uses "
                            f"undeclared variables {sorted(bad)}"
                        )

    # -- queries ---------------------------------------------------------------------
    @property
    def sampling_vars(self) -> Tuple[str, ...]:
        return tuple(sorted(self.distributions))

    @property
    def interior_locations(self) -> Tuple[str, ...]:
        """All locations except the two sinks."""
        return tuple(
            l for l in self.locations if l not in (self.term_location, self.fail_location)
        )

    def transitions_from(self, location: str) -> List[Transition]:
        return list(self._by_source.get(location, []))

    def enabled_transition(
        self, location: str, valuation: Mapping[str, float], tol: float = 1e-9
    ) -> Optional[Transition]:
        """The first transition whose guard holds at ``valuation``.

        Well-formed PTSs have mutually exclusive guards up to measure-zero
        boundary overlap (see the compiler's complement convention), so "the
        first match" is canonical.
        """
        for t in self._by_source.get(location, []):
            if t.guard.contains_float(valuation, tol):
                return t
        return None

    def is_sink(self, location: str) -> bool:
        return location in (self.term_location, self.fail_location)

    def _structure_stamp(self) -> Tuple[Tuple, Tuple]:
        """Cheap fingerprint of everything :meth:`integrality` reads.

        Returns ``(ids, refs)``: ``ids`` is an identity sweep over the
        transitions tuple, every guard inequality's expression, every
        update assignment binding and every distribution binding, plus
        the initial valuation *by value* — linear in the system size, no
        arithmetic — enough to catch any shallow mutation: rebinding
        ``transitions``, editing a guard's inequality list, swapping an
        update expression, replacing a distribution, changing an initial
        value.  ``refs`` holds the swept objects themselves; the cache
        keeps them alive so a swapped-in replacement can never reuse a
        stamped ``id`` (only ``ids`` is ever compared).  The one mutation
        class this cannot see is *inside* a :class:`LinExpr`, and that is
        excluded by the class's own immutability/interning contract.
        """
        guard_exprs = tuple(
            ineq.expr for t in self.transitions for ineq in t.guard.inequalities
        )
        update_bindings = tuple(
            (name, expr)
            for t in self.transitions
            for f in t.forks
            for name, expr in f.update.assignments.items()
        )
        dist_bindings = tuple(self.distributions.items())
        ids = (
            id(self.transitions),
            tuple(id(e) for e in guard_exprs),
            tuple((name, id(e)) for name, e in update_bindings),
            tuple((r, id(d)) for r, d in dist_bindings),
            tuple(self.init_valuation.items()),
            self.init_location,
        )
        refs = (self.transitions, guard_exprs, update_bindings, dist_bindings)
        return ids, refs

    def __getstate__(self):
        """Drop the integrality cache when pickling (and hence deepcopying):
        its stamp pins *object identities* of this instance, which a copy
        does not share — the copy recomputes the report lazily instead of
        tripping the mutation guard."""
        state = self.__dict__.copy()
        state["_integrality"] = None
        return state

    def integrality(self) -> IntegralityReport:
        """The lattice-admission report of this PTS (cached).

        The report is the admission check of the lattice exploration fast
        path: ``scale`` is the fixed-point lattice it explores (all ones
        when ``integral``, which also selects the wider per-variable
        limits), and a ``scale`` of ``None`` pins exploration to the
        exact Fraction representation.  Magnitude
        limits (values that would overflow ``int64``) are a property of a
        *run*, not of the system, so they are checked by the explorer
        itself, not here.

        **Immutability contract**: PTS instances are immutable after
        construction (class docstring), so the report is computed once and
        cached on the instance with *no invalidation*.  Anything that
        mutates ``transitions``/``distributions``/``init_valuation`` in
        place would silently serve a stale admission report to the
        explorer — so every cache hit re-checks a cheap structural stamp
        and raises :class:`~repro.errors.ModelError` on mismatch instead.
        """
        if self._integrality is not None:
            report, ids, _refs = self._integrality
            if ids != self._structure_stamp()[0]:
                raise ModelError(
                    f"PTS {self.name!r} was mutated after its integrality "
                    "report was cached; PTS instances are immutable after "
                    "construction — build a new PTS instead"
                )
            return report
        report = self._analyze_integrality()
        ids, refs = self._structure_stamp()
        self._integrality = (report, ids, refs)
        return report

    def _analyze_integrality(self) -> IntegralityReport:
        def fractional(value: Fraction) -> bool:
            return value.denominator != 1

        def non_integral(reason: str) -> IntegralityReport:
            scale, scale_reason = self._analyze_scale()
            return IntegralityReport(False, reason, scale, scale_reason)

        for v, value in self.init_valuation.items():
            if fractional(value):
                return non_integral(f"init {v} = {value} is not integral")
        for r, dist in self.distributions.items():
            atoms = dist.atoms()
            if atoms is None:
                return non_integral(f"sampling variable {r!r} is continuous")
            for _, value in atoms:
                if fractional(value):
                    return non_integral(f"atom {value} of {r!r} is not integral")
        for t in self.transitions:
            for ineq in t.guard.inequalities:
                expr = ineq.expr
                if fractional(expr.const) or any(
                    fractional(c) for _, c in expr.iter_coeffs()
                ):
                    return non_integral(
                        f"guard of {t.name!r} has non-integral coefficients"
                    )
            for f in t.forks:
                for target, expr in f.update.assignments.items():
                    if fractional(expr.const) or any(
                        fractional(c) for _, c in expr.iter_coeffs()
                    ):
                        return non_integral(
                            f"update of {target!r} in {t.name!r} is not integral"
                        )
        return IntegralityReport(True, scale=(1,) * len(self.program_vars))

    def _analyze_scale(self) -> Tuple[Optional[Tuple[int, ...]], str]:
        """Per-variable denominator LCMs of the scaled (fixed-point) lattice.

        Base pass: ``s_v`` collects the denominator LCM of every quantity
        that directly lands in ``v`` — its initial value and the constants
        of updates assigning it (with sampling draws folded in atom by
        atom).  Propagation passes then enforce the update-coupling
        divisibility: ``v := ... + a * u + ...`` maps the ``1/s_u``
        lattice of ``u`` into ``v``, so ``s_v * a / s_u`` must be an
        integer.  Guards never refine the lattice — neither constants nor
        coefficients change a reachable value, and an inequality can
        always be cleared by a positive per-row multiplier, which the
        explorer picks — and fork probabilities never enter a state.
        Returns ``(None, reason)`` when sampling is continuous, a
        denominator exceeds ``10**6`` (contractive coefficients like
        ``x := x/2`` refine the lattice without bound and blow through the
        cap within a few passes), or propagation fails to stabilize within
        the pass budget.
        """
        scale: Dict[str, int] = {v: 1 for v in self.program_vars}

        for r, dist in self.distributions.items():
            if dist.atoms() is None:
                return None, f"sampling variable {r!r} is continuous"

        for v, value in self.init_valuation.items():
            scale[v] = lcm(scale[v], value.denominator)
        for t in self.transitions:
            for f in t.forks:
                for target, expr in f.update.assignments.items():
                    d = expr.const.denominator
                    for name, coeff in expr.iter_coeffs():
                        dist = self.distributions.get(name)
                        if dist is not None:
                            for _, atom in dist.atoms():
                                d = lcm(d, (coeff * atom).denominator)
                    scale[target] = lcm(scale[target], d)

        for _ in range(_SCALE_PASSES):
            worst = max(scale.values())
            if worst > _SCALE_LIMIT:
                witness = max(scale, key=scale.get)  # type: ignore[arg-type]
                return None, (
                    f"denominator LCM of {witness!r} exceeds the "
                    f"{_SCALE_LIMIT} fixed-point cap"
                )
            changed = False
            for t in self.transitions:
                for f in t.forks:
                    for target, expr in f.update.assignments.items():
                        for name, coeff in expr.iter_coeffs():
                            if name in self.distributions:
                                continue
                            # s_target * coeff / s_name must be integral
                            p, q = coeff.numerator, coeff.denominator
                            need = q * scale[name]
                            need //= gcd(abs(p), need)
                            merged = lcm(scale[target], need)
                            if merged != scale[target]:
                                scale[target] = merged
                                changed = True
            if not changed:
                return tuple(scale[v] for v in self.program_vars), ""
        return None, (
            f"per-variable denominators did not stabilize within "
            f"{_SCALE_PASSES} propagation passes"
        )

    def max_fork_count(self) -> int:
        return max((len(t.forks) for t in self.transitions), default=0)

    def pretty(self) -> str:
        """A readable multi-line rendering of the whole system."""
        lines = [f"PTS {self.name!r}"]
        lines.append(f"  program vars : {', '.join(self.program_vars)}")
        if self.distributions:
            lines.append("  sampling vars:")
            for r, d in sorted(self.distributions.items()):
                lines.append(f"    {r} ~ {d!r}")
        init = ", ".join(f"{v}={self.init_valuation[v]}" for v in self.program_vars)
        lines.append(f"  init         : {self.init_location} [{init}]")
        lines.append(f"  sinks        : term={self.term_location} fail={self.fail_location}")
        for t in self.transitions:
            guard = " and ".join(str(i) for i in t.guard.inequalities) or "true"
            lines.append(f"  {t.source}: when {guard}")
            for f in t.forks:
                lines.append(f"    -> {f.destination} w.p. {f.probability} {f.update!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PTS({self.name!r}, |V|={len(self.program_vars)}, "
            f"|L|={len(self.locations)}, |T|={len(self.transitions)})"
        )
