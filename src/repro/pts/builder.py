"""Fluent programmatic construction of PTSs.

The language compiler produces PTSs through this builder; library users can
also use it directly when they prefer code over surface syntax (all paper
benchmarks in :mod:`repro.programs` are written against the builder API).

Example — the tortoise-hare race of Figure 1::

    from repro.pts import PTSBuilder
    from repro.polyhedra import var

    b = PTSBuilder(["x", "y"], init={"x": 40, "y": 0}, name="race")
    loop = [b.le(var("x"), 99), b.le(var("y"), 99)]
    b.transition(
        "head",
        guard=loop,
        forks=[
            ("head", "1/2", {"x": var("x") + 1, "y": var("y") + 2}),
            ("head", "1/2", {"x": var("x") + 1}),
        ],
    )
    b.transition("head", guard=[b.ge(var("x"), 100)], forks=[("__term__", 1, {})])
    b.transition(
        "head",
        guard=[b.le(var("x"), 99), b.ge(var("y"), 100)],
        forks=[("__fail__", 1, {})],
    )
    pts = b.build(init_location="head")

Integer-lattice note: keep initial values, guard/update coefficients and
discrete-distribution atoms integral (ints, or Fractions with denominator
1) when the model allows it — the built PTS then classifies as
integer-lattice (:meth:`repro.pts.PTS.integrality`) and ground-truth
value iteration explores it on the lattice frontier fast path, several
times faster than the exact Fraction interning BFS.  Fork *probabilities*
may be arbitrary rationals; they never enter a state vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import ModelError
from repro.polyhedra.constraints import AffineIneq, Polyhedron
from repro.polyhedra.linexpr import LinExpr
from repro.pts.distributions import Distribution
from repro.pts.model import FAIL, TERM, AffineUpdate, Fork, PTS, Transition
from repro.utils.numbers import Number

__all__ = ["PTSBuilder"]

ForkSpec = Tuple[str, Number, Mapping[str, Union[LinExpr, Number]]]


class PTSBuilder:
    """Accumulates transitions and builds an immutable :class:`PTS`."""

    def __init__(
        self,
        program_vars: Sequence[str],
        init: Mapping[str, Number],
        name: str = "pts",
    ):
        self.name = name
        self.program_vars = tuple(program_vars)
        self.init = dict(init)
        self._distributions: Dict[str, Distribution] = {}
        self._transitions: List[Transition] = []
        self.term_location = TERM
        self.fail_location = FAIL

    # -- constraint helpers ------------------------------------------------------
    @staticmethod
    def le(lhs, rhs) -> AffineIneq:
        """Guard atom ``lhs <= rhs``."""
        return AffineIneq.le(lhs, rhs)

    @staticmethod
    def ge(lhs, rhs) -> AffineIneq:
        """Guard atom ``lhs >= rhs``."""
        return AffineIneq.ge(lhs, rhs)

    @staticmethod
    def eq(lhs, rhs) -> Tuple[AffineIneq, AffineIneq]:
        """Guard atoms encoding ``lhs == rhs`` (expand with ``*``)."""
        return AffineIneq.eq_pair(lhs, rhs)

    # -- declarations --------------------------------------------------------------
    def sampling(self, name: str, distribution: Distribution) -> LinExpr:
        """Declare a sampling variable; returns it as an expression."""
        if name in self.program_vars:
            raise ModelError(f"{name!r} is already a program variable")
        self._distributions[name] = distribution
        return LinExpr.variable(name)

    def guard(self, atoms: Iterable[Union[AffineIneq, Tuple[AffineIneq, ...]]]) -> Polyhedron:
        """Build a guard polyhedron over the program variables."""
        flat: List[AffineIneq] = []
        for atom in atoms:
            if isinstance(atom, AffineIneq):
                flat.append(atom)
            else:
                flat.extend(atom)
        return Polyhedron(self.program_vars, flat)

    def transition(
        self,
        source: str,
        guard: Union[Polyhedron, Iterable[AffineIneq]],
        forks: Sequence[ForkSpec],
        name: str = "",
    ) -> "PTSBuilder":
        """Add a transition; ``forks`` are ``(dest, prob, {var: expr})``."""
        if not isinstance(guard, Polyhedron):
            guard = self.guard(guard)
        else:
            guard = guard.with_variables(self.program_vars)
        built = [
            Fork(dest, prob, AffineUpdate(update)) for dest, prob, update in forks
        ]
        self._transitions.append(Transition(source, guard, built, name=name))
        return self

    def goto(
        self,
        source: str,
        destination: str,
        guard: Union[Polyhedron, Iterable[AffineIneq]] = (),
        update: Mapping[str, Union[LinExpr, Number]] = (),
        name: str = "",
    ) -> "PTSBuilder":
        """Deterministic transition (single fork with probability 1)."""
        return self.transition(
            source, guard, [(destination, Fraction(1), dict(update))], name=name
        )

    # -- building ----------------------------------------------------------------------
    def build(self, init_location: str) -> PTS:
        """Produce the immutable PTS."""
        return PTS(
            program_vars=self.program_vars,
            init_location=init_location,
            init_valuation=self.init,
            transitions=self._transitions,
            distributions=self._distributions,
            term_location=self.term_location,
            fail_location=self.fail_location,
            name=self.name,
        )
