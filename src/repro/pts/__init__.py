"""Probabilistic transition systems: model, distributions, simulation.

This is the modelling layer of the stack (see ``docs/ARCHITECTURE.md``):
it owns the paper's semantic object — the :class:`PTS` with its guarded
probabilistic transitions and affine updates — plus the fluent
:class:`PTSBuilder` DSL, the sampling :class:`Distribution` hierarchy, a
Monte-Carlo :func:`simulate` loop and structural validation.

Layer contract: ``pts`` depends only on the exact-arithmetic substrate
(``repro.polyhedra``, ``repro.utils``) and knows nothing about surface
syntax (``repro.lang`` compiles *into* this layer) or about the synthesis
algorithms above it.  A :class:`PTS` is immutable after construction;
derived metadata such as :meth:`PTS.integrality` (the lattice-admission
report — integer-lattice classification plus per-variable fixed-point
denominators — consumed by the fixpoint engine's lattice exploration
fast path) is cached on the instance, with a cheap
structural stamp re-checked on every hit so rebinding or shallow in-place
mutation cannot serve a stale report (deep mutation inside a
:class:`~repro.polyhedra.linexpr.LinExpr` is excluded by that class's own
immutability contract).
"""

from repro.pts.model import (
    TERM,
    FAIL,
    AffineUpdate,
    Fork,
    IntegralityReport,
    Transition,
    PTS,
)
from repro.pts.distributions import (
    Distribution,
    PointMass,
    DiscreteDistribution,
    UniformDistribution,
    NormalDistribution,
    bernoulli,
)
from repro.pts.builder import PTSBuilder
from repro.pts.simulator import (
    SimulationResult,
    simulate,
    simulate_violation_probability,
)
from repro.pts.validate import (
    ValidationReport,
    check_exclusivity,
    check_completeness,
    validate_pts,
)

__all__ = [
    "TERM",
    "FAIL",
    "AffineUpdate",
    "Fork",
    "Transition",
    "PTS",
    "IntegralityReport",
    "Distribution",
    "PointMass",
    "DiscreteDistribution",
    "UniformDistribution",
    "NormalDistribution",
    "bernoulli",
    "PTSBuilder",
    "SimulationResult",
    "simulate",
    "simulate_violation_probability",
    "ValidationReport",
    "check_exclusivity",
    "check_completeness",
    "validate_pts",
]
