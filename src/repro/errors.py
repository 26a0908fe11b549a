"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class.  Each subclass corresponds to one failure domain
(modeling, solving, synthesis, verification).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """A PTS, program, or invariant is malformed or violates an assumption."""


class ParseError(ReproError):
    """The probabilistic-program source text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CompileError(ReproError):
    """The AST could not be compiled to a PTS."""


class NotAffineError(ModelError):
    """An expression/guard/update is not affine but an algorithm requires it."""


class UnboundedSupportError(ModelError):
    """A distribution has unbounded support where bounded support is required
    (e.g. RepRSM condition (C4) needs bounded differences)."""


class SolverError(ReproError):
    """An LP/convex solve failed unexpectedly."""


class InfeasibleError(SolverError):
    """The constraint system admits no solution (synthesis returned 'no')."""


class SynthesisError(ReproError):
    """A synthesis algorithm could not produce a certificate."""


class VerificationError(ReproError):
    """A synthesized certificate failed independent re-verification."""


class EngineError(ReproError):
    """The analysis engine was given an invalid task graph (unknown
    algorithm, duplicate task ids, dependency cycle, missing dependency)."""


class TaskError(EngineError):
    """A task could not be executed for infrastructure reasons — a worker
    process died mid-task, or an injected transient fault fired.  Distinct
    from a synthesis failure, which is recorded as a ``status="error"``
    result.  Infrastructure failures are retryable (see
    :class:`~repro.engine.engine.RetryPolicy`); synthesis failures are
    deterministic and fail fast."""


class TaskTimeoutError(TaskError):
    """A task exceeded its wall-clock deadline (``AnalysisTask.timeout`` or
    the engine default).  Classified as infrastructure — a deadline says
    nothing about whether the computation would eventually have produced a
    certificate — so it is retryable like a dead worker."""
