"""Solve-then-certify for the value-iteration bracket passes.

The fixpoint engine (:mod:`repro.core.fixpoint`) computes a rigorous
bracket ``lower <= vpf <= upper`` by monotone Jacobi sweeps of the affine
transformer ``T(x) = A x + b`` over a CSR matrix — increasing from the
lattice bottom (``lfp``), decreasing from the top (``gfp``).  Slow-mixing
chains need tens of thousands of sweeps to pass a 1e-12 tolerance.

This module removes that cost without weakening the bracket, following
the translation-validation posture of the exploration engines: *don't
trust the fast path — check its answer*.  The **oracle**, a sparse direct
solve of ``(I - A) x = b``, produces a candidate ``x*`` that nothing
downstream trusts; a constant number of monotone **certification sweeps**
then decides whether the candidate may be adopted:

* **Upper side (unconditional).**  ``A >= 0`` makes ``T`` monotone, so by
  Knaster–Tarski any pre-fixpoint — ``T(u) <= u`` componentwise — satisfies
  ``u >= lfp(T)``.  With the upper pass's offset ``b_upper`` (which folds
  in the truncation pessimization), ``lfp(A, b_upper)`` already dominates
  the true violation probability, hence any verified pre-fixpoint is a
  sound upper output.  Verification is one sweep.

* **Lower side (needs a contraction witness).**  A post-fixpoint
  ``T(l) >= l`` only bounds ``l <= gfp`` in general; to conclude
  ``l <= lfp`` the fixed point must be unique, i.e. ``rho(A) < 1``.  That
  is certified by a **witness vector** ``w`` with ``w - A w >= 1/2``
  componentwise, ``w`` finite: then the weighted operator norm satisfies
  ``||A||_w <= max_i (w_i - 1/2) / w_i < 1``, so ``I - A`` is invertible
  with ``(I - A)^{-1} = sum A^k >= 0``, and ``T(l) >= l`` gives
  ``lfp - l = (I - A)^{-1} (T(l) - l) >= 0``.  The natural witness is the
  expected-visits vector solving ``(I - A) w = 1`` (exact residual ``1``,
  so the ``1/2`` margin tolerates enormous oracle error); the oracle
  simply carries ``ones`` as a third right-hand-side column, and the
  witness check is one more sweep.

Candidates are *nudged along the witness before verification*: since
``(I - A) w = 1`` (up to oracle error), shifting a candidate by
``eps * w`` converts its residual into uniform margin —
``T(x +- eps*w) - (x +- eps*w) = residual -+ eps * (w - A w)`` — where a
*constant* shift would be annihilated on interior rows whose transition
mass sums to exactly 1.  A short ladder of residual-scaled ``eps`` values
is tried (each trial is one two-column sweep) until the componentwise
check passes or the ladder is exhausted; the verified trial is then maxed
(lower) / minned (upper) with the current — always valid — iterate, which
can only tighten and stays sound because both operands bound the fixed
point from the same side.  A candidate that never verifies — wrong,
non-bracketing, NaN/inf — is simply discarded and the engine falls back
to sweeping from its current (unchanged, still valid) iterate, so a
broken oracle can cost time but never soundness.

All checks run in IEEE double arithmetic, the same rigor standard as the
sweeps themselves (the slack ladder keeps candidates strictly inside the
verified region, so a one-ulp matvec error cannot flip a decision that
had any margin).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "SOLVERS",
    "SLACK_CAP",
    "SLACK_MULTIPLES",
    "OracleFailure",
    "run_oracle",
    "nudge_direction",
    "contraction_witness_ok",
    "certify_bracket",
]

#: accepted values of the ``solver`` parameter of ``value_iteration``:
#: ``"auto"`` (sweep warmup, then the certified direct solve) or
#: ``"sweep"`` (monotone sweeping only)
SOLVERS = ("auto", "sweep")

#: plain sweeps run before ``solver="auto"`` engages the oracle: fast-mixing
#: systems converge inside the warmup and never pay oracle setup, keeping
#: their results bit-identical to ``solver="sweep"``
WARMUP_SWEEPS = 32

#: witness-direction nudge ladder: multiples of the oracle residual tried
#: (in order) as the ``eps`` of the ``eps * w`` outward shift; the final
#: rung is additionally floored so the worst-case bracket inflation
#: ``eps * max(w)`` reaches ``SLACK_CAP`` before giving up
SLACK_MULTIPLES = (2.0, 16.0, 256.0)

#: absolute bracket-inflation budget of the last ladder rung, recorded in
#: run certificates; also the outward-escape tolerance the certificate
#: gate and the fuzz farm hold ``solver="auto"`` to against pure sweeps
SLACK_CAP = 1e-9

#: required componentwise margin of ``w - A w`` for the contraction
#: witness; the exact residual of the expected-visits vector is 1, so a
#: candidate ``w`` may be off by half its magnitude and still certify
WITNESS_MARGIN = 0.5


class OracleFailure(Exception):
    """The oracle could not produce a candidate (singular system, memory).
    Callers fall back to monotone sweeping."""


# ---------------------------------------------------------------------------
# oracle: candidate producer (untrusted; certification follows)
# ---------------------------------------------------------------------------


def run_oracle(matrix, rhs: np.ndarray, n: int) -> np.ndarray:
    """Produce an (untrusted) candidate solution of ``(I - A) x = rhs``
    for every right-hand-side column by a sparse direct solve: SuperLU
    with the NATURAL column ordering — the BFS state order makes
    ``I - A`` nearly lower triangular, so natural-order LU fill stays
    around 2x the matrix nnz where COLAMD pays 8x.  Raises
    :class:`OracleFailure` when no candidate can be produced at all."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    try:
        lu = splu((identity(n, format="csr") - matrix).tocsc(), permc_spec="NATURAL")
        return lu.solve(rhs)
    except (RuntimeError, MemoryError, ValueError) as exc:
        raise OracleFailure(f"direct solve failed: {exc}") from None


# ---------------------------------------------------------------------------
# certification: the only trusted code path
# ---------------------------------------------------------------------------


def nudge_direction(witness: np.ndarray) -> np.ndarray:
    """The direction candidates are nudged along: the candidate witness
    when it is finite and positive, else the all-ones vector."""
    if np.isfinite(witness).all() and bool((witness > 0.0).all()):
        return witness
    return np.ones(len(witness))


def contraction_witness_ok(matrix, w: np.ndarray) -> bool:
    """True when ``w`` certifies ``rho(A) < 1`` (one sweep): ``w`` finite
    and ``w - A w >= 1/2`` componentwise — see the module docstring for
    the weighted-norm argument.  Implies ``w >= 1/2 > 0`` because
    ``A w`` cannot be negative once the margin check passes."""
    if not np.isfinite(w).all():
        return False
    return bool(((w - matrix @ w) >= WITNESS_MARGIN).all())


def certify_bracket(
    matrix,
    b: np.ndarray,
    x: np.ndarray,
    candidate: np.ndarray,
    witness: np.ndarray,
    residual: float,
    allow_lower: bool,
) -> Tuple[np.ndarray, bool, bool, int]:
    """Verify the oracle candidate and fold what certifies into the bracket.

    ``b`` and ``x`` are the two-column (lower-pass, upper-pass) offsets
    and the current — always valid — iterate; ``witness`` the candidate
    expected-visits vector (the nudge direction), ``residual`` the
    candidate's sup-norm fixed-point residual (the nudge scale).  Returns
    ``(x', lower_adopted, upper_adopted, sweeps_used)``; a column whose
    trials never verify keeps its current values, so a rejected candidate
    leaves the bracket unchanged.

    The lower column is only eligible with ``allow_lower`` (the
    contraction witness — without ``rho(A) < 1`` a post-fixpoint only
    bounds the *greatest* fixed point); the upper column's pre-fixpoint
    check is unconditionally sound.  Adoption takes ``max`` (lower) /
    ``min`` (upper) with the current iterate: both operands bound the
    fixed point from the same side, so the combination does too, and the
    bracket can only tighten.
    """
    x = x.copy()
    ok_lower = False
    ok_upper = False
    sweeps = 0
    finite_lower = bool(np.isfinite(candidate[:, 0]).all())
    finite_upper = bool(np.isfinite(candidate[:, 1]).all())
    want_lower = allow_lower and finite_lower
    want_upper = finite_upper
    if not (want_lower or want_upper):
        return x, ok_lower, ok_upper, sweeps
    nudge = nudge_direction(witness)
    w_max = float(nudge.max(initial=1.0))
    base = max(residual, 2.0**-52)
    ladder = [m * base for m in SLACK_MULTIPLES]
    ladder[-1] = max(ladder[-1], SLACK_CAP / w_max)
    # strict-improvement floor/ceiling: sweep iterates can overshoot the
    # [0, 1] lattice by an ulp (the matvec rounds), and a
    # garbage trial clipped to the lattice top would read as "improving"
    # on a 1 + ulp iterate — measure improvement against the clamped
    # iterate so vacuous all-zeros/all-ones trials are always rejections
    lower_floor = np.maximum(x[:, 0], 0.0)
    upper_ceil = np.minimum(x[:, 1], 1.0)
    for eps in ladder:
        trial = x.copy()
        if want_lower and not ok_lower:
            trial[:, 0] = np.clip(candidate[:, 0] - eps * nudge, 0.0, 1.0)
        if want_upper and not ok_upper:
            trial[:, 1] = np.clip(candidate[:, 1] + eps * nudge, 0.0, 1.0)
        swept = matrix @ trial + b
        sweeps += 1
        if (
            want_lower
            and not ok_lower
            and bool((swept[:, 0] >= trial[:, 0]).all())
            and bool((trial[:, 0] > lower_floor).any())
        ):
            # verified post-fixpoint + witness: trial <= lfp.  Adoption
            # additionally requires strict improvement somewhere — a
            # garbage candidate whose nudge clipped it to the lattice
            # bottom verifies vacuously but must read as a rejection
            x[:, 0] = np.maximum(x[:, 0], trial[:, 0])
            ok_lower = True
        if (
            want_upper
            and not ok_upper
            and bool((swept[:, 1] <= trial[:, 1]).all())
            and bool((trial[:, 1] < upper_ceil).any())
        ):
            # verified pre-fixpoint: trial >= lfp = vpf
            x[:, 1] = np.minimum(x[:, 1], trial[:, 1])
            ok_upper = True
        if ok_lower == want_lower and ok_upper == want_upper:
            break
    return x, ok_lower, ok_upper, sweeps
