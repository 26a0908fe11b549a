"""Soundness tests of the solve-then-certify oracle layer.

The direct-solve oracle (:mod:`repro.core.solvers`) is an *untrusted*
candidate producer; the only trusted code is the monotone certification
sweep that decides adoption.  These tests attack that boundary directly:

* wrong, non-bracketing and NaN/inf candidates must be rejected and leave
  the bracket exactly where the sweeps put it (fallback is bitwise
  equivalent to ``solver="sweep"``),
* the contraction witness must gate the lower side (a post-fixpoint
  without ``rho(A) < 1`` proves nothing about ``lfp``),
* the adopted bracket on the Table 1 workload shapes must overlap the
  pure-sweep bracket and never escape it outward beyond the
  certification slack budget.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.lang import compile_source
from repro.core import solvers
from repro.core.fixpoint import build_sparse_model, iterate_model, value_iteration
from repro.core.solvers import (
    SLACK_CAP,
    OracleFailure,
    certify_bracket,
    contraction_witness_ok,
    run_oracle,
)

from test_fixpoint_equivalence import PROGRAMS

#: slow-mixing fair walk (interior 1..119): the regime the oracles target —
#: thousands of sweeps under solver="sweep", one certified solve otherwise
SLOW_GAMBLER = """
x := 30
while x >= 1 and x <= 119:
    switch:
        prob(0.5): x := x + 1
        prob(0.5): x := x - 1
assert x <= 0
"""



def _three_state_chain():
    """``x -> x+1`` w.p. 1/2, absorbed left into fail, right into success:
    a 3-interior-state fair walk with known exact fixpoint."""
    dense = np.array(
        [
            [0.0, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.0],
        ]
    )
    b = np.column_stack([np.array([0.5, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])])
    # exact lfp of both columns: ruin probabilities (3/4, 1/2, 1/4)
    exact = np.linalg.solve(np.eye(3) - dense, b[:, 0])
    witness = np.linalg.solve(np.eye(3) - dense, np.ones(3))
    return csr_matrix(dense), b, exact, witness


class TestCertifyBracket:
    def setup_method(self):
        self.matrix, self.b, self.exact, self.witness = _three_state_chain()
        # a mid-iteration valid bracket: lower below lfp, upper above
        self.x = np.column_stack([self.exact - 0.2, self.exact + 0.2]).clip(0, 1)

    def _certify(self, candidate, residual=1e-15, allow_lower=True, witness=None):
        return certify_bracket(
            self.matrix,
            self.b,
            self.x,
            candidate,
            self.witness if witness is None else witness,
            residual,
            allow_lower,
        )

    def test_exact_candidate_adopted_both_sides(self):
        candidate = np.column_stack([self.exact, self.exact])
        x, ok_lower, ok_upper, sweeps = self._certify(candidate)
        assert ok_lower and ok_upper
        assert sweeps >= 1
        # adopted bracket is tight around the exact fixpoint and ordered
        assert (np.abs(x - self.exact[:, None]) < 1e-6).all()
        assert (x[:, 0] <= x[:, 1]).all()
        # and sound: lower never above lfp, upper never below
        assert (x[:, 0] <= self.exact + 1e-15).all()
        assert (x[:, 1] >= self.exact - 1e-15).all()

    def test_wrong_candidate_rejected_bracket_unchanged(self):
        # claims a lower bound *above* the fixpoint: every slack rung must
        # fail the post-fixpoint check and the bracket must not move
        candidate = np.column_stack([self.exact + 0.1, self.exact - 0.1])
        x, ok_lower, ok_upper, _ = self._certify(candidate, residual=0.1)
        assert not ok_lower and not ok_upper
        assert (x == self.x).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_candidate_rejected(self, bad):
        candidate = np.column_stack([self.exact, self.exact])
        candidate[1, 0] = bad
        candidate[1, 1] = bad
        x, ok_lower, ok_upper, _ = self._certify(candidate)
        assert not ok_lower and not ok_upper
        assert (x == self.x).all()

    def test_lower_side_gated_by_witness_flag(self):
        candidate = np.column_stack([self.exact, self.exact])
        x, ok_lower, ok_upper, _ = self._certify(candidate, allow_lower=False)
        assert not ok_lower and ok_upper
        # the lower column stayed exactly where the sweeps left it
        assert (x[:, 0] == self.x[:, 0]).all()

    def test_nonfinite_witness_falls_back_to_unit_nudge(self):
        candidate = np.column_stack([self.exact, self.exact])
        bad_witness = np.array([1.0, np.inf, 1.0])
        x, ok_lower, ok_upper, _ = self._certify(candidate, witness=bad_witness)
        # certification still works (ones-direction nudge), it is just
        # allowed to be less tight
        assert ok_upper
        assert (x[:, 1] >= self.exact - 1e-15).all()

    def test_vacuous_clipped_candidate_reads_as_rejection(self):
        # a garbage candidate far outside [0, 1] clips to the lattice
        # bottom/top, which verify trivially — adoption must require
        # strict improvement and therefore refuse it
        candidate = np.column_stack([self.exact - 50.0, self.exact + 50.0])
        x, ok_lower, ok_upper, _ = self._certify(candidate, residual=50.0)
        assert not ok_lower and not ok_upper
        assert (x == self.x).all()


class TestContractionWitness:
    def test_expected_visits_vector_certifies(self):
        matrix, _, _, witness = _three_state_chain()
        assert contraction_witness_ok(matrix, witness)

    def test_badly_wrong_but_margined_witness_still_certifies(self):
        # the exact residual is 1, the required margin 1/2: a witness off
        # by a third of its magnitude keeps certifying (by design)
        matrix, _, _, witness = _three_state_chain()
        assert contraction_witness_ok(matrix, witness * (2.0 / 3.0) + 0.2)

    def test_nonfinite_or_marginless_witness_rejected(self):
        matrix, _, _, witness = _three_state_chain()
        assert not contraction_witness_ok(matrix, np.array([1.0, np.nan, 1.0]))
        assert not contraction_witness_ok(matrix, np.zeros(3))
        # stochastic row-sum-1 matrix: no finite witness exists at all
        stochastic = csr_matrix(np.full((3, 3), 1.0 / 3.0))
        assert not contraction_witness_ok(stochastic, witness)


class TestOracles:
    def test_direct_solves_to_machine_precision(self):
        matrix, b, exact, _ = _three_state_chain()
        out = run_oracle(matrix, b, 3)
        assert np.abs(out[:, 0] - exact).max() < 1e-12

    def test_singular_system_raises_oracle_failure(self):
        # row sums exactly 1 make I - A singular: the oracle must fail
        # loudly (and the engine fall back), never return garbage silently
        stochastic = csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(OracleFailure):
            run_oracle(stochastic, np.zeros((2, 2)), 2)


class TestEngineFallback:
    """A broken oracle can cost time but never soundness: the engine's
    fallback result must be *bitwise* the pure-sweep result."""

    def _model(self):
        pts = compile_source(SLOW_GAMBLER, name="slow-gambler").pts
        return build_sparse_model(pts, max_states=20_000)

    def test_rejected_candidates_fall_back_bitwise(self, monkeypatch):
        model = self._model()
        ref = iterate_model(model, solver="sweep")

        def hostile_oracle(matrix, rhs, n):
            # wrong by a mile on every column, and claims nothing
            return np.full_like(rhs, 0.123)

        monkeypatch.setattr(solvers, "run_oracle", hostile_oracle)
        fast = iterate_model(model, solver="auto")
        assert fast.solver == "sweep"  # nothing adopted
        assert not fast.certified
        assert fast.lower == ref.lower
        assert fast.upper == ref.upper
        assert fast.iterations == ref.iterations

    def test_oracle_failure_falls_back_bitwise(self, monkeypatch):
        model = self._model()
        ref = iterate_model(model, solver="sweep")

        def failing_oracle(matrix, rhs, n):
            raise OracleFailure("injected")

        monkeypatch.setattr(solvers, "run_oracle", failing_oracle)
        fast = iterate_model(model, solver="auto")
        assert fast.solver == "sweep"
        assert not fast.certified
        assert fast.lower == ref.lower
        assert fast.upper == ref.upper
        assert fast.iterations == ref.iterations

    def test_nan_candidates_fall_back_bitwise(self, monkeypatch):
        model = self._model()
        ref = iterate_model(model, solver="sweep")
        monkeypatch.setattr(
            solvers,
            "run_oracle",
            lambda matrix, rhs, n: np.full_like(rhs, np.nan),
        )
        fast = iterate_model(model, solver="auto")
        assert fast.solver == "sweep"
        assert fast.lower == ref.lower
        assert fast.upper == ref.upper


class TestOracleAgreement:
    """Adopted brackets vs pure sweeps on the Table 1 workload shapes."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_oracle_brackets_never_escape_the_sweep_bracket(self, name):
        pts = compile_source(PROGRAMS[name], name=name).pts
        model = build_sparse_model(pts, max_states=50_000)
        ref = iterate_model(model, solver="sweep")
        fast = iterate_model(model, solver="auto")
        assert fast.lower <= fast.upper + 1e-12
        # tighter-or-equal up to the slack budget, never outward
        assert fast.lower >= ref.lower - SLACK_CAP
        assert fast.upper <= ref.upper + SLACK_CAP

    def test_fast_converging_models_stay_bit_identical_under_auto(self):
        # the warmup sweeps converge before any oracle engages, so auto is
        # literally the same computation as sweep on fast-mixing models
        pts = compile_source(PROGRAMS["coin"], name="coin").pts
        model = build_sparse_model(pts)
        auto = iterate_model(model, solver="auto")
        sweep = iterate_model(model, solver="sweep")
        assert auto.solver == "sweep"  # no oracle ran
        assert auto.lower == sweep.lower
        assert auto.upper == sweep.upper
        assert auto.iterations == sweep.iterations

    def test_slow_mixing_chain_certifies_under_auto(self):
        pts = compile_source(SLOW_GAMBLER, name="slow-gambler").pts
        model = build_sparse_model(pts, max_states=20_000)
        fast = iterate_model(model, solver="auto")
        sweep = iterate_model(model, solver="sweep")
        assert fast.solver == "direct"
        assert fast.certified
        assert fast.certify_sweeps >= 1
        assert fast.oracle_residual is not None
        assert fast.oracle_residual <= 1e-10
        # dramatically fewer sweeps than the pure schedule
        assert fast.iterations < sweep.iterations // 10
        # the assert fires when the walk exits rich (x = 120), so the
        # analytic vpf from x = 30 is 30/120 = 1/4 — the certified
        # bracket must contain it
        assert fast.lower - 1e-9 <= 0.25 <= fast.upper + 1e-9
        # and is tighter-or-equal to the sweep bracket
        assert fast.lower >= sweep.lower - 1e-12
        assert fast.upper <= sweep.upper + 1e-12

    def test_value_iteration_threads_the_solver_parameter(self):
        pts = compile_source(SLOW_GAMBLER, name="slow-gambler").pts
        fast = value_iteration(pts, max_states=20_000, solver="auto")
        assert fast.certified
        assert fast.solver == "direct"
        swept = value_iteration(pts, max_states=20_000, solver="sweep")
        assert swept.solver == "sweep"
        assert not swept.certified
        assert abs(swept.lower - fast.lower) < 1e-6
