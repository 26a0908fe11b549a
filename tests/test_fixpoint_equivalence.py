"""Differential tests: sparse vectorized fixpoint engine vs legacy reference.

The engine rewrite (CSR matvecs + compiled BFS steppers) must be
observationally equivalent to the preserved pure-Python implementation in
:mod:`repro.core.fixpoint_reference`:

* identical explored state space (count and truncation flag),
* brackets equal to iteration tolerance — bit-identical on fast-mixing
  programs, <= 1e-9 on slow-mixing ones (iteration counts differ there:
  the reference sweeps in place, Gauss-Seidel style, the engine runs
  Jacobi sweeps),

on all discrete example programs, under truncation, and on randomized
programs from the grammar generator of ``test_random_programs.py``.
"""

import random

import pytest
from scipy.sparse import csr_matrix

from repro.lang import compile_source
from repro.core.fixpoint import build_sparse_model, iterate_model, value_iteration
from repro.core import fixpoint_reference
from repro.core.runcert import emit_run_certificate, verify_run_certificate

from test_random_programs import ProgramGenerator

COIN = """
x := 0
if prob(0.25):
    x := 1
assert x <= 0
"""

GAMBLER = """
x := 3
while x >= 1 and x <= 9:
    switch:
        prob(0.5): x := x + 1
        prob(0.5): x := x - 1
assert x <= 0
"""

ASYM = """
x := 0
t := 0
while x <= 19:
    switch:
        prob(0.75): x, t := x + 1, t + 1
        prob(0.25): x, t := x - 1, t + 1
assert t <= 60
"""

SAMPLING = """
r ~ bernoulli(0.5)
x := 0
n := 0
while n <= 5:
    x := x + r
    n := n + 1
assert x <= 4
"""

TWO_LOOP = """
x := 2
y := 0
while x >= 1 and x <= 5:
    if prob(3/8):
        x := x + 1
    else:
        x := x - 1
while y <= 3:
    if prob(0.5):
        y := y + 2
    else:
        y := y + 1
assert x <= 0
"""

PROGRAMS = {
    "coin": COIN,
    "gambler": GAMBLER,
    "asym": ASYM,
    "sampling": SAMPLING,
    "two_loop": TWO_LOOP,
}


def assert_equivalent(pts, max_states, tol=1e-9):
    fast = value_iteration(pts, max_states=max_states)
    ref = fixpoint_reference.value_iteration(pts, max_states=max_states)
    assert fast.states == ref.states
    assert fast.truncated == ref.truncated
    assert abs(fast.lower - ref.lower) <= tol, (fast, ref)
    assert abs(fast.upper - ref.upper) <= tol, (fast, ref)
    return fast, ref


def assert_brackets_reference(
    pts, max_states=200_000, explore="auto", solver="auto", tol=1e-9
):
    """The engine's bracket overlaps the reference's (both contain vpf),
    each end lies within ``tol`` of the reference's, and the run's
    certificate verifies."""
    model = build_sparse_model(pts, max_states=max_states, explore=explore)
    fast = iterate_model(model, solver=solver)
    ref = fixpoint_reference.value_iteration(pts, max_states=max_states)
    assert fast.states == ref.states
    assert max(fast.lower, ref.lower) <= min(fast.upper, ref.upper), (fast, ref)
    assert abs(fast.lower - ref.lower) <= tol, (fast, ref)
    assert abs(fast.upper - ref.upper) <= tol, (fast, ref)
    cert = emit_run_certificate(
        pts, model, fast, max_states=max_states, explore=explore
    )
    assert verify_run_certificate(cert, pts=pts).ok
    return fast, ref


class TestExamplePrograms:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bracket_equivalence(self, name):
        pts = compile_source(PROGRAMS[name], name=name).pts
        assert_equivalent(pts, max_states=50_000)

    def test_coin_bit_identical(self):
        pts = compile_source(COIN, name="coin").pts
        fast = value_iteration(pts)
        ref = fixpoint_reference.value_iteration(pts)
        assert fast.lower == ref.lower
        assert fast.upper == ref.upper
        assert fast.iterations == ref.iterations

    def test_small_model_brackets_the_reference(self):
        # a 13-state model runs the same CSR Jacobi sweeps as a 100k-state
        # one, so its sweep count is not the reference's; its bracket and
        # certificate are what is pinned
        pts = compile_source(GAMBLER, name="gambler").pts
        for solver in ("sweep", "auto"):
            assert_brackets_reference(pts, solver=solver)

    @pytest.mark.parametrize("max_states", [20, 100, 500])
    def test_truncated_equivalence(self, max_states):
        # truncation pessimizes the same frontier: the BFS visits states in
        # the reference order, so the overflow cut is identical
        pts = compile_source(ASYM, name="asym").pts
        fast, ref = assert_equivalent(pts, max_states=max_states)
        assert fast.truncated

    def test_continuous_sampling_rejected_like_reference(self):
        from repro.errors import ModelError

        src = "r ~ uniform(0, 1)\nx := 0\nx := x + r\nassert x <= 2"
        pts = compile_source(src, name="cont").pts
        with pytest.raises(ModelError):
            value_iteration(pts)
        with pytest.raises(ModelError):
            fixpoint_reference.value_iteration(pts)


class TestSparseModel:
    def test_model_shape(self):
        pts = compile_source(GAMBLER, name="gambler").pts
        model = build_sparse_model(pts, max_states=1000)
        assert model.n == 13
        assert not model.truncated
        assert isinstance(model.matrix, csr_matrix)  # CSR at every size
        assert model.nnz > 0
        assert model.b_lower.shape == (model.n,)
        # init state is interned first, matching the reference exploration
        init = (pts.init_location, tuple(pts.init_valuation[v] for v in pts.program_vars))
        assert model.index[init] == 0

    def test_overflow_mass_only_in_upper_offset(self):
        pts = compile_source(ASYM, name="asym").pts
        model = build_sparse_model(pts, max_states=100)
        assert model.truncated
        assert (model.b_upper - model.b_lower).sum() > 0  # overflow pessimized above
        assert (model.b_lower <= model.b_upper).all()


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_equivalence(self, seed):
        source = ProgramGenerator(random.Random(seed)).program()
        pts = compile_source(source, name=f"rand{seed}").pts
        assert_equivalent(pts, max_states=60_000)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_randomized_truncated_equivalence(self, seed):
        source = ProgramGenerator(random.Random(seed)).program()
        pts = compile_source(source, name=f"rand{seed}").pts
        full = fixpoint_reference.value_iteration(pts, max_states=60_000)
        cap = max(10, full.states // 3)
        assert_equivalent(pts, max_states=cap)
