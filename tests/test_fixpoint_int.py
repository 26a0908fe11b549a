"""Differential tests for the lattice frontier-batch exploration fast path.

The lattice engine must be *bit-identical* to the exact Fraction engine
on every admissible program — integer-lattice ones (labelled ``int64``)
and fixed-point-admissible fractional ones (``scaled-int64``): same state
interning order, same truncation cut, same COO triplets, hence the same
matrix, offsets and value-iteration trajectory.  Inadmissible or
overflowing systems must fall back to the exact path silently under
``explore="auto"`` and loudly under ``explore="scaled"``.  Under ``auto``
one BFS runs: the scalar loop hands its tables to the batched loop at the
first wide level, and the result is the same model again.
"""

import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.errors import ModelError
from repro.lang import compile_source
from repro.core import fixpoint, fixpoint_reference
from repro.core.fixpoint import build_sparse_model, iterate_model, value_iteration

from test_fixpoint_equivalence import PROGRAMS, assert_brackets_reference
from test_random_programs import ProgramGenerator

#: deterministic doubling chain: reaches |x| > 2**31 after ~33 states, so
#: the lattice BFS must abandon the batch and the exact path take over
OVERFLOW_CHAIN = """
x := 1
while x <= 10000000000:
    x := x * 2
assert x <= 0
"""

#: half-integer steps: not on the integer lattice, but on the scale-2
#: fixed-point one (compiled in real-valued mode so the loop-exit guards
#: stay complete at fractional states)
HALF_STEPS = """
x := 0
while x <= 5:
    if prob(0.5):
        x := x + 1/2
    else:
        x := x + 1
assert x >= 6
"""


def assert_csr_identical(a, b):
    """Bitwise CSR equality without densifying (a 50 000-state model would
    need 18.6 GiB as a dense array)."""
    assert isinstance(a, csr_matrix) and isinstance(b, csr_matrix)
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def assert_models_bit_identical(pts, max_states, explore="scaled"):
    fast = build_sparse_model(pts, max_states=max_states, explore=explore)
    exact = build_sparse_model(pts, max_states=max_states, explore="fraction")
    assert fast.explored_via in ("int64", "scaled-int64")
    assert exact.explored_via == "fraction"
    assert fast.n == exact.n
    assert fast.truncated == exact.truncated
    assert_csr_identical(fast.matrix, exact.matrix)
    assert (fast.b_lower == exact.b_lower).all()
    assert (fast.b_upper == exact.b_upper).all()
    assert (fast.x0_lower == exact.x0_lower).all()
    assert (fast.x0_upper == exact.x0_upper).all()
    assert fast.index == exact.index  # lazy on the lattice side
    return fast, exact


class TestIntegerLatticeBitIdentity:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_example_programs(self, name):
        pts = compile_source(PROGRAMS[name], name=name).pts
        assert_models_bit_identical(pts, max_states=50_000)

    @pytest.mark.parametrize("max_states", [20, 100, 500])
    def test_truncation_cuts_the_same_frontier(self, max_states):
        pts = compile_source(PROGRAMS["asym"], name="asym").pts
        fast, _ = assert_models_bit_identical(pts, max_states=max_states)
        assert fast.truncated

    def test_value_iteration_brackets_the_reference(self):
        # lattice exploration feeds the same CSR sweeps as the Fraction
        # engine; the bracket must agree with the legacy engine's and
        # carry a certificate that verifies
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        for solver in ("sweep", "auto"):
            assert_brackets_reference(pts, explore="scaled", solver=solver)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_programs(self, seed):
        source = ProgramGenerator(random.Random(seed)).program()
        pts = compile_source(source, name=f"rand{seed}").pts
        auto = build_sparse_model(pts, max_states=60_000)
        exact = build_sparse_model(pts, max_states=60_000, explore="fraction")
        assert auto.n == exact.n
        assert auto.truncated == exact.truncated
        assert_csr_identical(auto.matrix, exact.matrix)
        assert (auto.b_upper == exact.b_upper).all()


#: ~150 BFS levels of width 2 (a revisited state is not new): under
#: explore="auto" no level is wide enough to hand over to the batched loop
THIN_CHAIN = """
x := 150
while x >= 1 and x <= 299:
    switch:
        prob(0.5): x := x + 1
        prob(0.5): x := x - 1
assert x <= 0
"""


class TestFallback:
    def test_auto_falls_back_on_int64_overflow(self):
        pts = compile_source(OVERFLOW_CHAIN, name="ovf").pts
        assert pts.integrality().integral
        model = build_sparse_model(pts, max_states=5_000)
        assert model.explored_via == "fraction"
        fast = value_iteration(pts, max_states=5_000, solver="sweep")
        ref = fixpoint_reference.value_iteration(pts, max_states=5_000)
        assert fast.states == ref.states
        assert fast.lower == ref.lower
        assert fast.upper == ref.upper

    def test_forced_int64_raises_on_overflow(self):
        # a forced lattice run on an integer program: the error names the
        # int64 lattice whose 2**31 limit the chain left
        pts = compile_source(OVERFLOW_CHAIN, name="ovf").pts
        with pytest.raises(ModelError, match="overflowed the int64"):
            build_sparse_model(pts, max_states=5_000, explore="scaled")

    def test_truncation_dropped_overflow_candidates_keep_the_fast_path(self):
        # the 33rd state of the doubling chain exceeds 2**31, but with
        # max_states=16 it is cut by the budget before admission — only
        # *admitted* states are range-checked, so the lattice stays usable
        pts = compile_source(OVERFLOW_CHAIN, name="ovf").pts
        fast = build_sparse_model(pts, max_states=16, explore="scaled")
        exact = build_sparse_model(pts, max_states=16, explore="fraction")
        assert fast.explored_via == "int64"
        assert fast.truncated
        assert fast.n == exact.n
        assert_csr_identical(fast.matrix, exact.matrix)
        assert (fast.b_upper == exact.b_upper).all()

    def test_auto_falls_back_when_every_key_collides(self, monkeypatch):
        # a zero multiplier gives every state key 0: the handoff's table
        # check must catch the shared keys, and auto must stay scalar
        pts = compile_source(PROGRAMS["asym"], name="asym").pts
        assert build_sparse_model(pts, max_states=2_000).explored_via == "int64"
        exact = build_sparse_model(pts, max_states=2_000, explore="fraction")
        monkeypatch.setattr(fixpoint, "_KEY_MULTIPLIER", np.uint64(0))
        auto = build_sparse_model(pts, max_states=2_000)
        assert auto.explored_via == "fraction"
        assert auto.n == exact.n == 2_000
        assert auto.truncated and exact.truncated
        assert_csr_identical(auto.matrix, exact.matrix)
        assert (auto.b_lower == exact.b_lower).all()
        assert (auto.b_upper == exact.b_upper).all()
        assert (auto.x0_upper == exact.x0_upper).all()
        assert auto.index == exact.index
        assert auto._evidence == exact._evidence

    @pytest.mark.parametrize(
        "source",
        [
            # the batch check: the first candidate is the stored state
            # itself, the second a new state under the same key
            "x := 0\nwhile x <= 5:\n    switch:\n"
            "        prob(0.5): x := x\n        prob(0.5): x := x + 1\n"
            "assert x <= 10",
            # the table check: one candidate per level, its key already
            # stored for the previous state
            "x := 0\nwhile x <= 5:\n    x := x + 1\nassert x <= 10",
        ],
        ids=["batch", "table"],
    )
    def test_forced_scaled_raises_when_every_key_collides(self, monkeypatch, source):
        pts = compile_source(source, name="collide").pts
        honest = build_sparse_model(pts, max_states=100, explore="scaled")
        assert honest.explored_via == "int64" and honest.n > 2
        monkeypatch.setattr(fixpoint, "_KEY_MULTIPLIER", np.uint64(0))
        with pytest.raises(ModelError, match="share a 64-bit frontier key"):
            build_sparse_model(pts, max_states=100, explore="scaled")

    def test_auto_falls_back_when_no_scaled_lattice_exists(self):
        # a 1e-7 step size needs a denominator beyond the 1e6 fixed-point
        # cap, so not even the scaled engine admits it
        src = "x := 0\nwhile x <= 2:\n    x := x + 1/10000000\nassert x <= 0"
        pts = compile_source(src, name="tiny-steps", integer_mode=False).pts
        report = pts.integrality()
        assert not report.integral
        assert report.scale is None
        assert "fixed-point cap" in report.scale_reason
        model = build_sparse_model(pts, max_states=100)
        assert model.explored_via == "fraction"

    def test_continuous_sampling_rejected_before_exploring(self):
        src = "r ~ uniform(0, 1)\nx := 0\nx := x + r\nassert x <= 2"
        pts = compile_source(src, name="cont").pts
        assert not pts.integrality().integral
        with pytest.raises(ModelError):
            value_iteration(pts)

    def test_unknown_modes_rejected(self):
        pts = compile_source(PROGRAMS["coin"], name="coin").pts
        # one lattice explorer: int64 is the scale-1 case of scaled
        for explore in ("simd", "int64"):
            with pytest.raises(ValueError):
                build_sparse_model(pts, explore=explore)
        # one sweep kernel: there is no schedule to pick
        with pytest.raises(TypeError):
            value_iteration(pts, schedule="gauss-seidel")
        for solver in ("sor", "anderson", "direct", "conjugate-gradient"):
            with pytest.raises(ValueError):
                value_iteration(pts, solver=solver)


#: the walk of the budget bug: with max_states=0 the lattice engine
#: explored 2 states and the Fraction engine 1
BUDGET_WALK = """
x := 0
while x <= 5:
    if prob(0.5):
        x := x + 1
    else:
        x := x - 1
assert x <= 3
"""


class TestStateBudget:
    """The checker's ``states-budget`` rule is 1 <= states <= max_states,
    so a budget below 1 is refused before any exploration."""

    @pytest.mark.parametrize("explore", ["auto", "scaled", "fraction"])
    @pytest.mark.parametrize("max_states", [0, -1])
    def test_budget_below_one_is_refused(self, explore, max_states):
        pts = compile_source(BUDGET_WALK, name="walk").pts
        with pytest.raises(ValueError, match="at least 1"):
            build_sparse_model(pts, max_states=max_states, explore=explore)

    def test_budget_of_one_explores_only_the_initial_state(self):
        pts = compile_source(BUDGET_WALK, name="walk").pts
        fast, exact = assert_models_bit_identical(pts, max_states=1)
        assert fast.n == exact.n == 1
        assert fast.truncated and exact.truncated


#: one counter step per level and a fair coin: level k holds the k + 1
#: states (i, x) = (k, 0..k), so the BFS starts narrow and widens steadily
WIDENING_WALK = """
i := 0
x := 0
while i <= 99:
    if prob(0.5):
        i, x := i + 1, x + 1
    else:
        i := i + 1
assert x <= 55
"""

#: a quadratically widening walk whose y quadruples every step: it hands
#: over to the batched loop within ten levels, then leaves the int64
#: lattice's 2**31 range at level 16
OVERFLOW_AFTER_HANDOFF = """
i := 0
x := 0
z := 0
y := 1
while i <= 40:
    switch:
        prob(0.25): i, x, y := i + 1, x + 1, 4 * y
        prob(0.25): i, z, y := i + 1, z + 1, 4 * y
        prob(0.5): i, y := i + 1, 4 * y
assert x <= 30
"""


@pytest.fixture
def loops(monkeypatch):
    """Count the scalar and batched level loops that each build runs."""
    calls = {"scalar": 0, "batched": 0}
    scalar, batched = fixpoint._build_model_exact, fixpoint._build_model_int

    def count_scalar(*args, **kwargs):
        calls["scalar"] += 1
        return scalar(*args, **kwargs)

    def count_batched(*args, **kwargs):
        calls["batched"] += 1
        return batched(*args, **kwargs)

    monkeypatch.setattr(fixpoint, "_build_model_exact", count_scalar)
    monkeypatch.setattr(fixpoint, "_build_model_int", count_batched)
    return calls


def assert_same_as_fraction(model, pts, max_states):
    """``model`` equals forced ``fraction`` in every array, the index and
    the exploration evidence (level ends, digests, state blob)."""
    exact = build_sparse_model(pts, max_states=max_states, explore="fraction")
    assert model.n == exact.n
    assert model.truncated == exact.truncated
    assert_csr_identical(model.matrix, exact.matrix)
    for name in ("b_lower", "b_upper", "x0_lower", "x0_upper"):
        assert np.array_equal(getattr(model, name), getattr(exact, name))
    assert model.index == exact.index
    assert model._evidence["levels"] == exact._evidence["levels"]
    return exact


class TestOneBFSUnderAuto:
    """``explore="auto"`` explores once: the scalar loop runs the narrow
    levels and hands its tables to the batched loop at the first level of
    ``_BATCH_MIN_WIDTH`` or more states."""

    @pytest.mark.parametrize(
        "source", [PROGRAMS["gambler"], THIN_CHAIN], ids=["gambler", "thin-chain"]
    )
    def test_narrow_models_explore_once(self, source, loops):
        # width-2 chains never reach a wide level: one scalar BFS, no
        # batched attempt and no restart
        pts = compile_source(source, name="narrow").pts
        auto = build_sparse_model(pts, max_states=5_000)
        assert loops == {"scalar": 1, "batched": 0}
        assert auto.explored_via == "fraction"
        assert auto._evidence["admission"] is None
        # forced scaled still batches every level, bit-identically
        fast, _ = assert_models_bit_identical(pts, max_states=5_000)
        assert fast.explored_via == "int64"

    def test_handoff_waits_for_a_wide_level(self, loops):
        # the trigger is one level's width, not the model's size: THIN_CHAIN
        # has 299 states and stays scalar, WIDENING_WALK hands over at its
        # first level of _BATCH_MIN_WIDTH states
        thin = compile_source(THIN_CHAIN, name="thin").pts
        assert build_sparse_model(thin, max_states=5_000).n > 256
        assert loops == {"scalar": 1, "batched": 0}
        wide = compile_source(WIDENING_WALK, name="widening").pts
        model = build_sparse_model(wide, max_states=1_000)
        assert loops == {"scalar": 2, "batched": 1}
        assert model.explored_via == "int64"
        widths = np.diff([0] + model._evidence["levels"]["level_ends"])
        width = fixpoint._BATCH_MIN_WIDTH
        assert list(widths[:width]) == list(range(1, width + 1))

    @pytest.mark.parametrize("max_states", [6_000, 2_000], ids=["complete", "cut"])
    def test_handed_off_model_is_the_fraction_model(self, max_states, loops):
        from repro.core.runcert import emit_run_certificate, verify_run_certificate

        pts = compile_source(WIDENING_WALK, name="widening").pts
        model = build_sparse_model(pts, max_states=max_states)
        assert loops == {"scalar": 1, "batched": 1}
        assert model.explored_via == "int64"
        assert model._evidence["admission"] is not None
        exact = assert_same_as_fraction(model, pts, max_states)
        assert model.truncated == (max_states == 2_000)
        assert exact._evidence["admission"] is None
        result = iterate_model(model)
        cert = emit_run_certificate(pts, model, result, max_states=max_states)
        report = verify_run_certificate(cert, pts=pts)
        assert report.ok, "\n".join(report.render())

    def test_overflow_after_the_handoff_rebuilds_on_fraction(self, loops):
        pts = compile_source(OVERFLOW_AFTER_HANDOFF, name="ovf-late").pts
        model = build_sparse_model(pts, max_states=20_000)
        # the handoff ran, its batched loop overflowed, and one fresh
        # scalar run rebuilt the model
        assert loops == {"scalar": 2, "batched": 1}
        assert model.explored_via == "fraction"
        assert model._evidence["admission"] is None
        assert_same_as_fraction(model, pts, 20_000)
        with pytest.raises(ModelError, match="overflowed the int64"):
            build_sparse_model(pts, max_states=20_000, explore="scaled")

    def test_key_collision_at_the_handoff_stays_scalar(self, monkeypatch, loops):
        pts = compile_source(WIDENING_WALK, name="widening").pts
        monkeypatch.setattr(fixpoint, "_KEY_MULTIPLIER", np.uint64(0))
        model = build_sparse_model(pts, max_states=2_000)
        assert loops == {"scalar": 1, "batched": 0}
        assert model.explored_via == "fraction"
        assert_same_as_fraction(model, pts, 2_000)

    @pytest.mark.parametrize("cut", ["no-exit", "dead-end"])
    def test_stuck_state_is_refused_alike_on_every_engine(self, cut):
        # without the loop's exit transitions (no-exit), or with them
        # leading to a location that has none (dead-end), the first state
        # at i = 100 has no enabled transition: the scalar loop, the batched
        # loop after the handoff and the forced lattice run all name it (the
        # scalar engine prints its exact Fractions, the lattice its scaled
        # ints, here on scale 1)
        from repro.pts.model import PTS, Fork, Transition

        pts = compile_source(WIDENING_WALK, name="widening").pts
        kept = []
        for t in pts.transitions:
            if not all(pts.is_sink(f.destination) for f in t.forks):
                kept.append(t)
            elif cut == "dead-end":
                forks = [Fork("dead", f.probability) for f in t.forks]
                kept.append(Transition(t.source, t.guard, forks))
        stuck = PTS(
            pts.program_vars, pts.init_location, pts.init_valuation, kept, name="stuck"
        )
        where = "'dead'" if cut == "dead-end" else repr(pts.init_location)
        for explore in ("auto", "scaled", "fraction"):
            with pytest.raises(ModelError, match="no enabled transition") as exc:
                build_sparse_model(stuck, max_states=10_000, explore=explore)
            text = str(exc.value).replace("Fraction(100, 1)", "100")
            assert text.endswith(f"at {where} with {{'i': 100, 'x': 100}}"), text

    def test_narrow_model_brackets_the_reference(self):
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        for solver in ("sweep", "auto"):
            assert_brackets_reference(pts, solver=solver)


#: mixed lattice: an integral loop counter riding along half-integer steps
#: — the scaled engine must keep i on scale 1 and put x on scale 2
MIXED_STEPS = """
i := 0
x := 0
while i <= 20:
    if prob(0.5):
        i, x := i + 1, x + 1/2
    else:
        i := i + 1
assert x >= 8
"""

#: mixed lattice whose loop exit also fires exactly at the fractional
#: guard boundary x = 15/2
MIXED_BOUNDARY = """
i := 0
x := 0
while i <= 20 and x - 15/2 <= 0:
    if prob(0.5):
        i, x := i + 1, x + 1/2
    else:
        i := i + 1
assert x >= 8
"""

#: every loop exit crosses the guard boundary exactly at the fractional
#: state x = 3/4 — descaling must not perturb the contains_float(tol=1e-9)
#: decision there
BOUNDARY_STEPS = """
x := 0
while x - 3/4 <= 0:
    if prob(0.5):
        x := x + 1/4
    else:
        x := x + 3/4
assert x >= 2
"""

#: a step counter riding a half-integer accumulator on scale (2, 1): the
#: counter's row t - 1000000 <= 0 is *exact* (clearing multiplier 1, t on
#: scale 1), so the reference evaluates it in float without rounding.
#: The gap rule alone would refuse it: its error bound
#: 5 * 2**-53 * (10**6 + 2**15) ~ 5.7e-10 misses the 5e-10 budget
EXACT_ROW = """
x := 0
t := 0
while t <= 1000000 and x <= 3:
    if prob(0.5):
        x, t := x + 1/2, t + 1
    else:
        t := t + 1
assert x >= 3
"""

#: fractional doubling chain: scaled values leave the per-variable admitted
#: range after ~16 doublings, so the scaled engine must hand over to the
#: exact path mid-exploration
SCALED_OVERFLOW_CHAIN = """
x := 1/2
while x <= 100000:
    x := x * 2
assert x <= 0
"""


class TestScaledLattice:
    """The fixed-point (scaled-int64) admission of fractional systems."""

    def test_half_steps_explored_scaled_under_auto(self):
        pts = compile_source(HALF_STEPS, name="half", integer_mode=False).pts
        assert pts.integrality().scale == (2,)
        # ~13 states on levels of width 1-2: auto never reaches a wide
        # level and stays scalar, but the forced scaled engine still
        # batches, bit-identically
        model = build_sparse_model(pts, max_states=5_000)
        assert model.explored_via == "fraction"
        fast, _ = assert_models_bit_identical(pts, max_states=5_000, explore="scaled")
        assert fast.explored_via == "scaled-int64"

    @pytest.mark.parametrize(
        "name,scale",
        [("3DWalk", (10, 10, 10)), ("Robot", (1, 500, 500))],
    )
    def test_table1_fractional_workloads(self, name, scale):
        from repro.programs import get_benchmark

        pts = get_benchmark(name).pts
        report = pts.integrality()
        assert not report.integral
        assert report.scale == scale
        auto = build_sparse_model(pts, max_states=4_000)
        assert auto.explored_via == "scaled-int64"
        fast, _ = assert_models_bit_identical(pts, max_states=4_000, explore="scaled")
        assert fast.truncated  # the cut frontier is part of the contract

    def test_m1dwalk_is_integer_lattice_not_scaled(self):
        # the issue tracker filed M1DWalk under "fractional", but only its
        # fork *probabilities* are fractional and those never enter a state
        # vector: it has been int64-admissible since the integer fast path
        # landed, and auto runs it scalar because no level of the width-2
        # chain is wide enough to hand over to the batched loop
        from repro.programs import get_benchmark

        pts = get_benchmark("M1DWalk").pts
        report = pts.integrality()
        assert report.integral
        assert report.scale == (1,)
        auto = build_sparse_model(pts, max_states=3_000)
        assert auto.explored_via == "fraction"  # never wide enough to batch
        fast, _ = assert_models_bit_identical(pts, max_states=3_000)
        assert fast.explored_via == "int64"

    @pytest.mark.parametrize(
        "source", [MIXED_STEPS, MIXED_BOUNDARY], ids=["steps", "boundary"]
    )
    def test_mixed_integral_and_fractional_variables(self, source):
        pts = compile_source(source, name="mixed", integer_mode=False).pts
        assert pts.integrality().scale == (1, 2)
        fast, _ = assert_models_bit_identical(pts, max_states=10_000, explore="scaled")
        assert fast.explored_via == "scaled-int64"

    def test_guard_boundary_states_descale_exactly(self):
        pts = compile_source(BOUNDARY_STEPS, name="boundary", integer_mode=False).pts
        fast, exact = assert_models_bit_identical(
            pts, max_states=1_000, explore="scaled"
        )
        # the boundary state x = 3/4 is reachable and loops once more (the
        # guard holds with exact value 0); its descaled index entry must
        # make the same contains_float(tol=1e-9) call the reference makes
        from fractions import Fraction

        boundary = next(
            (loc, values)
            for (loc, values) in fast.index
            if Fraction(3, 4) in values
        )
        loc, values = boundary
        valuation = dict(zip(pts.program_vars, (float(v) for v in values)))
        assert pts.enabled_transition(loc, valuation) is not None

    def test_value_iteration_scaled_matches_reference_bitwise(self):
        # x only grows, so every transition targets a later-discovered
        # state: the reference's in-place sweep then reads no value it
        # already updated and is exactly a Jacobi sweep — iteration counts
        # and bits both match
        pts = compile_source(HALF_STEPS, name="half", integer_mode=False).pts
        fast = value_iteration(pts, max_states=5_000, explore="scaled", solver="sweep")
        ref = fixpoint_reference.value_iteration(pts, max_states=5_000)
        assert fast.iterations == ref.iterations
        assert fast.lower == ref.lower
        assert fast.upper == ref.upper

    def test_lcm_overflow_falls_back_and_forced_scaled_raises(self):
        src = "x := 0\nwhile x <= 2:\n    x := x + 1/10000000\nassert x <= 0"
        pts = compile_source(src, name="tiny-steps", integer_mode=False).pts
        assert build_sparse_model(pts, max_states=100).explored_via == "fraction"
        with pytest.raises(ModelError, match="fixed-point-admissible"):
            build_sparse_model(pts, max_states=100, explore="scaled")

    def test_forced_scaled_raises_on_contractive_updates(self):
        src = "x := 1\nwhile x >= 1/100:\n    x := x / 2\nassert x <= 0"
        pts = compile_source(src, name="halving", integer_mode=False).pts
        assert pts.integrality().scale is None
        with pytest.raises(ModelError, match="fixed-point-admissible"):
            build_sparse_model(pts, max_states=100, explore="scaled")

    def test_fractional_guard_coefficients_do_not_refine_the_lattice(self):
        # states stay integral; only a guard coefficient is fractional.
        # Guards are cleared by per-row multipliers, so the lattice keeps
        # scale 1 and the scaled engine admits the system
        src = (
            "x := 0\nwhile 1/3 * x <= 5:\n    x := x + 1\nassert x >= 16"
        )
        pts = compile_source(src, name="frac-guard", integer_mode=False).pts
        report = pts.integrality()
        assert not report.integral
        assert report.scale == (1,)
        # ~18 states on narrow levels: auto stays scalar, but the forced
        # scaled engine still admits the system
        model = build_sparse_model(pts, max_states=1_000)
        assert model.explored_via == "fraction"
        assert_models_bit_identical(pts, max_states=1_000, explore="scaled")

    def test_exact_guard_rows_are_admitted_on_a_fractional_lattice(self):
        from repro.core.runcert import emit_run_certificate, verify_run_certificate

        pts = compile_source(EXACT_ROW, name="exact-row", integer_mode=False).pts
        assert pts.integrality().scale == (2, 1)
        # admitted, but no BFS level holds more than 9 states: auto never
        # hands over to the batched loop
        assert fixpoint._compile_int_plan(pts) is not None
        assert build_sparse_model(pts, max_states=2_000).explored_via == "fraction"
        fast, _ = assert_models_bit_identical(pts, max_states=2_000, explore="scaled")
        assert fast.explored_via == "scaled-int64"
        assert fast.n == 2_000 and fast.truncated
        admission = fast._evidence["admission"]
        assert admission["lattice"] == "scaled"
        t_limit = admission["limits"][1]
        assert t_limit == 2**15
        counter_rows = [
            g for g in admission["guards"] if g["row"] == [0, 1] and g["const"] == -10**6
        ]
        assert counter_rows
        for entry in counter_rows:
            assert entry["mult"] == 1
            assert entry["headroom"] == 2**52 - (t_limit + 10**6)
        result = iterate_model(fast)
        cert = emit_run_certificate(
            pts, fast, result, max_states=2_000, explore="scaled", source=EXACT_ROW,
            integer_mode=False,
        )
        report = verify_run_certificate(cert, pts=pts)
        assert report.ok, "\n".join(report.render())

    def test_guard_rows_evaluate_exactly_in_float64(self):
        # the batched dispatch multiplies guard rows in float64, exact while
        # a lowered row's magnitude sum(|row_j| * limit_j) + |const| stays
        # below 2**53: exact rows are admitted below 2**52, and a gap row's
        # clearing multiplier (at most 5e8) times its real magnitude (capped
        # by the slack rule) stays below 2**53 as well
        from repro.experiments.fixpoint_bench import FIXPOINT_WORKLOADS
        from repro.fuzz.generators import corpus_plan

        real_cap = fixpoint._SCALED_GUARD_SLACK / (4 * fixpoint._FLOAT_ULP)
        assert fixpoint._INT_GUARD_MAGNITUDE < 2**53
        assert fixpoint._SCALED_GAP_LIMIT * real_cap < 2**53
        near_cap = corpus_plan(9, 1, ("mixed-lattice",))[0]
        assert near_cap.params["den"] == 999_983
        sources = [(src, im) for src, _, im in FIXPOINT_WORKLOADS.values()]
        sources.append((near_cap.source, near_cap.integer_mode))
        for source, integer_mode in sources:
            pts = compile_source(source, name="rows", integer_mode=integer_mode).pts
            plan = fixpoint._compile_int_plan(pts)
            for g in plan.admission["guards"]:
                weights = zip(g["row"], plan.limits)
                assert sum(abs(a) * lim for a, lim in weights) + abs(g["const"]) < 2**53
        pts = compile_source(
            near_cap.source, name="near-cap", integer_mode=near_cap.integer_mode
        ).pts
        fast, _ = assert_models_bit_identical(pts, max_states=2_000)
        assert fast.explored_via == "scaled-int64"

    def test_forced_scaled_on_integer_lattice_degenerates_to_int64(self):
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        model = build_sparse_model(pts, max_states=5_000, explore="scaled")
        assert model.explored_via == "int64"

    def test_scaled_value_overflow_falls_back_under_auto(self):
        pts = compile_source(
            SCALED_OVERFLOW_CHAIN, name="scaled-ovf", integer_mode=False
        ).pts
        assert pts.integrality().scale == (2,)
        model = build_sparse_model(pts, max_states=1_000)
        assert model.explored_via == "fraction"
        fast = value_iteration(pts, max_states=1_000)
        ref = fixpoint_reference.value_iteration(pts, max_states=1_000)
        assert fast.states == ref.states
        assert fast.lower == ref.lower

    def test_scaled_value_overflow_raises_when_forced(self):
        pts = compile_source(
            SCALED_OVERFLOW_CHAIN, name="scaled-ovf", integer_mode=False
        ).pts
        with pytest.raises(ModelError, match="overflowed the scaled"):
            build_sparse_model(pts, max_states=1_000, explore="scaled")


class TestIntegralityReport:
    def test_integral_program(self):
        pts = compile_source(PROGRAMS["sampling"], name="sampling").pts
        assert pts.integrality().integral
        assert pts.integrality() is pts.integrality()  # cached
        assert pts.integrality().scale == tuple(1 for _ in pts.program_vars)

    def test_fractional_init(self):
        src = "x := 1/2\nassert x <= 0"
        pts = compile_source(src, name="finit", integer_mode=False).pts
        report = pts.integrality()
        assert not report.integral
        assert "init" in report.reason
        assert report.scale == (2,)
        assert report.max_scale == 2

    def test_continuous_sampling_has_no_scaled_lattice(self):
        src = "r ~ uniform(0, 1)\nx := 0\nx := x + r\nassert x <= 2"
        pts = compile_source(src, name="cont").pts
        report = pts.integrality()
        assert not report.integral
        assert report.scale is None
        assert "continuous" in report.scale_reason

    def test_cache_hit_asserts_structural_immutability(self):
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        assert pts.integrality().integral
        # rebinding to an equal-but-distinct tuple still counts as mutation
        pts.transitions = pts.transitions[:1] + pts.transitions[1:]
        with pytest.raises(ModelError, match="mutated"):
            pts.integrality()

    def test_cache_hit_catches_in_place_value_replacement(self):
        from fractions import Fraction

        from repro.pts.distributions import DiscreteDistribution

        pts = compile_source(PROGRAMS["sampling"], name="sampling").pts
        assert pts.integrality().integral
        # same keys, same lengths — only the bound objects change
        r = next(iter(pts.distributions))
        pts.distributions[r] = DiscreteDistribution(
            [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))]
        )
        with pytest.raises(ModelError, match="mutated"):
            pts.integrality()

    def test_cache_hit_catches_update_expression_swap(self):
        from fractions import Fraction

        from repro.polyhedra.linexpr import LinExpr

        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        assert pts.integrality().integral
        fork = pts.transitions[0].forks[0]
        target = next(iter(fork.update.assignments))
        # AffineUpdate's assignments dict is mutable — swapping a LinExpr
        # in place must not serve the stale integral=True report
        fork.update.assignments[target] = LinExpr({target: Fraction(1, 2)})
        with pytest.raises(ModelError, match="mutated"):
            pts.integrality()

    def test_cache_hit_catches_init_valuation_change(self):
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        assert pts.integrality().integral
        v = pts.program_vars[0]
        pts.init_valuation[v] = pts.init_valuation[v] + 1
        with pytest.raises(ModelError, match="mutated"):
            pts.integrality()

    def test_copies_recompute_instead_of_false_alarming(self):
        # the stamp pins object identities, which copies don't share: the
        # cache must be dropped on pickle/deepcopy, not trip the guard
        import copy
        import pickle

        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        report = pts.integrality()
        assert copy.deepcopy(pts).integrality() == report
        assert pickle.loads(pickle.dumps(pts)).integrality() == report
        assert pts.integrality() is report  # the original cache survives


class TestEngineFingerprint:
    def test_cache_keys_fold_in_the_fixpoint_fingerprint(self):
        from repro.core.fixpoint import FIXPOINT_FINGERPRINT
        from repro.engine import AnalysisTask, ProgramSpec

        task = AnalysisTask.make(
            "hoeffding", ProgramSpec.from_source("x := 0\nassert x <= 0")
        )
        key = task.cache_key
        assert len(key) == 64
        # the key is a hash, so pin the coupling instead: the fingerprint
        # constant exists and changing it must change every cache key
        import repro.engine.task as task_mod

        assert task_mod._fixpoint_fingerprint() == FIXPOINT_FINGERPRINT


def test_bench_workloads_match_their_registry_programs():
    # the fixpoint bench inlines copies of three Table 1/2 registry
    # programs (the registry compiles + generates invariants on every
    # instantiation, too slow for a module-level workload table); this
    # pins the copies to the registry so they cannot silently drift from
    # the shapes PERFORMANCE.md's recorded speedups claim to measure
    from repro.experiments.fixpoint_bench import FIXPOINT_WORKLOADS
    from repro.programs import get_benchmark

    for workload, registry_name in [
        ("3dwalk-100k", "3DWalk"),
        ("robot-100k", "Robot"),
        ("m1dwalk-5k", "M1DWalk"),
    ]:
        source, _, integer_mode = FIXPOINT_WORKLOADS[workload]
        bench_pts = compile_source(source, name=workload, integer_mode=integer_mode).pts
        registry_pts = get_benchmark(registry_name).pts
        # pretty() renders the full system; only the name line may differ
        assert (
            bench_pts.pretty().splitlines()[1:]
            == registry_pts.pretty().splitlines()[1:]
        ), f"bench workload {workload!r} drifted from registry {registry_name!r}"


def test_int64_handles_batched_duplicate_candidates():
    # many states of one frontier level map onto the same successor: the
    # void-view dedup must assign one index and keep every edge
    src = """
x := 0
y := 0
while x <= 6:
    switch:
        prob(0.5): x, y := x + 1, 0
        prob(0.5): x, y := x + 1, 1
assert y <= 0
"""
    pts = compile_source(src, name="dedup").pts
    fast = build_sparse_model(pts, max_states=10_000, explore="scaled")
    exact = build_sparse_model(pts, max_states=10_000, explore="fraction")
    assert fast.n == exact.n
    assert_csr_identical(fast.matrix, exact.matrix)
    assert np.isclose(fast.matrix.sum(axis=1).max(), 1.0)


#: equal guard atoms whose coefficients come in different orders: the two
#: probabilistic branches keep their own ``x + y <= 6`` and ``y + x <= 6``
REORDERED_ATOMS = """
x := 0
y := 0
while x <= 10:
    if prob(1/2):
        if x + y <= 6:
            x := x + 1
        else:
            x, y := x + 1, y + 1
    else:
        if y + x <= 6:
            y := y + 2
        else:
            x := x + 2
assert y <= 8
"""


def _fz_grid_trap():
    from repro.experiments.fixpoint_bench import FIXPOINT_WORKLOADS

    source, budget, integer_mode = FIXPOINT_WORKLOADS["fz-grid-trap"]
    return compile_source(source, name="fz-grid-trap", integer_mode=integer_mode).pts, budget


def _per_row_admission(pts, guard_entry, step_headroom, draws, limits):
    """The admission record's guard and step entries, lowered row by row
    and stepper by stepper with no sharing."""
    var_index = {v: i for i, v in enumerate(pts.program_vars)}
    scale = [int(s) for s in pts.integrality().scale]
    guards, steps = [], []
    for ti, t in enumerate(pts.transitions):
        for k, ineq in enumerate(t.guard.inequalities):
            guards.append(guard_entry(ineq.expr, var_index, scale, limits, ti, k))
        for fi, fork in enumerate(t.forks):
            for di, draw in enumerate(draws):
                headroom = step_headroom(fork.update, draw, pts.program_vars, var_index, scale, limits)
                steps.append({"transition": ti, "fork": fi, "draw": di, "headroom": headroom})
    return guards, steps


class TestPlansPerDistinctAtom:
    """The plans and the checker lower each distinct atom and update once;
    their records must still equal the row-by-row lowering."""

    @pytest.fixture(params=["fz-grid-trap", "reordered-atoms"])
    def pts(self, request):
        if request.param == "fz-grid-trap":
            return _fz_grid_trap()[0]
        pts = compile_source(REORDERED_ATOMS, name="reordered").pts
        orders = {}
        for t in pts.transitions:
            for ineq in t.guard.inequalities:
                orders.setdefault(ineq.expr, set()).add(tuple(n for n, _ in ineq.expr.iter_coeffs()))
        assert any(len(o) > 1 for o in orders.values())
        return pts

    def test_plan_admission_matches_the_per_row_lowering(self, pts):
        plan = fixpoint._compile_int_plan(pts)
        draws = [draw for _, draw in fixpoint._draw_list(pts)]

        def step_headroom(*args):
            return fixpoint._step_rows(*args)[2]

        guards, steps = _per_row_admission(pts, fixpoint._guard_row, step_headroom, draws, plan.limits)
        assert plan.admission["guards"] == guards
        assert plan.admission["steps"] == steps
        rows = [g["row"] for g in plan.admission["guards"]]
        assert len({id(r) for r in rows}) == len(rows)

    def test_checker_admission_matches_the_per_row_lowering(self, pts):
        from repro.core import runcert

        derived, why = runcert.derive_admission(pts)
        assert why is None
        guards, steps = _per_row_admission(
            pts,
            runcert._derive_guard_entry,
            runcert._derive_step_headroom,
            runcert._draw_values(pts),
            derived["limits"],
        )
        assert derived["guards"] == guards
        assert derived["steps"] == steps
        rows = [g["row"] for g in derived["guards"]]
        assert len({id(r) for r in rows}) == len(rows)
        assert derived == fixpoint._compile_int_plan(pts).admission

    def test_scalar_bfs_compiles_only_the_guards_it_evaluates(self, monkeypatch):
        pts, budget = _fz_grid_trap()
        compiled = []
        original = fixpoint._compile_guard

        def counting(guard, var_index):
            compiled.append(guard)
            return original(guard, var_index)

        monkeypatch.setattr(fixpoint, "_compile_guard", counting)
        model = build_sparse_model(pts, max_states=budget)
        assert model.explored_via == "int64"
        assert len(pts.transitions) == 116
        assert len(compiled) == 79
        assert len({id(g) for g in compiled}) == 79  # each at most once
