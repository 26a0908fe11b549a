"""Differential tests for the lattice frontier-batch exploration fast path.

The lattice engine must be *bit-identical* to the exact Fraction engine
on every admissible program — integer-lattice ones (labelled ``int64``)
and fixed-point-admissible fractional ones (``scaled-int64``): same state
interning order, same truncation cut, same COO triplets, hence the same
matrix, offsets and value-iteration trajectory.  Inadmissible or
overflowing systems must fall back to the exact path silently under
``explore="auto"`` and loudly under ``explore="scaled"``.
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


#: >64 BFS levels of width ~2: under explore="auto" the batched engine
#: must bail out to the scalar path (per-level numpy overhead dominates)
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
        # a zero multiplier gives every state key 0: the row checks must
        # catch the shared keys, and auto must rebuild on the scalar engine
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

    def test_auto_bails_out_on_thin_frontiers(self):
        # chain-shaped system: >64 narrow BFS levels restart on the scalar
        # engine under auto, but forced scaled still batches to completion
        pts = compile_source(THIN_CHAIN, name="thin").pts
        auto = build_sparse_model(pts, max_states=5_000)
        assert auto.explored_via == "fraction"
        forced = build_sparse_model(pts, max_states=5_000, explore="scaled")
        assert forced.explored_via == "int64"
        assert forced.n == auto.n
        assert_csr_identical(forced.matrix, auto.matrix)
        assert forced.index == auto.index

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


class TestTinyModelHeuristic:
    """Sub-256-state systems stay on the scalar Fraction engine under auto.

    The BENCH trajectory showed the batched engines *losing* on tiny
    models (gambler's 13 states ran at explore_speedup 0.29x: per-level
    numpy dispatch overhead dwarfs the work), so auto now bails out after
    a cheap full exploration whenever the admitted model is tiny.
    """

    def test_tiny_integer_model_bails_to_scalar_under_auto(self):
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        auto = build_sparse_model(pts, max_states=20_000)
        assert auto.explored_via == "fraction"
        # forced scaled still batches, and stays bit-identical
        fast, _ = assert_models_bit_identical(pts, max_states=20_000)
        assert fast.explored_via == "int64"
        assert fast.n < 256

    def test_heuristic_threshold_is_state_count_not_budget(self):
        # same tiny system under a tiny budget: still scalar under auto
        pts = compile_source(PROGRAMS["gambler"], name="gambler").pts
        assert build_sparse_model(pts, max_states=300).explored_via == "fraction"
        # a >=256-state admitted model keeps the batched engine
        pts_big = compile_source(THIN_CHAIN, name="thin").pts
        forced = build_sparse_model(pts_big, max_states=5_000, explore="scaled")
        assert forced.n >= 256

    def test_bailout_does_not_change_the_bracket(self):
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
        # ~13 states: the tiny-model heuristic keeps auto on the scalar
        # engine (per-level numpy overhead dominates below 256 states) but
        # the forced scaled engine still batches, bit-identically
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
        # landed, and its exclusion under auto is the thin-frontier bailout
        # (a width-2 chain, where batching measures ~16x slower)
        from repro.programs import get_benchmark

        pts = get_benchmark("M1DWalk").pts
        report = pts.integrality()
        assert report.integral
        assert report.scale == (1,)
        auto = build_sparse_model(pts, max_states=3_000)
        assert auto.explored_via == "fraction"  # thin-frontier restart
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
        # ~18 states: auto stays scalar under the tiny-model heuristic,
        # but the forced scaled engine still admits the system
        model = build_sparse_model(pts, max_states=1_000)
        assert model.explored_via == "fraction"
        assert_models_bit_identical(pts, max_states=1_000, explore="scaled")

    def test_exact_guard_rows_are_admitted_on_a_fractional_lattice(self):
        from repro.core.runcert import emit_run_certificate, verify_run_certificate

        pts = compile_source(EXACT_ROW, name="exact-row", integer_mode=False).pts
        assert pts.integrality().scale == (2, 1)
        assert build_sparse_model(pts, max_states=2_000).explored_via == "scaled-int64"
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
