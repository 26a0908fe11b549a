"""Tests for invariant maps and interval abstract interpretation."""

import math
import random
from fractions import Fraction

import pytest

import repro.core.invariants as invariants_module
import repro.programs.fuzzed  # noqa: F401  (registers the promoted fz-* programs)
from repro.core import exp_lin_syn, hoeffding_synthesis
from repro.core.fixpoint import build_sparse_model
from repro.core.invariants import (
    InvariantMap,
    _tighten_box_by_guard,
    generate_interval_invariants,
)
from repro.engine.task import ProgramSpec
from repro.errors import ModelError
from repro.fuzz import ALL_FAMILIES, corpus_plan
from repro.lang import compile_source
from repro.polyhedra import AffineIneq, LinExpr, Polyhedron, var
from repro.programs import BENCHMARKS, get_benchmark
from test_polyhedra import HIGHS_TOL, highs_is_empty, highs_maximize

RACE = """
x := 40
y := 0
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""

WALK = """
const p = 1e-4
x := 1
while x <= 99:
    switch:
        prob(p): exit
        prob(0.75 * (1 - p)): x := x + 1
        prob(0.25 * (1 - p)): x := x - 1
assert false
"""


class TestInvariantMap:
    def test_default_universe(self):
        pts = compile_source(RACE, name="race").pts
        inv = InvariantMap(pts)
        assert not inv.of(pts.init_location).inequalities

    def test_unknown_location_rejected(self):
        pts = compile_source(RACE, name="race").pts
        with pytest.raises(ModelError):
            InvariantMap(pts, {"nowhere": Polyhedron.universe(pts.program_vars)})

    def test_set_returns_copy(self):
        pts = compile_source(RACE, name="race").pts
        inv = InvariantMap(pts)
        inv2 = inv.set(pts.init_location, Polyhedron.from_box({"x": (0, 100)}))
        assert not inv.of(pts.init_location).inequalities
        assert inv2.of(pts.init_location).inequalities

    def test_merge_annotations_intersects(self):
        pts = compile_source(RACE, name="race").pts
        base = InvariantMap(pts, {pts.init_location: Polyhedron.from_box({"x": (40, None)})})
        merged = base.merged_with(
            {pts.init_location: Polyhedron.from_box({"x": (None, 100)})}
        )
        poly = merged.of(pts.init_location)
        assert poly.contains({"x": 50, "y": 0})
        assert not poly.contains({"x": 101, "y": 0})
        assert not poly.contains({"x": 39, "y": 0})

    def test_trajectory_check_passes_for_sound_invariant(self):
        pts = compile_source(RACE, name="race").pts
        inv = generate_interval_invariants(pts)
        assert inv.check_on_trajectories(episodes=60, seed=1) == []

    def test_trajectory_check_catches_unsound_invariant(self):
        pts = compile_source(RACE, name="race").pts
        bad = InvariantMap(pts, {pts.init_location: Polyhedron.from_box({"x": (None, 50)})})
        problems = bad.check_on_trajectories(episodes=60, seed=1)
        assert problems


class TestIntervalGeneration:
    def test_race_head_bounds(self):
        pts = compile_source(RACE, name="race").pts
        inv = generate_interval_invariants(pts)
        head = inv.of(pts.init_location)
        # reachable head states satisfy 40 <= x and 0 <= y
        assert head.contains({"x": 40, "y": 0})
        assert not head.contains({"x": 39, "y": 0})
        assert not head.contains({"x": 40, "y": -1})

    def test_walk_threshold_widening_keeps_guard_bound(self):
        pts = compile_source(WALK, name="walk").pts
        inv = generate_interval_invariants(pts)
        head = inv.of(pts.init_location)
        # widening must land on x <= 100 (one past the loop guard), not infinity
        assert head.implies(AffineIneq.le(var("x"), 100))

    def test_fail_location_invariant_exists(self):
        pts = compile_source(RACE, name="race").pts
        inv = generate_interval_invariants(pts)
        fail_inv = inv.of(pts.fail_location)
        assert not fail_inv.is_empty()
        # the hare only wins while the tortoise is still short of the line
        assert fail_inv.implies(AffineIneq.le(var("x"), 100))

    def test_invariants_sound_on_simulation(self):
        for src, name in [(RACE, "race"), (WALK, "walk")]:
            pts = compile_source(src, name=name).pts
            inv = generate_interval_invariants(pts)
            assert inv.check_on_trajectories(episodes=80, seed=5) == []

    def test_bounded_loop_gets_finite_box(self):
        src = "x := 0\nwhile x <= 9:\n  x := x + 1\nassert x <= 20"
        pts = compile_source(src, name="count").pts
        inv = generate_interval_invariants(pts)
        head = inv.of(pts.init_location)
        assert head.implies(AffineIneq.le(var("x"), 10))
        assert head.implies(AffineIneq.ge(var("x"), 0))


# ---------------------------------------------------------------------------
# box ∩ guard against the HiGHS oracle
# ---------------------------------------------------------------------------

BOX_VARS = ("a", "b", "c", "d")


def _random_fraction(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 5)))


def _random_box(rng):
    box = {}
    for v in BOX_VARS:
        lo = _random_fraction(rng, -6, 3) if rng.random() < 0.8 else None
        hi = None
        if rng.random() < 0.8:
            hi = (lo if lo is not None else Fraction(-3)) + _random_fraction(rng, 0, 9)
        box[v] = (lo, hi)
    return box


def _random_guard(rng, coupled):
    atoms = []
    for _ in range(rng.randint(0, 2)):  # single-variable atoms
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        atoms.append(AffineIneq(LinExpr({rng.choice(BOX_VARS): coeff}, _random_fraction(rng, -6, 6))))
    for _ in range(coupled):  # atoms over two or three variables
        names = rng.sample(BOX_VARS, rng.choice((2, 3)))
        coeffs = {v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in names}
        atoms.append(AffineIneq(LinExpr(coeffs, _random_fraction(rng, -6, 6))))
    return Polyhedron(BOX_VARS, atoms)


#: guards with two coupled atoms: a conjunction of two, and `x == y`
#: (compiled to `x - y <= 0` plus `-x + y <= 0` or `x - y + 1 <= 0`)
COUPLED_LOOP = """
x := 0
y := 0
while x + y <= 10 and x - y <= 3:
    if prob(0.5):
        x := x + 1
    else:
        y := y + 1
assert x <= 6
"""

EQUALITY_BRANCH = """
x := 0
y := 0
while x <= 5:
    if prob(0.5):
        x := x + 1
    else:
        y := y + 1
    if x == y:
        x := x + 2
assert x <= 7
"""


@pytest.fixture
def dd_calls(monkeypatch):
    """Records every call of the generator (double description) path."""
    calls = []
    original = invariants_module.polyhedron_generators

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(invariants_module, "polyhedron_generators", counting)
    return calls


class TestGuardTighteningAgainstLP:
    def test_exact_bounds_agree_with_highs(self, dd_calls):
        rng = random.Random(20240614)
        cases = 120
        for case in range(cases):
            box = _random_box(rng)
            guard = _random_guard(rng, coupled=(0, 1, 2, 2, 3, 3)[case % 6])
            got = _tighten_box_by_guard(box, guard)
            oracle = Polyhedron.from_box(box).intersect(guard)
            context = f"case {case}: box={box} guard={guard}"
            assert (got is None) == highs_is_empty(oracle), context
            if got is None:
                continue
            for v in BOX_VARS:
                lo, hi = got[v]
                for sign, bound in ((1, hi), (-1, lo)):
                    status, value = highs_maximize(oracle, LinExpr({v: sign}))
                    if status == "unbounded":
                        assert bound is None, (context, v, sign)
                    else:
                        assert status == "optimal" and bound is not None, (context, v, sign)
                        assert abs(sign * float(bound) - value) <= HIGHS_TOL, (context, v, sign)
        assert len(dd_calls) >= cases / 3

    @pytest.mark.parametrize("src", [COUPLED_LOOP, EQUALITY_BRANCH], ids=["conjunction", "equality"])
    def test_two_coupled_atoms_take_the_generator_path(self, dd_calls, src):
        pts = compile_source(src, name="coupled").pts
        inv = generate_interval_invariants(pts)
        assert dd_calls
        _assert_reachable_states_inside(pts, inv)


# ---------------------------------------------------------------------------
# every reachable state lies in its box, decided exactly
# ---------------------------------------------------------------------------


def _assert_reachable_states_inside(pts, inv):
    model = build_sparse_model(pts, max_states=5_000)
    outside = [
        (loc, values)
        for loc, values in model.index
        if not inv.of(loc).contains(dict(zip(pts.program_vars, values)))
    ]
    assert not outside, f"{len(outside)} reachable states outside the box, e.g. {outside[:3]}"


#: the ALL_FAMILIES draw plus the corpus-pool benchmark panel's draw (whose
#: fz-mixed-lattice-s2 and fz-random-s7 the integer snap once cut)
CORPUS = {
    p.name: p
    for families in (ALL_FAMILIES, ("birth-death", "inventory", "mixed-lattice", "random"))
    for p in corpus_plan(0, 10, families)
}


class TestExactReachableSoundness:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_registry_program(self, name):
        inst = get_benchmark(name)
        _assert_reachable_states_inside(inst.pts, inst.invariants)

    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_program(self, name):
        prog = CORPUS[name]
        spec = ProgramSpec.from_source(prog.source, name=prog.name, integer_mode=prog.integer_mode)
        _assert_reachable_states_inside(*spec.resolve())


def test_lattice_strain_bounds_cover_the_exact_violation_probability():
    # the integer snap once put x <= 1/999983 at l3_seq although t = 2
    # reaches x = 2/999983; Hoeffding then returned ln 0 and ExpLinSyn
    # e^-100000 against an exact violation probability of 0.3326
    inst = get_benchmark("fz-lattice-strain")
    floor = math.log(0.3326)
    assert hoeffding_synthesis(inst.pts, inst.invariants).log_bound >= floor
    assert exp_lin_syn(inst.pts, inst.invariants).log_bound >= floor
