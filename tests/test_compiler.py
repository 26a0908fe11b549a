"""Tests for the AST -> PTS compiler."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro

from repro.errors import CompileError
from repro.lang import ast, compile_source, split_cells
from repro.lang.compiler import bool_to_polyhedron
from repro.lang.parser import parse_program
from repro.pts import FAIL, TERM, simulate, validate_pts

RACE = """
x := 40
y := 0
while x <= 99 and y <= 99 invariant x <= 100 and y <= 101:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""

RDWALK = """
x := 0
t := 0
while x <= 99 invariant t >= 0:
    switch:
        prob(0.75): x, t := x + 1, t + 1
        prob(0.25): x, t := x - 1, t + 1
assert t <= 500
"""

UNRELIABLE = """
const p = 0.0001
x := 1
while x <= 99:
    switch:
        prob(p): exit
        prob(0.75 * (1 - p)): x := x + 1
        prob(0.25 * (1 - p)): x := x - 1
assert false
"""


class TestSplitCells:
    def test_atom(self):
        cond = parse_program("assert x <= 5").body[0].cond
        true_cells, false_cells = split_cells(cond, ("x",), True)
        assert len(true_cells) == 1 and len(false_cells) == 1
        assert true_cells[0].contains({"x": 5})
        assert false_cells[0].contains({"x": 6})
        assert not false_cells[0].contains({"x": 5})  # integer tightening

    def test_closed_complement_without_integer_mode(self):
        cond = parse_program("assert x <= 5").body[0].cond
        _, false_cells = split_cells(cond, ("x",), False)
        assert false_cells[0].contains({"x": 5})  # boundary overlap allowed

    def test_fractional_coefficients_never_tightened(self):
        cond = parse_program("assert x <= 0.5").body[0].cond
        _, false_cells = split_cells(cond, ("x",), True)
        assert false_cells[0].contains({"x": Fraction(1, 2)})

    def test_conjunction_cells_disjoint_and_cover(self):
        cond = parse_program("assert x <= 5 and y <= 5").body[0].cond
        true_cells, false_cells = split_cells(cond, ("x", "y"), True)
        assert len(true_cells) == 1
        assert len(false_cells) == 3
        for pt in [{"x": a, "y": b} for a in (0, 10) for b in (0, 10)]:
            hits = [c for c in true_cells + false_cells if c.contains(pt)]
            assert len(hits) == 1

    def test_disjunction(self):
        cond = parse_program("assert x <= 0 or y <= 0").body[0].cond
        true_cells, false_cells = split_cells(cond, ("x", "y"), True)
        assert len(false_cells) == 1
        # disjoint true cells
        assert all(
            not a.intersect(b).contains({"x": -5, "y": -5})
            for i, a in enumerate(true_cells)
            for b in true_cells[i + 1 :]
        ) or len(true_cells) >= 2

    def test_bool_consts(self):
        t, f = split_cells(ast.BoolConst(True), ("x",), True)
        assert len(t) == 1 and not f
        assert not t[0].inequalities
        t, f = split_cells(ast.BoolConst(False), ("x",), True)
        assert not t and len(f) == 1

    def test_empty_cells_pruned(self):
        cond = parse_program("assert x <= 0 and x >= 10").body[0].cond
        true_cells, false_cells = split_cells(cond, ("x",), True)
        assert not true_cells
        assert len(true_cells) + len(false_cells) <= 3

    def test_atom_blowup_guard(self):
        atoms = " and ".join(f"x{i} <= {i}" for i in range(13))
        cond = parse_program(f"assert {atoms}").body[0].cond
        with pytest.raises(CompileError):
            split_cells(cond, tuple(f"x{i}" for i in range(13)), True)


class TestBoolToPolyhedron:
    def test_conjunction(self):
        cond = parse_program("assert x <= 100 and y >= 0").body[0].cond
        poly = bool_to_polyhedron(cond, ("x", "y"), True)
        assert poly.contains({"x": 100, "y": 0})
        assert not poly.contains({"x": 101, "y": 0})

    def test_disjunction_rejected(self):
        cond = parse_program("assert x <= 0 or y <= 0").body[0].cond
        with pytest.raises(CompileError):
            bool_to_polyhedron(cond, ("x", "y"), True)

    def test_true_allowed(self):
        poly = bool_to_polyhedron(ast.BoolConst(True), ("x",), True)
        assert not poly.inequalities


class TestCompileRace:
    def test_structure(self):
        result = compile_source(RACE, name="race")
        pts = result.pts
        # initial folding put (40, 0) into v_init at the loop head
        assert pts.init_valuation == {"x": 40, "y": 0}
        assert pts.init_location in result.invariants
        # the clean-up passes fuse the loop into at most the paper's three
        # Figure-1 locations (head, switch, assert); with fork flattening
        # the whole loop collapses into a single location
        assert 1 <= len(pts.interior_locations) <= 3
        head = pts.init_location
        loop = [t for t in pts.transitions_from(head) if len(t.forks) == 2]
        assert loop, "loop transition with two probabilistic forks expected"
        dests = {f.destination for f in loop[0].forks}
        assert dests == {head}

    def test_validates(self):
        result = compile_source(RACE, name="race")
        assert validate_pts(result.pts).ok

    def test_simulation_terminates(self):
        result = compile_source(RACE, name="race")
        r = simulate(result.pts, episodes=3000, seed=0)
        assert r.censored == 0
        assert r.termination_rate > 0.999  # hare winning is ~1.5e-7

    def test_guard_complement_is_integer_tightened(self):
        pts = compile_source(RACE).pts
        head = pts.init_location
        guards = [t.guard for t in pts.transitions_from(head)]
        # some guard requires x >= 100 (i.e. -x + 100 <= 0)
        assert any(
            any(i.expr.coeff("x") == -1 and i.expr.const == 100 for i in g.inequalities)
            for g in guards
        )


class TestCompileRdwalk:
    def test_simulation_matches_theory(self):
        pts = compile_source(RDWALK, name="rdwalk").pts
        r = simulate(pts, episodes=4000, seed=1)
        # drift +1/2 per step: ~200 loop iterations, T > 500 vanishingly rare
        assert r.violation_rate < 0.01
        assert r.termination_rate > 0.99

    def test_invariant_attached_to_head(self):
        result = compile_source(RDWALK, name="rdwalk")
        assert len(result.invariants) == 1

    def test_switch_forks(self):
        pts = compile_source(RDWALK, name="rdwalk").pts
        probs = sorted(
            f.probability for t in pts.transitions for f in t.forks if len(t.forks) == 2
        )
        assert probs == [Fraction(1, 4), Fraction(3, 4)]


class TestCompileUnreliable:
    def test_exit_goes_to_term(self):
        pts = compile_source(UNRELIABLE, name="unreliable").pts
        # the exit arm must lead (possibly through elision) to __term__
        dests = {
            f.destination for t in pts.transitions for f in t.forks
        }
        assert TERM in dests and FAIL in dests

    def test_assert_false_reached_on_loop_exit(self):
        pts = compile_source(UNRELIABLE, name="unreliable").pts
        r = simulate(pts, episodes=2000, seed=3)
        # with p = 1e-4 most runs finish the walk and then hit assert false
        assert r.violation_rate > 0.9

    def test_const_probabilities_folded(self):
        pts = compile_source(UNRELIABLE).pts
        three_fork = [t for t in pts.transitions if len(t.forks) == 3]
        assert three_fork
        total = sum(f.probability for f in three_fork[0].forks)
        assert total == 1


class TestCompileMisc:
    def test_assert_inside_loop(self):
        src = (
            "x := 0\n"
            "while x >= 0:\n"
            "  assert x <= 10\n"
            "  switch:\n"
            "    prob(0.5): x := x - 2\n"
            "    prob(0.5): x := x + 1\n"
        )
        pts = compile_source(src, name="walk").pts
        r = simulate(pts, episodes=2000, max_steps=4000, seed=7)
        assert r.violation_rate > 0.0
        assert r.violation_rate + r.termination_rate == pytest.approx(1.0)

    def test_no_variables_rejected(self):
        with pytest.raises(CompileError):
            compile_source("skip")

    def test_sampling_in_updates(self):
        src = "r ~ bernoulli(0.5)\nx := 0\nn := 0\nwhile n <= 9:\n  x, n := x + r, n + 1\nassert x <= 8"
        pts = compile_source(src, name="acc").pts
        assert pts.sampling_vars == ("r",)
        r = simulate(pts, episodes=4000, seed=5)
        # Pr[Binomial(10, 1/2) >= 9] = 11/1024
        assert r.violation_rate == pytest.approx(11 / 1024, abs=0.01)

    def test_undeclared_name_rejected(self):
        with pytest.raises(CompileError):
            compile_source("x := zz + 1")

    def test_nested_prob_branches(self):
        src = (
            "x := 0\n"
            "if prob(0.5):\n"
            "  if prob(0.5):\n"
            "    x := 1\n"
            "assert x <= 0"
        )
        pts = compile_source(src).pts
        r = simulate(pts, episodes=8000, seed=2)
        assert r.violation_rate == pytest.approx(0.25, abs=0.03)

    def test_deterministic_if_else(self):
        src = (
            "x := 5\ny := 0\n"
            "if x <= 3:\n"
            "  y := 1\n"
            "else:\n"
            "  y := 2\n"
            "assert y <= 1"
        )
        pts = compile_source(src).pts
        r = simulate(pts, episodes=100, seed=0)
        assert r.violation_rate == 1.0

    def test_elision_fuses_updates_onto_forks(self):
        # branch bodies with a single assignment must land on the fork itself
        pts = compile_source(RACE).pts
        switch = [t for t in pts.transitions if len(t.forks) == 2][0]
        updates = [f.update.assignments for f in switch.forks]
        assert any("y" in u for u in updates)

    def test_initial_folding_chain(self):
        src = "x := 1\ny := x + 1\nz := y + x\nassert z >= 3"
        pts = compile_source(src).pts
        assert pts.init_valuation == {"x": 1, "y": 2, "z": 3}

    def test_sampling_updates_not_fused_across_draws(self):
        # two consecutive draws of r must stay distinct PTS steps
        src = (
            "r ~ bernoulli(0.5)\n"
            "x := 0\n"
            "y := 0\n"
            "x := x + r\n"
            "y := y + r\n"
            "assert x + y <= 1"
        )
        pts = compile_source(src).pts
        r = simulate(pts, episodes=8000, seed=9)
        # if the draws were fused, x + y would be 0 or 2 with prob 1/2 each
        # (violation rate 1/2); independent draws violate with prob 1/4
        assert r.violation_rate == pytest.approx(0.25, abs=0.03)

    def test_integer_mode_off(self):
        src = "x := 0\nwhile x <= 0.5:\n  x := x + 0.25\nassert x >= 0.75"
        pts = compile_source(src, integer_mode=False).pts
        r = simulate(pts, episodes=10, seed=0)
        assert r.violation_rate == 0.0

    def test_composed_update_order_does_not_depend_on_hash_seed(self):
        # the Robot loop's forks are composed updates over i, x and ex; their
        # assignment order must be the same in every interpreter
        code = (
            "from repro.programs import get_benchmark\n"
            "pts = get_benchmark('Robot').pts\n"
            "print([list(f.update.assignments) for t in pts.transitions for f in t.forks])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        printed = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            printed.add(run.stdout.strip())
        assert len(printed) == 1, printed
        assert "['i', 'x', 'ex']" in printed.pop()
