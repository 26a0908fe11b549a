"""Micro-benchmarks for the substrates the synthesis algorithms lean on.

These are the pieces the paper delegated to PPL/CVX; their costs dominate
the per-row runtimes of Table 1, so we track them separately.
"""

import random

import pytest

pytestmark = pytest.mark.bench

from repro.lang import compile_source, parse_program
from repro.numeric.lp import LinearProgram
from repro.polyhedra import Polyhedron, polyhedron_generators
from repro.polyhedra.linexpr import LinExpr
from repro.core import generate_interval_invariants, value_iteration

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


def test_bench_parser(benchmark):
    program = benchmark(lambda: parse_program(RACE))
    assert program.variables() == ("x", "y")


def test_bench_compiler(benchmark):
    result = benchmark(lambda: compile_source(RACE, name="race"))
    assert len(result.pts.interior_locations) >= 1


def test_bench_dd_hypercube(benchmark):
    """DD on a 4-cube: 16 vertices from 8 halfspaces."""
    poly = Polyhedron.from_box({f"v{i}": (0, 1) for i in range(4)})
    gens = benchmark(lambda: polyhedron_generators(poly))
    assert len(gens.points) == 16


def test_bench_dd_unbounded(benchmark):
    """DD with rays and a line (the Prop. 1 decomposition shape)."""
    poly = Polyhedron.from_box({"x": (None, 99), "y": (None, 99)}).with_variables(
        ["x", "y", "z"]
    )
    gens = benchmark(lambda: polyhedron_generators(poly))
    assert gens.lines and gens.rays


def test_bench_lp_medium(benchmark):
    """A synthesis-sized LP (120 vars, 160 rows)."""
    rng = random.Random(1)

    def build_and_solve():
        lp = LinearProgram()
        for i in range(120):
            lp.add_variable(f"u{i}", lower=0.0)
        for j in range(160):
            expr = LinExpr(
                {f"u{rng.randrange(120)}": rng.randint(1, 5) for _ in range(6)},
                -rng.randint(1, 50),
            )
            lp.add_le(-expr)  # sum >= const
        return lp.solve(minimize=LinExpr({f"u{i}": 1 for i in range(120)}))

    values = benchmark(build_and_solve)
    assert values


def test_bench_interval_invariants(benchmark):
    pts = compile_source(RACE, name="race").pts
    inv = benchmark(lambda: generate_interval_invariants(pts))
    assert inv.of(pts.init_location).inequalities


def test_bench_value_iteration_race(benchmark):
    pts = compile_source(RACE, name="race").pts
    result = benchmark(lambda: value_iteration(pts))
    assert result.tight
