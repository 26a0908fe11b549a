"""Ablation benches for the design choices called out in DESIGN.md.

* **Remark 2** — Hoeffding factor (8 eps / delta^2) vs Azuma factor
  (4 eps / delta^2) on the same RepRSM machinery;
* **completeness gap** — Section 5.2 vs Section 5.1 on the same instance;
* **Jensen tightness** — how close the Section 6 lower bound comes to the
  exact ``vpf`` from value iteration;
* **invariant quality** — synthesized bound with generated interval
  invariants vs trivial (universe) invariants;
* **substrate cost** — double description and the generator rows of one
  implication in isolation.
"""

import math

import pytest

pytestmark = pytest.mark.bench

from repro.core import (
    InvariantMap,
    azuma_baseline,
    exp_lin_syn,
    exp_low_syn,
    hoeffding_synthesis,
    value_iteration,
)
from repro.polyhedra import AffineIneq, Polyhedron, decompose
from repro.polyhedra.linexpr import var
from repro.programs import get_benchmark

LN10 = math.log(10.0)


def test_ablation_remark2_hoeffding_vs_azuma(benchmark):
    """The 8/4 factor alone roughly squares the bound (Remark 2)."""
    inst = get_benchmark("Race", x0=40, y0=0)

    def run():
        return (
            hoeffding_synthesis(inst.pts, inst.invariants),
            azuma_baseline(inst.pts, inst.invariants),
        )

    hoeff, azuma = benchmark.pedantic(run, rounds=1, iterations=1)
    assert hoeff.log_bound < azuma.log_bound
    # with the same eta, the bound exponent doubles; the synthesized eta
    # differs slightly, so require at least a 1.5x exponent gain
    assert hoeff.log_bound <= 1.5 * azuma.log_bound


def test_ablation_completeness_gap(benchmark):
    """Section 5.2's completeness buys ~3 extra orders of magnitude on Race."""
    inst = get_benchmark("Race", x0=40, y0=0)

    def run():
        return (
            exp_lin_syn(inst.pts, inst.invariants),
            hoeffding_synthesis(inst.pts, inst.invariants),
        )

    complete, incomplete = benchmark.pedantic(run, rounds=1, iterations=1)
    gap_orders = (incomplete.log_bound - complete.log_bound) / LN10
    # the paper's gap on Race is ~3 orders (9.08e-4 vs 1.52e-7); our
    # Hoeffding path is much stronger (fused PTS + per-transition C2), so
    # the residual completeness gap shrinks but never inverts
    assert gap_orders >= 0.3


def test_ablation_jensen_tightness(benchmark):
    """On M1DWalk the Jensen-relaxed lower bound nearly meets the truth."""
    inst = get_benchmark("M1DWalk", p="1e-4")

    def run():
        cert = exp_low_syn(inst.pts, inst.invariants)
        vi = value_iteration(inst.pts, max_states=3000)
        return cert, vi

    cert, vi = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cert.bound <= vi.upper + 1e-9
    # tightness: the lower bound captures almost all of the truth
    assert cert.bound >= vi.upper - 0.02


def test_ablation_invariant_quality(benchmark):
    """Universe invariants destroy the Prspeed bound; intervals recover it."""
    inst = get_benchmark("Prspeed", n=150)

    def run():
        good = exp_lin_syn(inst.pts, inst.invariants)
        trivial = exp_lin_syn(inst.pts, InvariantMap(inst.pts))
        return good, trivial

    good, trivial = benchmark.pedantic(run, rounds=1, iterations=1)
    assert good.log_bound < trivial.log_bound - 10.0


def test_substrate_double_description(benchmark):
    """DD on the kind of polyhedron every canonical constraint produces."""
    poly = Polyhedron.from_box({"x": (0, 50), "t": (1, 151)}).and_ineqs(
        [AffineIneq.le(var("x") + var("t"), 180)]
    )
    dec = benchmark(lambda: decompose(poly))
    assert dec.verify()
    assert dec.generators.is_polytope


def test_substrate_implication_rows(benchmark):
    """Generator rows of a C3-style implication block."""
    gens = Polyhedron.from_box({"x": (0, 100), "t": (0, 500)}).generators()

    def run():
        return gens.implication_rows({"x": var("ax"), "t": var("at")}, var("rhs"), label="bench")

    le, eq = benchmark(run)
    assert len(le) == len(gens.points) and not eq
