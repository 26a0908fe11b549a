"""Property-based end-to-end soundness: random programs, ordered bounds.

For randomly generated bounded walk programs we require the full ordering

    exp_low_syn  <=  exact vpf (value iteration)  <=  exp_lin_syn
                                                  <=  hoeffding  <=  azuma

wherever each synthesis succeeds.  This is the strongest invariant the
library offers and exercises every subsystem at once: parser, compiler,
invariant generation, canonicalization, DD, generator rows, LP, convex
solving and certificate verification.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.lang import compile_source
from repro.core import (
    azuma_baseline,
    exp_lin_syn,
    exp_low_syn,
    hoeffding_synthesis,
    value_iteration,
)


def make_walk_source(
    start: int, low_exit: int, high_fail: int, p_up_pct: int, step_up: int, step_down: int
) -> str:
    """A bounded 1D walk failing at the top, terminating at the bottom."""
    return f"""
x := {start}
while x >= {low_exit + 1} and x <= {high_fail - 1}:
    switch:
        prob(0.{p_up_pct:02d}): x := x + {step_up}
        prob(0.{100 - p_up_pct:02d}): x := x - {step_down}
assert x <= {low_exit}
"""


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    start=st.integers(min_value=3, max_value=12),
    width=st.integers(min_value=4, max_value=10),
    p_up_pct=st.integers(min_value=20, max_value=80),
    step_up=st.integers(min_value=1, max_value=2),
    step_down=st.integers(min_value=1, max_value=2),
)
def test_bound_ordering_random_walks(start, width, p_up_pct, step_up, step_down):
    high = start + width
    source = make_walk_source(start, 0, high, p_up_pct, step_up, step_down)
    pts = compile_source(source, name="randwalk").pts

    truth = value_iteration(pts, max_states=60_000)
    assert truth.width < 1e-6, "bounded walk must converge"
    vpf = 0.5 * (truth.lower + truth.upper)

    upper = exp_lin_syn(pts)
    assert upper.bound >= truth.lower - 1e-9

    try:
        hoeff = hoeffding_synthesis(pts)
        assert hoeff.log_bound >= upper.log_bound - 1e-6
        assert hoeff.bound >= truth.lower - 1e-9
    except SynthesisError:
        pass  # incomplete algorithm may fail; completeness not required

    try:
        azuma = azuma_baseline(pts)
        assert azuma.bound >= truth.lower - 1e-9
    except SynthesisError:
        pass

    # lower bounds need a.s. termination, which holds for any biased walk;
    # the symmetric case (p = 50) has no affine RSM, so allow failure there
    try:
        lower = exp_low_syn(pts)
        assert lower.bound <= truth.upper + 1e-7
        assert lower.log_bound <= upper.log_bound + 1e-9
    except SynthesisError:
        pass


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    p_fail_bp=st.integers(min_value=1, max_value=400),  # basis points
    length=st.integers(min_value=5, max_value=40),
)
def test_hardware_chain_lower_bound_is_exact(p_fail_bp, length):
    """For a pure failure chain the Jensen strengthening is lossless, so
    ExpLowSyn must return exactly (1-p)^length."""
    p = p_fail_bp / 10_000.0
    source = f"""
const p = {p_fail_bp}/10000
i := 0
while i <= {length - 1}:
    if prob(1 - p):
        i := i + 1
    else:
        exit
assert false
"""
    pts = compile_source(source, name="chain").pts
    cert = exp_low_syn(pts)
    expected = (1.0 - p) ** length
    assert cert.bound == pytest.approx(expected, rel=1e-6)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=3, max_value=25),
    k_pct=st.integers(min_value=55, max_value=95),
)
def test_binomial_tail_upper_bound_dominates_truth(n, k_pct):
    """Upper bounds on Pr[Binomial(n, 1/2) >= k] vs the exact tail."""
    k = max(1, (n * k_pct) // 100)
    source = f"""
i := 0
x := 0
while i <= {n - 1}:
    if prob(0.5):
        i, x := i + 1, x + 1
    else:
        i := i + 1
assert x <= {k}
"""
    pts = compile_source(source, name="binom").pts
    cert = exp_lin_syn(pts)
    from math import comb

    exact = sum(comb(n, j) for j in range(k + 1, n + 1)) / 2.0**n
    assert cert.bound >= exact - 1e-12
