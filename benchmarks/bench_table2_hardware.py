"""Table 2, Hardware block (M1DWalk, Newton, Ref) — lower bounds.

The first automated lower bounds for assertion violation.  Assertions:

* every lower bound is a valid probability close to the paper's entry;
* larger failure rates give smaller survival lower bounds (monotonicity);
* the Ref rows reproduce the paper's digits (our reconstruction makes the
  analytic survival probability ``(1-p)^15380``, which the paper's numbers
  match exactly);
* the bound beats the [CMR13] previous result on Ref p=1e-7 (paper ratio
  3.33 in failure-probability terms).
"""

import math

import pytest

pytestmark = pytest.mark.bench

from repro.core import exp_low_syn
from repro.programs import get_benchmark

CASES = [
    ("M1DWalk", ["1e-7", "1e-5", "1e-4"]),
    ("Newton", ["5e-4", "1e-3", "1.5e-3"]),
    ("Ref", ["1e-7", "1e-6", "1e-5"]),
]


@pytest.mark.parametrize(
    "name,p", [(name, p) for name, ps in CASES for p in ps]
)
def test_hardware_lower_bound(benchmark, name, p, paper_table2):
    inst = get_benchmark(name, p=p)
    cert = benchmark(lambda: exp_low_syn(inst.pts, inst.invariants))
    assert 0.0 < cert.bound <= 1.0
    paper = paper_table2[(name, f"p={p}")]
    ours_log10 = cert.log_bound / math.log(10.0)
    # within an order of magnitude in failure probability
    assert ours_log10 == pytest.approx(paper.sec6_log10, abs=0.35)


@pytest.mark.parametrize("name,ps", CASES)
def test_hardware_monotone_in_failure_rate(benchmark, name, ps):
    def run():
        return [
            exp_low_syn(get_benchmark(name, p=p).pts, get_benchmark(name, p=p).invariants)
            for p in ps
        ]

    certs = benchmark.pedantic(run, rounds=1, iterations=1)
    bounds = [c.bound for c in certs]
    assert bounds[0] > bounds[1] > bounds[2]


def test_ref_reproduces_paper_digits(benchmark):
    inst = get_benchmark("Ref", p="1e-7")
    cert = benchmark(lambda: exp_low_syn(inst.pts, inst.invariants))
    assert cert.bound == pytest.approx(0.998463, abs=2e-6)


def test_ref_beats_cmr13_baseline():
    """Paper Table 2: [CMR13] reports 0.994885; ratio (1-prev)/(1-ours) = 3.33."""
    inst = get_benchmark("Ref", p="1e-7")
    cert = exp_low_syn(inst.pts, inst.invariants)
    prev = 0.994885
    ratio = (1.0 - prev) / (1.0 - cert.bound)
    assert ratio == pytest.approx(3.33, abs=0.15)


def test_m1dwalk_termination_is_proved(benchmark):
    inst = get_benchmark("M1DWalk", p="1e-5")
    cert = benchmark(lambda: exp_low_syn(inst.pts, inst.invariants))
    assert cert.termination_certificate is not None
    cert.verify()  # re-checks the termination RSM at every premise's generators
