"""Targeted tests for HoeffdingSynthesis internals (Section 5.1 / App. C.2)."""

import math
import re

import pytest

from repro.errors import UnboundedSupportError
from repro.lang import compile_source
from repro.core import azuma_baseline, hoeffding_synthesis
from repro.core.hoeffding import _support_box
from repro.programs import get_benchmark


class TestSupportBox:
    def test_bounded_supports(self):
        src = "r ~ uniform(-1, 2)\ns ~ bernoulli(0.5)\nx := 0\nx := x + r + s\nassert x <= 5"
        pts = compile_source(src, name="b").pts
        box = _support_box(pts)
        assert box.contains({"r": 0, "s": 1})
        assert not box.contains({"r": 3, "s": 0})

    def test_unbounded_support_rejected(self):
        src = "r ~ normal(0, 1)\nx := 0\nx := x + r\nassert x <= 5"
        pts = compile_source(src, name="n").pts
        with pytest.raises(UnboundedSupportError):
            hoeffding_synthesis(pts)


class TestTrivialPath:
    def test_trivial_certificate_when_no_reprsm_helps(self):
        # fair coin, fail with prob 1/2: no repulsing drift exists, so the
        # only sound RepRSM bound is the trivial 1
        src = "x := 0\nif prob(0.5):\n    x := 1\nassert x <= 0"
        pts = compile_source(src, name="coin").pts
        cert = hoeffding_synthesis(pts)
        assert cert.bound >= 0.5  # must stay above the true probability
        assert cert.reprsm is not None

    def test_zero_bound_for_unreachable_failure(self):
        src = "x := 5\nassert x >= 1"
        pts = compile_source(src, name="safe").pts
        cert = hoeffding_synthesis(pts)
        assert cert.bound == 0.0
        assert "unreachable" in cert.solver_info


class TestRemark2Ordering:
    @pytest.mark.parametrize(
        "name,kwargs",
        [("Race", dict(x0=40, y0=0)), ("1DWalk", dict(x0=10))],
    )
    def test_hoeffding_at_least_twice_azuma_exponent(self, name, kwargs):
        """Remark 2: with the same eta, the Hoeffding exponent doubles the
        Azuma one; with independently optimized eta the ordering persists."""
        inst = get_benchmark(name, **kwargs)
        hoeff = hoeffding_synthesis(inst.pts, inst.invariants)
        azuma = azuma_baseline(inst.pts, inst.invariants)
        assert hoeff.log_bound <= azuma.log_bound + 1e-9

    def test_azuma_uses_factor_four(self):
        inst = get_benchmark("Race", x0=40, y0=0)
        azuma = azuma_baseline(inst.pts, inst.invariants)
        data = azuma.reprsm
        eta_init = data.eta.exponent(
            inst.pts.init_location,
            {k: float(v) for k, v in inst.pts.init_valuation.items()},
        )
        assert azuma.log_bound == pytest.approx(
            min(4.0 * data.eps * eta_init, 0.0), rel=1e-6
        )

    def test_hoeffding_uses_factor_eight(self):
        inst = get_benchmark("Race", x0=40, y0=0)
        cert = hoeffding_synthesis(inst.pts, inst.invariants)
        data = cert.reprsm
        eta_init = data.eta.exponent(
            inst.pts.init_location,
            {k: float(v) for k, v in inst.pts.init_valuation.items()},
        )
        assert cert.log_bound == pytest.approx(
            min(8.0 * data.eps * eta_init, 0.0), rel=1e-6
        )


class TestSamplingVariablesInC4:
    def test_robot_with_noise_synthesizes(self):
        inst = get_benchmark("Robot", deviation="1.8")
        cert = hoeffding_synthesis(inst.pts, inst.invariants)
        # the paper's Section 5.1 column reports 1.66e-1; any sound
        # non-trivial-or-trivial bound is acceptable here, but it must
        # dominate the true probability (~2e-6 by simulation)
        assert cert.bound >= 1e-6


class TestExactSer:
    """Ser over omega*'s linear pieces, against the ternary search it
    replaced: 67 and 71 LPs, log10 bounds -6.083741867 and -525.7962072."""

    @pytest.mark.parametrize(
        "name,kwargs,ternary_log10",
        [
            ("Race", dict(x0=40, y0=0), -6.083741867),
            ("3DWalk", dict(x0=100, y0=150, z0=200), -525.7962072),
        ],
    )
    def test_few_lps_and_no_looser(self, name, kwargs, ternary_log10):
        inst = get_benchmark(name, **kwargs)
        cert = hoeffding_synthesis(inst.pts, inst.invariants)
        lps = int(re.search(r"Ser: (\d+) LPs", cert.solver_info).group(1))
        assert lps <= 8
        log10 = cert.log_bound / math.log(10)
        assert log10 <= ternary_log10 + 1e-9 * abs(ternary_log10)

    def test_probe_task_solves_one_eps(self):
        from repro.engine import AnalysisTask, ProgramSpec, execute_task

        spec = ProgramSpec.benchmark("Race", x0=40, y0=0)
        probe = execute_task(
            AnalysisTask.make("hoeffding_probe", spec, params={"eps": "0.0"})
        )
        # Race(40,0): omega*(0) = -20.5, and omega* rises with slope 60
        assert probe.ok
        assert probe.details["omega"] == pytest.approx(-20.5, rel=1e-9)
        assert probe.details["slope"] == pytest.approx(60.0, rel=1e-9)
        assert probe.details["assignment"]["_eps"] == 0.0
