"""Tests for the numeric layer: LP front-end, convex solver, Ser search."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from repro.errors import InfeasibleError, SolverError
from repro.numeric import lp as lp_module
from repro.numeric.convex import ConvexProgram
from repro.numeric.lp import LinearProgram, solve_lp
from repro.numeric import ser
from repro.numeric.ser import sandwich_search
from repro.polyhedra.linexpr import LinExpr, var
from repro.pts.distributions import NormalDistribution, UniformDistribution


class TestSolveLP:
    def test_optimal(self):
        # min x s.t. x >= 3
        res = solve_lp([1.0], [[-1.0]], [-3.0])
        assert res.ok and res.objective == pytest.approx(3.0)

    def test_infeasible(self):
        res = solve_lp([1.0], [[1.0], [-1.0]], [0.0, -1.0])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([1.0], [[1.0]], [5.0])
        assert res.status == "unbounded"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unbounded_thin_slab_is_not_infeasible(self, sign):
        # HiGHS's presolve calls min x0 over 5 - 1/999983 <= 3x0 - x1 - 2x2 <= 5
        # infeasible although x0 is unbounded on it both ways; the
        # zero-objective LP over the same rows finds it feasible
        lower = float(Fraction(5) - Fraction(1, 999983))
        res = solve_lp([sign, 0.0, 0.0], [[3.0, -1.0, -2.0], [-3.0, 1.0, 2.0]], [5.0, -lower])
        assert res.status == "unbounded"

    def test_no_columns(self):
        # every row is a constant: feasible iff each holds
        assert solve_lp([], [[]], [0.0], [[]], [0.0]).ok
        assert solve_lp([], [[]], [-1.0]).status == "infeasible"
        assert solve_lp([], a_eq=[[]], b_eq=[1.0]).status == "infeasible"

    def test_equality(self):
        # min y s.t. x + y = 4, 1 <= x <= 3  =>  y = 1 at x = 3
        res = solve_lp(
            [0.0, 1.0],
            a_ub=[[-1.0, 0.0], [1.0, 0.0]],
            b_ub=[-1.0, 3.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[4.0],
        )
        assert res.ok
        assert res.objective == pytest.approx(1.0)


def test_importing_the_lp_free_layers_leaves_scipy_optimize_out():
    """``scipy.optimize`` costs about half a second of start-up; commands
    that solve no LP (``repro exact``, ``verify-certificate``,
    ``simulate``) must not import it."""
    code = (
        "import sys\n"
        "import repro.core.fixpoint, repro.core.runcert, repro.lang\n"
        "assert 'repro.numeric.lp' in sys.modules\n"
        "sys.exit(int('scipy.optimize' in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "scipy.optimize was imported"


#: scipy's linprog status codes in repro's names
SCIPY_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded", 4: "numerical"}


def _seeded_lp(seed):
    """A small random LP in linprog's arguments: <= and = rows with zeros
    among small integer coefficients; free, one-sided, boxed and pinned
    columns, now and then one with lower > upper; dense-list or CSR rows,
    or no rows at all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m_ub, m_eq = (0, 0) if seed % 7 == 0 else (int(rng.integers(0, 6)), int(rng.integers(0, 3)))
    c = rng.integers(-3, 4, n).astype(float)
    a_ub = rng.integers(-3, 4, (m_ub, n)) * (rng.random((m_ub, n)) < 0.7)
    a_eq = rng.integers(-3, 4, (m_eq, n)) * (rng.random((m_eq, n)) < 0.7)
    # right-hand sides around a point x0, so that about half are feasible
    x0 = rng.integers(-3, 4, n)
    b_ub = (a_ub @ x0 + rng.integers(-1, 4, m_ub)).astype(float)
    b_eq = (a_eq @ x0 + (rng.random(m_eq) < 0.2)).astype(float)
    bounds = []
    for _ in range(n):
        lo, hi = sorted(float(v) for v in rng.integers(-5, 6, 2))
        # free, one-sided, boxed, pinned, and lower > upper unless hi == lo
        choices = [(None, None), (lo, None), (None, hi), (lo, hi), (lo, lo), (hi, lo + 0.5)]
        bounds.append(choices[rng.choice(6, p=[0.2, 0.2, 0.2, 0.2, 0.15, 0.05])])

    def form(a):
        return csr_matrix(a.astype(float)) if seed % 2 else a.astype(float).tolist()

    return c, dict(
        A_ub=form(a_ub) if m_ub else None,
        b_ub=b_ub if m_ub else None,
        A_eq=form(a_eq) if m_eq else None,
        b_eq=b_eq if m_eq else None,
        bounds=bounds,
    )


class TestHighsCalls:
    """``repro.numeric.lp.linprog`` is scipy's ``linprog`` solve for solve."""

    THIN_SLAB = (
        [1.0, 0.0, 0.0],
        dict(
            A_ub=[[3.0, -1.0, -2.0], [-3.0, 1.0, 2.0]],
            b_ub=[5.0, -float(Fraction(5) - Fraction(1, 999983))],
            bounds=[(None, None)] * 3,
        ),
    )

    def test_twin_of_scipy_linprog(self):
        from scipy.optimize import linprog as scipy_linprog

        cases = [_seeded_lp(seed) for seed in range(240)] + [self.THIN_SLAB]
        seen = set()
        for c, kwargs in cases:
            for method in ("highs", "highs-ds"):
                want = scipy_linprog(c, method=method, **kwargs)
                got = lp_module.linprog(c, method=method, **kwargs)
                assert got.status == SCIPY_STATUS[want.status], (c, kwargs)
                assert got.nit == want.nit
                seen.add(got.status)
                if got.status != "optimal":
                    continue
                assert got.x.tobytes() == want.x.tobytes()
                assert float(got.fun).hex() == float(want.fun).hex()
                res = solve_lp(c, *(kwargs[k] for k in ("A_ub", "b_ub", "A_eq", "b_eq", "bounds")))
                assert res.x.tobytes() == want.x.tobytes()
                for j in range(len(c)):
                    marginal = want.lower.marginals[j] + want.upper.marginals[j]
                    assert float(res.column_marginal(j)).hex() == float(marginal).hex()
        assert seen == {"optimal", "infeasible", "unbounded"}

    def test_status_map_is_scipys(self):
        from scipy.optimize._highspy._core import HighsModelStatus
        from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

        for member in HighsModelStatus.__members__.values():
            code, _ = _highs_to_scipy_status_message(member, "")
            assert lp_module._model_status(member) == SCIPY_STATUS[code], member

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", [1.0, math.nan]),
            ("c", [math.inf, 1.0]),
            ("A_ub", [[1.0, math.inf]]),
            ("A_ub", "csr-nan"),
            ("b_ub", [math.nan]),
            ("A_eq", [[math.nan, 1.0]]),
            ("b_eq", [-math.inf]),
        ],
    )
    def test_non_finite_input_raises_like_linprog(self, field, value):
        from scipy.optimize import linprog as scipy_linprog

        args = dict(
            c=[1.0, 1.0],
            A_ub=[[1.0, 1.0]],
            b_ub=[1.0],
            A_eq=[[1.0, -1.0]],
            b_eq=[0.0],
            bounds=[(0, None)] * 2,
        )
        args[field] = csr_matrix([[1.0, math.nan]]) if value == "csr-nan" else value
        with pytest.raises(ValueError):
            scipy_linprog(method="highs", **args)
        with pytest.raises(ValueError):
            lp_module.linprog(method="highs", **args)

    def test_missing_highspy_names_the_scipy_floor(self, monkeypatch):
        import scipy.optimize._highspy as highspy

        lp_module._highs.cache_clear()
        monkeypatch.delattr(highspy, "_core")
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        try:
            with pytest.raises(ImportError, match=f"scipy>={lp_module.SCIPY_FLOOR}"):
                lp_module.linprog([1.0], bounds=[(0, 1)])
        finally:
            lp_module._highs.cache_clear()

    @pytest.mark.parametrize("failure", ["numerical", "iteration-limit"])
    def test_failed_solve_is_retried_once_on_the_simplex(self, monkeypatch, failure):
        real = lp_module.linprog
        methods = []

        def fail_first(c, **kwargs):
            methods.append(kwargs["method"])
            if len(methods) == 1:
                return lp_module.HighsResult(failure, "forced", 0)
            return real(c, **kwargs)

        monkeypatch.setattr(lp_module, "linprog", fail_first)
        res = solve_lp([1.0], [[-1.0]], [-3.0])
        assert res.ok and res.objective == 3.0
        # perfbench counts a call with method="highs-ds" as lp.retries
        assert methods == ["highs", "highs-ds"]

    def test_second_failure_raises(self, monkeypatch):
        methods = []

        def always_fail(c, **kwargs):
            methods.append(kwargs["method"])
            return lp_module.HighsResult("numerical", "forced", 0)

        monkeypatch.setattr(lp_module, "linprog", always_fail)
        with pytest.raises(SolverError, match="forced"):
            solve_lp([1.0], [[-1.0]], [-3.0])
        assert methods == ["highs", "highs-ds"]

    def test_linear_program_reaches_highs_only_through_linprog(self, monkeypatch):
        # perfbench --trace 1 wraps repro.numeric.lp.linprog by name and reads
        # its A_ub/A_eq keywords to count lp.calls, lp.rows and lp.nnz
        core = lp_module._highs()
        real_linprog, real_highs = lp_module.linprog, core._Highs
        calls = []
        inside = []

        def linprog(c, *args, **kwargs):
            assert not args
            calls.append(kwargs)
            inside.append(True)
            try:
                return real_linprog(c, **kwargs)
            finally:
                inside.pop()

        def highs():
            assert inside, "HiGHS reached outside repro.numeric.lp.linprog"
            return real_highs()

        monkeypatch.setattr(lp_module, "linprog", linprog)
        monkeypatch.setattr(core, "_Highs", highs)
        lp = LinearProgram()
        lp.add_le(2 * var("e") - 3 - var("w"))
        lp.add_eq(var("w") + var("v"))
        assert lp.optimize(var("w"), fix=("e", 0.5)).ok
        lp.add_le(var("w") + 10)
        lp.add_le(-var("w") + 10)
        assert lp.optimize(var("w")).status == "infeasible"
        assert len(calls) == 3  # the infeasible one is confirmed by a second solve
        for kwargs in calls:
            assert kwargs["A_ub"].nnz and kwargs["A_eq"].nnz
            assert kwargs["method"] == "highs"


class TestLinearProgram:
    def test_named_interface(self):
        lp = LinearProgram()
        lp.add_le(var("x") * -1 + 2)  # x >= 2
        values = lp.solve(minimize=var("x"))
        assert values["x"] == pytest.approx(2.0)

    def test_bounds_merge(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=0.0)
        lp.add_variable("x", lower=1.0, upper=5.0)
        values = lp.solve(minimize=var("x"))
        assert values["x"] == pytest.approx(1.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        lp.add_le(var("x") - 1)
        lp.add_le(-var("x") + 2)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram()
        lp.add_le(var("x") - 10)
        with pytest.raises(SolverError):
            lp.solve(minimize=var("x"))

    def test_check_assignment(self):
        lp = LinearProgram()
        lp.add_le(var("x") - 1)
        lp.add_eq(var("y") - 2)
        assert lp.check_assignment({"x": 0.5, "y": 2.0})
        assert not lp.check_assignment({"x": 1.5, "y": 2.0})
        assert not lp.check_assignment({"x": 0.5, "y": 2.5})

    def test_feasible(self):
        lp = LinearProgram()
        lp.add_le(var("x") - 1)
        assert lp.feasible()

    def test_pinned_column_reports_the_slope(self):
        # min w s.t. w >= 2e - 3, w >= 5e - 6: w*(e) has slopes 2 then 5,
        # with its kink at e = 1
        lp = LinearProgram()
        lp.add_le(2 * var("e") - 3 - var("w"))
        lp.add_le(5 * var("e") - 6 - var("w"))
        for e, w, slope in ((0.5, -2.0, 2.0), (1.2, 0.0, 5.0)):
            result = lp.optimize(var("w"), fix=("e", e))
            assert result.objective == pytest.approx(w)
            assert result.column_marginal(lp.column("e")) == pytest.approx(slope)
            assert lp.assignment(result.x)["e"] == e

    def test_system_assembled_once_until_it_changes(self):
        lp = LinearProgram()
        lp.add_le(var("x") * -1 + 2)
        system = lp._system()
        lp.optimize(var("x"), fix=("x", 3.0))
        lp.optimize(-var("x"), fix=("x", 4.0))
        assert lp._system() is system
        lp.add_le(var("x") - 10)
        assert lp._system() is not system
        assert lp.solve(minimize=-var("x"))["x"] == pytest.approx(10.0)


class TestConvexProgram:
    def test_scalar_lse_constraint(self):
        # minimize t s.t. log(exp(t)) <= 0  =>  t <= 0
        prog = ConvexProgram()
        prog.add_lse([(1.0, var("t"), [])])
        prog.set_objective(var("t"))
        sol = prog.solve()
        assert sol.feasible
        # objective floor stops the descent; any t <= 0 is optimal-feasible
        assert sol.assignment["t"] <= 1e-9

    def test_two_term_balance(self):
        # max a s.t. 0.5 e^{a+1} + 0.5 e^{a} <= 1: optimum a = -log(.5(e+1))
        prog = ConvexProgram()
        prog.add_lse([(0.5, var("a") + 1, []), (0.5, var("a"), [])])
        prog.set_objective(-var("a"))
        sol = prog.solve()
        expected = -math.log(0.5 * (math.e + 1.0))
        assert sol.assignment["a"] == pytest.approx(expected, abs=1e-5)

    def test_linear_constraints_respected(self):
        prog = ConvexProgram()
        prog.add_lse([(1.0, var("a"), [])])
        prog.add_linear_le(-var("a") - 0.25)  # a >= -0.25
        prog.set_objective(var("a"))
        sol = prog.solve()
        assert sol.objective == pytest.approx(-0.25, abs=1e-6)

    def test_linear_eq_respected(self):
        prog = ConvexProgram()
        prog.add_lse([(1.0, var("a") + var("b"), [])])
        prog.add_linear_eq(var("b") - 1)
        prog.set_objective(var("a"))
        sol = prog.solve()
        assert sol.assignment["b"] == pytest.approx(1.0, abs=1e-6)
        assert sol.objective <= -1.0 + 1e-6

    def test_smooth_uniform_mgf_term(self):
        # max a s.t. e^{2a} E[e^{a r}] <= 1 with r ~ U[-6, 0] (mean -3):
        # feasible for small a > 0, binding at a nontrivial a*
        prog = ConvexProgram()
        dist = UniformDistribution(-6, 0)
        prog.add_lse([(1.0, var("a") * 2, [(dist, var("a"))])])
        prog.set_objective(-var("a"))
        sol = prog.solve()
        a = sol.assignment["a"]
        assert a > 0.1  # strictly positive optimum
        direct = 2 * a + dist.log_mgf(a)
        assert direct <= 1e-6  # still feasible
        assert 2 * (a + 0.05) + dist.log_mgf(a + 0.05) > 0  # and near-binding

    def test_equality_as_two_opposite_rows(self):
        # a = b arrives as a - b <= 0 and b - a <= 0 (plus a duplicate), the
        # shape of two transitions' D1 rays r and -r: no point satisfies
        # them strictly, so the presolve must merge them into an equality.
        # max a s.t. 0.5 e^{a+b} + 0.5 e^{-1} <= 1  =>  a = log(2 - 1/e) / 2
        prog = ConvexProgram()
        prog.add_linear_le(var("a") - var("b"))
        prog.add_linear_le(var("b") - var("a"))
        prog.add_linear_le(var("b") - var("a"))
        prog.add_lse([(0.5, var("a") + var("b"), []), (0.5, LinExpr.constant(-1), [])])
        prog.set_objective(-var("a"))
        sol = prog.solve()
        assert sol.method == "barrier"
        assert sol.assignment["a"] == sol.assignment["b"]
        assert sol.assignment["a"] == pytest.approx(0.5 * math.log(2 - math.exp(-1)), abs=1e-8)

    def test_smooth_normal_mgf_term(self):
        # max a s.t. log E[e^{a r}] = -a + a^2/2 <= 0 for r ~ N(-1, 1): a = 2
        prog = ConvexProgram()
        prog.add_lse([(1.0, LinExpr.constant(0), [(NormalDistribution(-1, 1), var("a"))])])
        prog.set_objective(-var("a"))
        sol = prog.solve()
        assert sol.method == "barrier"
        assert sol.assignment["a"] == pytest.approx(2.0, abs=1e-8)

    def test_box_scales_with_fine_lattice_steps(self):
        # the fz-mixed-lattice shape: exponents move a by 3e-6 and -1e-6,
        # so the optimum a = 1e6 ln(999/3)/4 = 1.45e6 lies past a plain
        # |a| <= 1e6 box; the box bounds a's contribution, 3e-6 |a|, instead
        prog = ConvexProgram()
        prog.add_lse(
            [(0.001, var("b") + var("a") * 3e-6, []), (0.999, var("b") - var("a") * 1e-6, [])]
        )
        prog.set_objective(-var("b"))
        sol = prog.solve()
        u = math.log(999 / 3) / 4
        assert sol.assignment["a"] == pytest.approx(1e6 * u, rel=1e-3)
        best = -math.log(0.001 * math.exp(3 * u) + 0.999 * math.exp(-u))
        assert -sol.objective == pytest.approx(best, abs=1e-8)

    def test_no_strictly_feasible_point_returns_zero(self):
        # cosh(a) <= 1 holds only at a = 0: the barrier finds no interior,
        # so solve returns the all-zero point (bound 1 in ExpLinSyn)
        prog = ConvexProgram()
        prog.add_lse([(0.5, var("a"), []), (0.5, -var("a"), [])])
        prog.set_objective(-var("a"))
        sol = prog.solve()
        assert sol.method == "zero-fallback"
        assert sol.assignment == {"a": 0.0} and sol.feasible

    def test_max_violation_reports_worst(self):
        prog = ConvexProgram()
        prog.add_lse([(1.0, var("a"), [])])
        prog.add_linear_le(var("a") - 1)
        assert prog.max_violation({"a": 2.0}) == pytest.approx(2.0)
        assert prog.max_violation({"a": -1.0}) == 0.0

    def test_nonpositive_weight_rejected(self):
        prog = ConvexProgram()
        prog.add_lse([(0.0, var("a"), [])])
        prog.set_objective(var("a"))
        with pytest.raises(SolverError):
            prog.solve()

    def test_trivial_program(self):
        prog = ConvexProgram()
        sol = prog.solve()
        assert sol.feasible and sol.objective == 0.0


def linear_oracle(w0, slope, end=math.inf, slope_at=None):
    """Oracle of ``omega(eps) = w0 + slope * eps``, infeasible past ``end``;
    ``slope_at`` overrides the reported subgradient at chosen points."""
    overrides = slope_at or {}

    def oracle(eps):
        if eps > end:
            return None
        return w0 + slope * eps, overrides.get(eps, slope), eps

    return oracle


def piecewise_oracle(knots, slopes, w_end, pick, counter):
    """Oracle of the convex, nondecreasing piecewise-linear ``omega`` with
    breakpoints ``knots`` (domain ends included), piece ``slopes`` and
    ``omega(knots[-1]) = w_end``.  At an interior kink it reports the
    left, right or a middle subgradient, as ``pick`` says."""
    values = [w_end]
    for i in reversed(range(len(slopes))):
        values.insert(0, values[0] - slopes[i] * (knots[i + 1] - knots[i]))

    def oracle(eps):
        counter.append(eps)
        i = max(j for j in range(len(slopes)) if knots[j] <= eps)
        if 0 < i and eps == knots[i]:
            left, right = slopes[i - 1], slopes[i]
            slope = {"left": left, "right": right, "middle": 0.5 * (left + right)}[pick]
            return values[i], slope, eps
        return values[i] + slopes[i] * (eps - knots[i]), slopes[i], eps

    return oracle, values


class TestTernarySearch:
    """Ser's exact search (``sandwich_search``, also bound as
    ``ternary_search``, the name the perfbench tracer wraps) on oracles of
    known shape; ``multiplier * eps * omega(eps)`` is minimized."""

    def test_quadratic_minimum(self):
        # omega = -6 + eps: the objective eps^2 - 6 eps has its vertex at 3
        result = sandwich_search(linear_oracle(-6.0, 1.0), 0.0, 10.0)
        assert result.eps == pytest.approx(3.0, rel=1e-12)
        assert result.value == pytest.approx(-9.0, rel=1e-12)
        assert result.evaluations == 3  # both ends, then the vertex
        assert result.payload == result.eps

    def test_keeps_best_on_infeasible_tail(self):
        # omega is constant, so the optimum lands at eps_max = 5, past which
        # the oracle is infeasible; the search bisects back to it from 10
        result = sandwich_search(linear_oracle(-1.0, 0.0, end=5.0), 0.0, 10.0, 8.0)
        assert result.found
        assert result.eps == pytest.approx(5.0, rel=1e-8)
        assert result.value == pytest.approx(-40.0, rel=1e-8)

    def test_all_infeasible(self):
        result = sandwich_search(lambda eps: None, 0.0, 1.0)
        assert not result.found and result.payload is None
        assert result.evaluations == 1

    def test_boundary_minimum(self):
        # omega = -4 + 2 eps on [1, 2]: the vertex of 2 eps^2 - 4 eps is at 1
        result = sandwich_search(linear_oracle(-4.0, 2.0), 1.0, 2.0)
        assert result.eps == 1.0
        assert result.evaluations == 2

    @settings(max_examples=20, deadline=None)
    @given(center=st.floats(min_value=0.5, max_value=9.5))
    def test_unimodal_random_center(self, center):
        result = sandwich_search(linear_oracle(-2.0 * center, 1.0), 0.0, 10.0)
        assert result.eps == pytest.approx(center, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        pieces=st.integers(min_value=1, max_value=4),
        eps_max=st.floats(min_value=1e-3, max_value=1e4),
        w_end=st.floats(min_value=-1e3, max_value=0.0),
        first_slope=st.floats(min_value=0.0, max_value=10.0),
        pick=st.sampled_from(["left", "right", "middle"]),
    )
    def test_exact_on_random_piecewise_linear_omega(
        self, data, pieces, eps_max, w_end, first_slope, pick
    ):
        cuts = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=0.99),
                min_size=pieces - 1,
                max_size=pieces - 1,
                unique=True,
            )
        )
        rises = data.draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=100.0),
                min_size=pieces - 1,
                max_size=pieces - 1,
            )
        )
        knots = [0.0] + sorted(eps_max * c for c in cuts) + [eps_max]
        slopes = [first_slope]
        for rise in rises:
            slopes.append(slopes[-1] + rise)
        calls = []
        oracle, values = piecewise_oracle(knots, slopes, w_end, pick, calls)

        # brute force: every breakpoint and every piece's vertex
        candidates = [8.0 * e * w for e, w in zip(knots, values)]
        for l, r, w, s in zip(knots, knots[1:], values, slopes):
            v = 0.5 * (l - w / s) if s > 0 else l
            if l < v < r:
                candidates.append(8.0 * v * (w + s * (v - l)))
        best = min(candidates)

        result = sandwich_search(oracle, 0.0, eps_max, 8.0)
        assert result.value == pytest.approx(best, rel=1e-12, abs=1e-300)
        assert result.evaluations == len(calls) <= 2 * pieces + 1

    def test_degenerate_subgradient_at_the_left_end(self):
        # Robot(d=1.8)'s shape: omega = -18 + 61 eps, but the LP reports
        # slope 60 at eps = 0; the right end's tangent proves one piece
        eps_max = 18.0 / 61.0
        oracle = linear_oracle(-18.0, 61.0, slope_at={0.0: 60.0})
        result = sandwich_search(oracle, 0.0, eps_max, 8.0)
        assert result.evaluations == 3
        assert result.eps == pytest.approx(9.0 / 61.0, rel=1e-12)
        assert result.value == pytest.approx(-648.0 / 61.0, rel=1e-12)

    def test_tracer_binding_is_the_search(self):
        assert ser.ternary_search is ser.sandwich_search
