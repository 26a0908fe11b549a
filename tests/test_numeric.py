"""Tests for the numeric layer: LP front-end, convex solver, Ser search."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, SolverError
from repro.numeric.convex import ConvexProgram
from repro.numeric.lp import LinearProgram, solve_lp
from repro.numeric.ser import ternary_search
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

    def test_warm_start_is_only_a_candidate(self):
        def solve(warm_start=None):
            prog = ConvexProgram()
            prog.add_lse([(0.5, var("a") + 1, []), (0.5, var("a"), [])])
            prog.add_linear_le(-var("b") - 3)
            prog.add_lse([(1.0, var("a") + var("b") / 8, [])])
            prog.set_objective(-var("a"))
            return prog.solve(warm_start=warm_start)

        cold = solve()
        worse = solve({"a": -2.0, "b": 1.0})  # feasible, objective 2
        assert worse.method == cold.method == "barrier"
        assert worse.assignment == cold.assignment
        # the optimum itself, which the margin keeps the solver off
        best = -math.log(0.5 * (math.e + 1.0))
        better = solve({"a": best, "b": -3.0})
        assert better.method == "warm-start"
        assert better.objective < cold.objective

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


class TestTernarySearch:
    def test_quadratic_minimum(self):
        result = ternary_search(lambda x: ((x - 3.0) ** 2, None), 0.0, 10.0, tol=1e-8)
        assert result.eps == pytest.approx(3.0, abs=1e-4)

    def test_keeps_best_on_infeasible_tail(self):
        def f(x):
            if x > 5.0:
                return float("inf"), None
            return -x, x

        result = ternary_search(f, 0.0, 10.0, tol=1e-6)
        assert result.value <= -4.9
        assert result.found

    def test_all_infeasible(self):
        result = ternary_search(lambda x: (float("inf"), None), 0.0, 1.0)
        assert not result.found

    def test_boundary_minimum(self):
        result = ternary_search(lambda x: (x, x), 2.0, 9.0, tol=1e-9)
        assert result.eps == pytest.approx(2.0, abs=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(center=st.floats(min_value=0.5, max_value=9.5))
    def test_unimodal_random_center(self, center):
        result = ternary_search(
            lambda x: (abs(x - center), None), 0.0, 10.0, tol=1e-7
        )
        assert result.eps == pytest.approx(center, abs=1e-3)
