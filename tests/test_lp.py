import numpy as np
import pytest

from stairverify.lp import (INF, LESS, EQUAL, GREATER, InfeasibleError,
                            LinearProgram, solve, solve_box_knapsack, write_lp_text)

from helpers import NaiveSimplex


def test_single_variable_cap():
    lp = LinearProgram("max", [1.0], lower=np.array([0.0]), upper=np.array([10.0]))
    lp.add_row([1.0], LESS, 3.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 3.0) <= 1e-9 and abs(sol.objective - 3.0) <= 1e-9


def test_infeasible_pair():
    lp = LinearProgram("max", [1.0], lower=np.array([0.0]), upper=np.array([10.0]))
    lp.add_row([1.0], LESS, -1.0)
    assert solve(lp).status == "infeasible"


def test_unbounded_detection():
    lp = LinearProgram("max", [1.0])
    lp.add_row([1.0], GREATER, 0.0)
    assert solve(lp).status == "unbounded"


def test_random_lps_match_textbook_tableau():
    """Independent oracle: standard-form dense-tableau simplex on x >= 0 LPs."""
    rng = np.random.default_rng(10)
    solved = 0
    for _ in range(60):
        n, m = 10, 10
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        lp = LinearProgram("min", c, lower=np.zeros(n), upper=np.full(n, INF))
        for i in range(m):
            lp.add_row(A[i], LESS, float(b[i]))
        sol = solve(lp)
        status, obj, _ = NaiveSimplex(c, A, b).solve()
        if status == "infeasible":
            assert sol.status == "infeasible"
        elif status == "unbounded":
            assert sol.status == "unbounded"
        elif status == "optimal":
            assert sol.status == "optimal"
            assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))
            solved += 1
    assert solved >= 20


def test_duality_and_feasibility_residuals():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        lo = rng.uniform(-2, 0, size=n)
        hi = lo + rng.uniform(0.5, 2, size=n)
        lp = LinearProgram("min", rng.normal(size=n), lower=lo, upper=hi)
        senses = [LESS, GREATER, EQUAL]
        for i in range(m):
            lp.add_row(rng.normal(size=n), senses[int(rng.integers(3))],
                       float(rng.normal()))
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        # primal feasibility residuals
        assert np.all(sol.x >= lo - 1e-7) and np.all(sol.x <= hi + 1e-7)
        for coeffs, sense, rhs in lp.rows:
            lhs = float(coeffs @ sol.x)
            if sense == LESS:
                assert lhs <= rhs + 1e-7
            elif sense == GREATER:
                assert lhs >= rhs - 1e-7
            else:
                assert abs(lhs - rhs) <= 1e-7
        # duality gap
        assert abs(sol.dual_objective(lp) - sol.objective) <= 1e-6 * max(1.0, abs(sol.objective))
        # complementary slackness on rows
        for (coeffs, sense, rhs), y in zip(lp.rows, sol.duals):
            slack = rhs - float(coeffs @ sol.x)
            if sense != EQUAL:
                assert abs(slack * y) <= 1e-6


def test_optimal_solutions_are_vertices():
    # a basic solution has at least (n - m) variables at their bounds
    rng = np.random.default_rng(12)
    for _ in range(20):
        n, m = 6, 2
        lo = np.zeros(n)
        hi = np.ones(n)
        lp = LinearProgram("max", rng.normal(size=n), lower=lo, upper=hi)
        for _ in range(m):
            lp.add_row(rng.normal(size=n), LESS, 1.0)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        at_bound = np.sum((np.abs(sol.x - lo) <= 1e-8) | (np.abs(sol.x - hi) <= 1e-8))
        assert at_bound >= n - m


def test_knapsack_box_optimum_inside_slice():
    c = np.array([1.0, 1.0])
    w = np.array([1.0, 1.0])
    lo = np.zeros(2)
    hi = np.ones(2)
    # slice 3 of 4 equal slices of [0, 2] is [1.0, 1.5] and misses (1,1);
    # the top slice [1.5, 2] contains the box optimum
    x, val = solve_box_knapsack(c, w, 1.5, 2.0, lo, hi)
    assert np.allclose(x, [1.0, 1.0]) and abs(val - 2.0) <= 1e-12
    # walking down into slice [1.0, 1.5]: one coordinate turns fractional
    x, val = solve_box_knapsack(c, w, 1.0, 1.5, lo, hi)
    assert abs(val - 1.5) <= 1e-12
    assert sum(1 for v in x if 1e-9 < v < 1 - 1e-9) <= 1


def test_knapsack_whole_box_slice_returns_box_optimum():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        c = rng.normal(size=n)
        w = rng.normal(size=n)
        lo = rng.uniform(-1, 0, size=n)
        hi = lo + rng.uniform(0.1, 2, size=n)
        tmin = float(w @ np.where(w >= 0, lo, hi))
        tmax = float(w @ np.where(w >= 0, hi, lo))
        x, _ = solve_box_knapsack(c, w, tmin - 1.0, tmax + 1.0, lo, hi)
        expect = np.where(c > 0, hi, lo)
        assert np.allclose(x, expect)


def test_knapsack_matches_simplex_on_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = rng.normal(size=n)
        w = rng.normal(size=n)
        lo = rng.uniform(-2, 0, size=n)
        hi = lo + rng.uniform(0.5, 3, size=n)
        tmin = float(w @ np.where(w >= 0, lo, hi))
        tmax = float(w @ np.where(w >= 0, hi, lo))
        a, b = sorted(rng.uniform(tmin, tmax, size=2))
        x, val = solve_box_knapsack(c, w, a, b, lo, hi)
        assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        assert a - 1e-9 <= float(w @ x) <= b + 1e-9
        lp = LinearProgram("max", c, lower=lo, upper=hi)
        lp.add_row(w, GREATER, a)
        lp.add_row(w, LESS, b)
        ref = solve(lp)
        assert ref.status == "optimal"
        assert abs(val - ref.objective) <= 1e-8 * max(1.0, abs(ref.objective))


def test_knapsack_empty_slice_raises():
    with pytest.raises(InfeasibleError):
        solve_box_knapsack([1.0], [1.0], 5.0, 6.0, [0.0], [1.0])


def test_lp_text_export_mentions_all_sections():
    lp = LinearProgram("max", [1.0, -2.0], lower=np.array([0.0, -INF]),
                       upper=np.array([1.0, INF]), names=["a", "b"])
    lp.add_row([1.0, 1.0], LESS, 2.0)
    text = write_lp_text(lp)
    for token in ("Maximize", "Subject To", "Bounds", "End", "a", "b"):
        assert token in text


def test_initial_point_matches_per_column_rule():
    from stairverify.lp import _initial_point, _Tableau

    def reference(tab):
        x = np.zeros(tab.ncols)
        for j in range(tab.ncols):
            lo, hi = tab.lower[j], tab.upper[j]
            if lo > -INF and hi < INF:
                x[j] = lo if abs(lo) <= abs(hi) else hi
            elif lo > -INF:
                x[j] = lo
            elif hi < INF:
                x[j] = hi
        return x

    lower = np.array([-INF, -INF, -3.0, -1.0, -2.0, 0.5, -0.0, 4.0])
    upper = np.array([INF, 2.0, INF, 1.0, 1.0, 3.0, 0.0, 4.0])
    lp = LinearProgram("max", np.zeros(8), lower=lower, upper=upper)
    for sense in (LESS, GREATER, EQUAL):
        lp.add_row(np.ones(8), sense, 1.0)
    tab = _Tableau(lp)
    assert _initial_point(tab).tobytes() == reference(tab).tobytes()
