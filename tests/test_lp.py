import copy
import json
from pathlib import Path

import numpy as np
import pytest

from stairverify import lp as lp_mod
from stairverify.errors import FormulationError, NumericalError, ParameterError
from stairverify.lp import (FEAS_TOL, INF, LESS, EQUAL, GREATER, PIVOT_TOL, LinearProgram,
                            LpSolution, solve)
from stairverify.separation import _slice_maxima

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


def test_lp_without_rows_runs_the_general_path():
    lo, hi = np.array([-1.0, 0.5, -INF, -2.0]), np.array([2.0, 3.0, 4.0, INF])
    for sense, c in (("max", [1.0, -2.0, 0.5, 0.0]), ("min", [-1.0, 3.0, -2.0, 0.0])):
        sol = solve(LinearProgram(sense, c, lower=lo, upper=hi))
        assert sol.status == "optimal" and sol.basis == [] and sol.duals.size == 0
        assert np.array_equal(sol.x[:3], [2.0, 0.5, 4.0])
        assert lo[3] <= sol.x[3] <= hi[3]
        assert sol.objective == float(np.dot(c, sol.x))
    assert solve(LinearProgram("max", [1.0, 1.0], lower=np.zeros(2))).status == "unbounded"
    assert solve(LinearProgram("min", [0.0, 1.0], upper=np.ones(2))).status == "unbounded"
    crossed = LinearProgram("max", [1.0, 0.0], lower=np.array([0.0, 1.0]),
                            upper=np.array([1.0, 1.0 - 2e-7]))
    assert solve(crossed).status == "infeasible"
    # crossed bounds are infeasible with rows too, before any pivoting
    crossed.add_row([1.0, 1.0], LESS, 5.0)
    sol = solve(crossed)
    assert sol.status == "infeasible" and sol.iterations == sol.dual_iterations == 0


@pytest.mark.parametrize("rows, senses, rhs, message", [
    ([[1.0, np.nan]], [LESS], [1.0], "finite"),
    ([[1.0, np.inf]], [LESS], [1.0], "finite"),
    ([[1.0, 2.0]], [LESS], [np.inf], "finite"),
    ([[1.0, 2.0]], ["<"], [1.0], "sense"),
    ([[1.0, 2.0]], ["<=x"], [1.0], "sense"),
    ([[1.0, 2.0, 3.0]], [LESS], [1.0], "matrix"),
    ([[1.0, 2.0]], [LESS, EQUAL], [1.0, 2.0], "matrix"),
    ([[1.0, 2.0]], [LESS], [1.0, 2.0], "matrix"),
])
def test_linear_program_rejects_bad_rows(rows, senses, rhs, message):
    with pytest.raises(ParameterError, match=message):
        LinearProgram("max", [1.0, 1.0], rows, senses, rhs)


@pytest.mark.parametrize("coeffs, sense, rhs, message", [
    ([1.0, np.nan], LESS, 1.0, "finite"), ([1.0, 2.0], LESS, np.nan, "finite"),
    ([1.0, 2.0], "==", 1.0, "sense"), ([1.0], GREATER, 1.0, "length"),
])
def test_add_row_rejects_bad_rows(coeffs, sense, rhs, message):
    lp = LinearProgram("max", [1.0, 1.0])
    with pytest.raises(ParameterError, match=message):
        lp.add_row(coeffs, sense, rhs)
    assert lp.rows.shape == (0, 2) and lp.senses.size == lp.rhs.size == 0


@pytest.mark.parametrize("field", ["objective", "lower", "upper"])
def test_linear_program_rejects_nan(field):
    values = {"objective": [1.0, 1.0], "lower": [0.0, -np.inf], "upper": [1.0, np.inf]}
    values[field][1] = np.nan
    with pytest.raises(ParameterError, match="NaN"):
        LinearProgram("max", values["objective"], lower=np.array(values["lower"]),
                      upper=np.array(values["upper"]))


def test_random_lps_match_textbook_tableau(monkeypatch):
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

    # free, half-bounded and boxed columns under rows that the slack-basis
    # start misses: the dual start flips boxed columns to the bound they move
    # toward and shifts the cost of columns whose bound that way is infinite
    dual_start = lp_mod._dual_start
    starts = []

    def spy(tab, cost, x):
        before = x.copy()
        shifted = dual_start(tab, cost, x)
        # no nonbasic column prices in under the returned cost: dual feasible
        movable = tab.upper - tab.lower > PIVOT_TOL
        movable[tab.basis] = False
        d = lp_mod._reduced_costs(tab, shifted)
        assert not lp_mod._improving(d, *lp_mod._bound_masks(tab, x), movable)[0].any()
        starts.append((bool(np.any(shifted != cost)), bool(np.any(x[:tab.n] != before[:tab.n]))))
        return shifted

    monkeypatch.setattr(lp_mod, "_dual_start", spy)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    shifts = flips = 0
    for _ in range(150):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 10))
        kind = rng.integers(0, 4, size=n)   # free, lower only, upper only, boxed
        lo = np.where((kind == 1) | (kind == 3), rng.uniform(-1, 0, size=n), -INF)
        hi = np.where(kind == 2, rng.uniform(0, 1, size=n),
                      np.where(kind == 3, lo + rng.uniform(0.5, 2, size=n), INF))
        # rows met with room at a point away from the start, or at random
        far = np.clip(rng.uniform(-3, 3, size=n), lo, hi)
        lp = LinearProgram(str(rng.choice(["max", "min"])), rng.normal(size=n),
                           lower=lo, upper=hi)
        for _ in range(m):
            row = rng.normal(size=n)
            sense = [LESS, GREATER, EQUAL][int(rng.integers(3))]
            gap = 0.0 if sense == EQUAL else float(rng.uniform(0, 1))
            rhs = float(row @ far) + (gap if sense == LESS else -gap)
            lp.add_row(row, sense, rhs if rng.random() < 0.8 else float(rng.normal()))
        starts.clear()
        sol = solve(lp)
        status, value = _referee(lp)
        assert sol.status == status
        if status == "optimal":
            assert abs(sol.objective - value) <= 1e-7 * max(1.0, abs(value))
        statuses[status] += 1
        shifts += any(s for s, _ in starts)
        flips += any(f for _, f in starts)
    assert min(statuses.values()) >= 20 and shifts >= 100 and flips >= 40


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
        for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
            lhs = float(coeffs @ sol.x)
            if sense == LESS:
                assert lhs <= rhs + 1e-7
            elif sense == GREATER:
                assert lhs >= rhs - 1e-7
            else:
                assert abs(lhs - rhs) <= 1e-7
        # duality gap
        assert abs(_dual_bound(lp, sol.duals) - sol.objective) <= 1e-6 * max(1.0, abs(sol.objective))
        # complementary slackness on rows
        for coeffs, sense, rhs, y in zip(lp.rows, lp.senses, lp.rhs, sol.duals):
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
        # a warm re-solve after an appended row also ends on a vertex
        lp.add_row(rng.normal(size=n), LESS, 0.5)
        warm = solve(lp, sol)
        if warm.status != "optimal":
            continue
        assert warm.warm_used
        at_bound = np.sum((np.abs(warm.x - lo) <= 1e-8) | (np.abs(warm.x - hi) <= 1e-8))
        assert at_bound >= n - m - 1
    # started from an interior feasible point (an empty basis), with costless
    # columns that the primal simplex has no reason to move off it
    started = 0
    for _ in range(40):
        n, m = 8, 3
        lo, hi = np.zeros(n), np.ones(n)
        x0 = rng.uniform(0.1, 0.9, size=n)
        lp = LinearProgram("max", rng.normal(size=n) * (rng.random(n) < 0.5), lower=lo, upper=hi)
        for _ in range(m):
            row = rng.normal(size=n) * (rng.random(n) < 0.5)
            lp.add_row(row, LESS, float(row @ x0) + float(rng.uniform(0, 0.3)))
        sol = solve(lp, LpSolution("optimal", x=x0, basis=[]))
        assert sol.status == "optimal" and sol.warm_used and sol.dual_iterations == 0
        cold = solve(lp)
        assert abs(sol.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        at_bound = np.sum((np.abs(sol.x - lo) <= 1e-8) | (np.abs(sol.x - hi) <= 1e-8))
        assert at_bound >= n - m
        started += 1
    assert started == 40


def test_knapsack_box_optimum_inside_slice():
    c = np.array([1.0, 1.0])
    w = np.array([1.0, 1.0])
    lo = np.zeros(2)
    hi = np.ones(2)
    # slice 3 of 4 equal slices of [0, 2] is [1.0, 1.5] and misses (1,1);
    # the top slice [1.5, 2] contains the box optimum
    assert _slice_maxima(c, w, lo, hi, np.array([1.5]), np.array([2.0])) == pytest.approx(
        [2.0], abs=1e-12)
    # moving down into slice [1.0, 1.5] pins w.x at 1.5
    assert _slice_maxima(c, w, lo, hi, np.array([1.0]), np.array([1.5])) == pytest.approx(
        [1.5], abs=1e-12)
    # all four slices in one series
    vals = _slice_maxima(c, w, lo, hi, np.array([0.0, 0.5, 1.0, 1.5]),
                         np.array([0.5, 1.0, 1.5, 2.0]))
    assert vals == pytest.approx([0.5, 1.0, 1.5, 2.0], abs=1e-12)


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
        vals = _slice_maxima(c, w, lo, hi, np.array([tmin - 1.0]), np.array([tmax + 1.0]))
        assert vals[0] == float(c @ np.where(c > 0, hi, lo))


def _slice_lp_optimum(c, w, a, b, lo, hi):
    lp = LinearProgram("max", c, lower=lo, upper=hi)
    lp.add_row(w, GREATER, a)
    lp.add_row(w, LESS, b)
    ref = solve(lp)
    assert ref.status == "optimal"
    return ref.objective


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
        # one slice, then consecutive slices tiling the whole range
        edges = np.concatenate([[tmin], np.sort(rng.uniform(tmin, tmax, size=3)), [tmax]])
        for lo_ts, hi_ts in ((np.array([a]), np.array([b])), (edges[:-1], edges[1:])):
            vals = _slice_maxima(c, w, lo, hi, lo_ts, hi_ts)
            for val, lo_t, hi_t in zip(vals, lo_ts, hi_ts):
                ref = _slice_lp_optimum(c, w, lo_t, hi_t, lo, hi)
                assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))


def test_knapsack_empty_slice_raises():
    with pytest.raises(FormulationError):
        _slice_maxima(np.array([1.0]), np.array([1.0]), np.array([0.0]),
                      np.array([1.0]), np.array([5.0]), np.array([6.0]))


def test_initial_point_matches_per_column_rule():
    from stairverify.lp import _initial_point, _Tableau

    def reference(tab):
        x = np.zeros(tab.n + tab.m)
        for j in range(tab.n + tab.m):
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


def test_tableau_matches_the_per_row_form():
    from stairverify.lp import _Tableau

    def reference(lp):
        m, n = len(lp.rhs), lp.num_vars
        A, b = np.zeros((m, n + m)), np.zeros(m)
        lower = np.concatenate([lp.lower, np.zeros(m)])
        upper = np.concatenate([lp.upper, np.zeros(m)])
        for i, (coeffs, sense, rhs) in enumerate(zip(lp.rows, lp.senses, lp.rhs)):
            A[i, :n], A[i, n + i], b[i] = coeffs, 1.0, rhs
            if sense == LESS:
                upper[n + i] = INF
            elif sense == GREATER:
                lower[n + i] = -INF
        return A, b, lower, upper

    rng = np.random.default_rng(26)
    for m in (0, 1, 7):
        lp = _random_bounded_lp(rng, 5, m)
        tab = _Tableau(lp)
        for got, expect in zip((tab.A, tab.b, tab.lower, tab.upper), reference(lp)):
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


# -- the array pricing and ratio test against the per-column and per-row loops ---


def _reference_simplex_loop(tab, cost, x, max_iter, move=None):
    """`lp._simplex_loop` as a per-column loop; `move` defaults to the reference."""
    move = move or _reference_move
    iters = 0
    basic_mask = np.zeros(tab.n + tab.m, dtype=bool)
    basic_mask[tab.basis] = True
    while True:
        if iters >= max_iter:
            raise NumericalError("cycling guard exceeded")
        y = cost[tab.basis] @ tab.binv
        d = cost - y @ tab.A
        entering = -1
        direction = 0.0
        for j in range(tab.n + tab.m):
            if basic_mask[j]:
                continue
            if tab.upper[j] - tab.lower[j] <= PIVOT_TOL:
                continue  # pinned variable, can never move
            at_lower = tab.lower[j] > -INF and x[j] <= tab.lower[j] + FEAS_TOL
            at_upper = tab.upper[j] < INF and x[j] >= tab.upper[j] - FEAS_TOL
            on_bound = at_lower or at_upper
            if at_lower and d[j] < -PIVOT_TOL:
                entering, direction = j, 1.0
                break
            if at_upper and d[j] > PIVOT_TOL:
                entering, direction = j, -1.0
                break
            if not on_bound and abs(d[j]) > PIVOT_TOL:
                entering, direction = j, (1.0 if d[j] < 0 else -1.0)
                break
        if entering < 0:
            return "optimal", iters
        if not move(tab, x, entering, direction, on_bound, basic_mask):
            return "unbounded", iters
        iters += 1


def _reference_move(tab, x, entering, direction, on_bound, basic_mask):
    """`lp._move` with its ratio test as a per-row loop."""
    col = tab.binv @ tab.A[:, entering]
    u = col if direction > 0 else -col
    step = INF
    leaving = -1
    leave_to = 0.0
    for i in range(tab.m):
        bi = tab.basis[i]
        if u[i] > PIVOT_TOL:
            lo = tab.lower[bi]
            if lo > -INF:
                r = (x[bi] - lo) / u[i]
                if r < step - PIVOT_TOL or (r < step + PIVOT_TOL and (leaving < 0 or bi < tab.basis[leaving])):
                    step, leaving, leave_to = r, i, lo
        elif u[i] < -PIVOT_TOL:
            hi = tab.upper[bi]
            if hi < INF:
                r = (hi - x[bi]) / (-u[i])
                if r < step - PIVOT_TOL or (r < step + PIVOT_TOL and (leaving < 0 or bi < tab.basis[leaving])):
                    step, leaving, leave_to = r, i, hi
    target = tab.upper[entering] if direction > 0 else tab.lower[entering]
    if abs(target) >= INF:
        flip = INF
    elif on_bound:
        flip = tab.upper[entering] - tab.lower[entering]
    else:
        flip = direction * (target - x[entering])
    if flip < step - PIVOT_TOL:
        x[entering] += direction * flip
        x[tab.basis] -= flip * u
        return True
    if step >= INF:
        return False
    if abs(col[leaving]) < FEAS_TOL and tab.updates:
        tab.refactor()
        return _reference_move(tab, x, entering, direction, on_bound, basic_mask)

    step = max(step, 0.0)
    x[entering] += direction * step
    x[tab.basis] -= step * u
    out = tab.basis[leaving]
    x[out] = leave_to
    tab.basis[leaving] = entering
    basic_mask[out] = False
    basic_mask[entering] = True
    tab.updates += 1
    if tab.updates >= 64:
        tab.refactor()
    else:
        lp_mod._update_inverse(tab.binv, col, leaving)
    return True


def _random_tableau(rng):
    """A tableau on a random basis, with columns of every bound kind (free,
    one-sided, boxed, pinned, just wider than PIVOT_TOL, within 2 FEAS_TOL),
    nonbasic values on and near their bounds, about one nonbasic column in
    ten pinned where it stands, and reduced costs near PIVOT_TOL; returns
    (tab, cost, x)."""
    n, m = int(rng.integers(2, 10)), int(rng.integers(1, 8))
    lower, upper = np.full(n, -INF), np.full(n, INF)
    for j, kind in enumerate(rng.integers(0, 8, size=n)):
        lo = float(rng.integers(-2, 2))
        width = [INF, 1.0, 2.5, 0.0, PIVOT_TOL / 2, 1.5 * PIVOT_TOL, 1.5 * FEAS_TOL,
                 2 * FEAS_TOL][kind]
        if kind == 0 and rng.random() < 0.5:   # one-sided
            upper[j] = lo
        elif kind != 0 or rng.random() < 0.5:
            lower[j], upper[j] = lo, lo + width
    rows = rng.integers(-2, 3, size=(m, n)).astype(float)   # small integers: exact ties
    senses = rng.choice([LESS, EQUAL, GREATER], size=m)
    tab = lp_mod._Tableau(LinearProgram("max", np.zeros(n), rows, senses, np.zeros(m),
                                        lower, upper))
    tab.b = rng.normal(size=m)
    try:
        tab.basis = rng.choice(n + m, size=m, replace=False)
        tab.refactor()
    except NumericalError:
        tab.basis = np.arange(n, n + m)
        tab.refactor()
    ncols = n + m
    x = np.zeros(ncols)
    for j in range(ncols):
        lo, hi = tab.lower[j], tab.upper[j]
        picks = [v for v in (lo, hi, lo + FEAS_TOL / 2, hi - FEAS_TOL / 2, lo + 2 * FEAS_TOL,
                             (lo + hi) / 2, 0.0) if abs(v) < INF]
        x[j] = picks[int(rng.integers(len(picks)))]
    lp_mod._set_basic_values(tab, x)
    cost = rng.normal(size=ncols) * (rng.random(ncols) < 0.7)
    # reduced costs on either side of +-PIVOT_TOL for some nonbasic columns
    y = cost[tab.basis] @ tab.binv
    for j in rng.choice(ncols, size=ncols // 2, replace=False):
        if j not in tab.basis:
            cost[j] = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0]) * PIVOT_TOL + y @ tab.A[:, j]
    pinned = (rng.random(ncols) < 0.1) & ~np.isin(np.arange(ncols), tab.basis)
    tab.lower[pinned] = tab.upper[pinned] = x[pinned]
    return tab, cost, x


def _plant_ratio_ties(rng, tab, x, entering, direction):
    """Bounds on the basic columns that block the move at ratios 1 + k 0.6 PIVOT_TOL
    (k = 0..3, so ties within PIVOT_TOL chain past the smallest), or far away."""
    u = direction * (tab.binv @ tab.A[:, entering])
    for i, bi in enumerate(tab.basis):
        r = rng.choice([1.0, 1.0 + 0.6 * PIVOT_TOL, 1.0 + 1.2 * PIVOT_TOL,
                        1.0 + 1.8 * PIVOT_TOL, 3.0])
        if rng.random() < 0.8 and abs(u[i]) > PIVOT_TOL:
            blocked = x[bi] - r * u[i]
            if u[i] > 0:
                tab.lower[bi] = blocked
            else:
                tab.upper[bi] = blocked


def _copy_state(tab, x):
    return copy.deepcopy(tab), x.copy()


def _same_state(a, b):
    (tab_a, x_a), (tab_b, x_b) = a, b
    assert list(tab_a.basis) == list(tab_b.basis)
    assert x_a.tobytes() == x_b.tobytes() and tab_a.binv.tobytes() == tab_b.binv.tobytes()


def test_pricing_matches_the_per_column_loop(monkeypatch):
    def first_choice(loop, tab, x, cost):
        """The loop's outcome when its first move stops it, and that move."""
        picked = []

        def stop(tab, x, entering, direction, on_bound, basic_mask):
            picked.append((entering, direction, bool(on_bound)))
            return False

        monkeypatch.setattr(lp_mod, "_move", stop)
        kwargs = {"move": stop} if loop is _reference_simplex_loop else {}
        return loop(tab, cost, x, 100, **kwargs), picked

    rng = np.random.default_rng(27)
    entered = both_bounds = 0
    for _ in range(400):
        tab, cost, x = _random_tableau(rng)
        ref = first_choice(_reference_simplex_loop, *_copy_state(tab, x), cost)
        got = first_choice(lp_mod._simplex_loop, *_copy_state(tab, x), cost)
        assert got == ref
        if ref[1]:
            entered += 1
            j = ref[1][0][0]
            both_bounds += bool(x[j] <= tab.lower[j] + FEAS_TOL
                                and x[j] >= tab.upper[j] - FEAS_TOL)
    assert entered >= 200 and both_bounds > 0


def test_ratio_test_matches_the_per_row_loop():
    rng = np.random.default_rng(28)
    pivots = chained = 0
    for _ in range(400):
        tab, _, x = _random_tableau(rng)
        basic_mask = np.zeros(tab.n + tab.m, dtype=bool)
        basic_mask[tab.basis] = True
        entering = int(rng.choice(np.flatnonzero(~basic_mask)))
        direction = float(rng.choice([-1.0, 1.0]))
        on_bound = bool(rng.random() < 0.5)
        _plant_ratio_ties(rng, tab, x, entering, direction)
        tab.updates = int(rng.integers(0, 3))
        ref, got = _copy_state(tab, x), _copy_state(tab, x)
        masks = basic_mask.copy(), basic_mask.copy()
        moved = _reference_move(*ref, entering, direction, on_bound, masks[0])
        assert lp_mod._move(*got, entering, direction, on_bound, masks[1]) == moved
        _same_state(ref, got)
        assert np.array_equal(*masks)
        if list(ref[0].basis) != list(tab.basis):
            # the leaving row's ratio, against the smallest blocking ratio
            pivots += 1
            u = direction * (tab.binv @ tab.A[:, entering])
            ratio = [(x[bi] - tab.lower[bi]) / u[i] if u[i] > PIVOT_TOL
                     else (tab.upper[bi] - x[bi]) / -u[i] for i, bi in enumerate(tab.basis)
                     if abs(u[i]) > PIVOT_TOL]
            step = (ref[1][entering] - x[entering]) * direction
            chained += step > min(ratio) + PIVOT_TOL
    assert pivots >= 100 and chained > 0


def test_simplex_loop_matches_the_loop_version():
    def run(loop, state, cost):
        tab, x = state
        try:
            return loop(tab, cost, x, 60)
        except NumericalError as exc:
            return str(exc)

    rng = np.random.default_rng(29)
    iterations = 0
    for _ in range(200):
        tab, cost, x = _random_tableau(rng)
        ref, got = _copy_state(tab, x), _copy_state(tab, x)
        outcome = run(_reference_simplex_loop, ref, cost)
        assert run(lp_mod._simplex_loop, got, cost) == outcome
        _same_state(ref, got)
        iterations += outcome[1] if isinstance(outcome, tuple) else 0
    assert iterations >= 200


# -- warm starts -----------------------------------------------------------------


def _random_bounded_lp(rng, n, m):
    """Box-bounded LP with mixed row senses, feasible at a random box point."""
    lo = rng.uniform(-2, 0, size=n)
    hi = lo + rng.uniform(0.2, 2, size=n)
    x0 = rng.uniform(lo, hi)
    lp = LinearProgram(str(rng.choice(["max", "min"])), rng.normal(size=n), lower=lo, upper=hi)
    for _ in range(m):
        row = rng.normal(size=n) * (rng.random(n) < 0.6)
        sense = [LESS, GREATER, EQUAL][int(rng.integers(3))]
        gap = 0.0 if sense == EQUAL else float(rng.uniform(0, 0.5))
        lp.add_row(row, sense, float(row @ x0) + (gap if sense == LESS else -gap))
    return lp


def _assert_same_solve(warm, cold, lp):
    n, m = lp.num_vars, len(lp.rows)
    assert warm.status == cold.status
    if warm.status == "optimal":
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        assert len(warm.basis) == m and max(warm.basis, default=0) < n + m
        assert len(set(warm.basis)) == m
        assert np.all(warm.x >= lp.lower - 1e-7) and np.all(warm.x <= lp.upper + 1e-7)


def test_warm_resolve_after_appended_rows_matches_cold():
    rng = np.random.default_rng(21)
    attempts = warm_used = 0
    dual = [0, 0]   # warm, cold
    for _ in range(80):
        n, m = int(rng.integers(3, 12)), int(rng.integers(1, 10))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        for _ in range(3):
            if sol.status != "optimal":
                break
            for _ in range(int(rng.integers(1, 4))):
                # a cut through the current optimum, so the old basis is infeasible
                row = rng.normal(size=n)
                lp.add_row(row, LESS, float(row @ sol.x) - abs(float(rng.normal())) * 0.3)
            warm, cold = solve(lp, sol), solve(lp)
            _assert_same_solve(warm, cold, lp)
            attempts += 1
            warm_used += warm.warm_used
            dual[0] += warm.dual_iterations
            dual[1] += cold.dual_iterations
            sol = warm
    assert attempts >= 100 and warm_used >= 0.9 * attempts
    assert dual[0] < dual[1] / 2   # the old vertex is most of the way there


def test_warm_resolve_after_tightened_bounds_matches_cold():
    rng = np.random.default_rng(22)
    attempts = warm_used = 0
    dual = [0, 0]   # warm, cold
    for _ in range(80):
        n, m = int(rng.integers(3, 12)), int(rng.integers(1, 10))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        for _ in range(3):
            if sol.status != "optimal":
                break
            pick = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            for j in pick:
                if rng.random() < 0.5:   # pin at a bound, as branching pins z
                    lp.upper[j] = lp.lower[j]
                else:                    # or cut the interval around the optimum
                    mid = float(np.clip(sol.x[j], lp.lower[j], lp.upper[j]))
                    if rng.random() < 0.5:
                        lp.upper[j] = lp.lower[j] + 0.5 * (mid - lp.lower[j])
                    else:
                        lp.lower[j] = mid + 0.5 * (lp.upper[j] - mid)
            warm, cold = solve(lp, sol), solve(lp)
            _assert_same_solve(warm, cold, lp)
            attempts += 1
            warm_used += warm.warm_used
            dual[0] += warm.dual_iterations
            dual[1] += cold.dual_iterations
            sol = warm
    assert attempts >= 100 and warm_used >= 0.9 * attempts
    assert dual[0] < 0.75 * dual[1]


def test_off_bound_entering_column_stops_at_its_bound():
    # optimum (1, 1) with both columns nonbasic at their upper bounds
    lp = LinearProgram("max", [1.0, 1.0], lower=np.zeros(2), upper=np.ones(2))
    lp.add_row([1.0, -1.0], LESS, 10.0)
    sol = solve(lp)
    assert sol.status == "optimal" and np.allclose(sol.x, [1.0, 1.0])
    # loosened: x0 restarts strictly inside [0, 3] and must stop at 3, not 1 + 3
    lp.upper[0] = 3.0
    warm = solve(lp, sol)
    assert warm.warm_used
    assert np.allclose(warm.x, [3.0, 1.0]) and abs(warm.objective - 4.0) <= 1e-12


def test_warm_resolve_after_loosened_bounds_stays_in_bounds():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n, m = int(rng.integers(3, 10)), int(rng.integers(1, 8))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        pick = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        lp.lower[pick] -= rng.uniform(0, 1, size=pick.size)
        lp.upper[pick] += rng.uniform(0, 1, size=pick.size)
        _assert_same_solve(solve(lp, sol), solve(lp), lp)


def test_warm_start_ignores_an_unusable_solution():
    rng = np.random.default_rng(24)
    lp = _random_bounded_lp(rng, 5, 4)
    cold = solve(lp)
    other = _random_bounded_lp(rng, 6, 3)
    for warm in (LpSolution("infeasible"), solve(other),
                 LpSolution("optimal", x=np.zeros(5), basis=list(range(5, 11)))):
        sol = solve(lp, warm)
        assert not sol.warm_used
        assert sol.status == cold.status and sol.objective == cold.objective


def test_warm_inverse_of_another_lp_is_not_reused():
    # same shape, other rows: the basis indices fit, the inverse does not
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(30):
        lp, other = _random_bounded_lp(rng, 6, 4), _random_bounded_lp(rng, 6, 4)
        warm = solve(other)
        if warm.status != "optimal":
            continue
        sol = solve(lp, warm)
        _assert_same_solve(sol, solve(lp), lp)
        # the probe refactors, so the result is that of the same start without an inverse
        bare = solve(lp, LpSolution("optimal", x=warm.x, basis=warm.basis))
        assert sol.warm_used == bare.warm_used
        assert sol.refactorizations == bare.refactorizations >= sol.warm_used
        assert sol.x.tobytes() == bare.x.tobytes() and sol.basis == bare.basis
        assert sol.binv.tobytes() == bare.binv.tobytes()
        checked += sol.warm_used   # a singular warm basis restarts cold
    assert checked >= 15


def test_resolve_after_tightened_bounds_reuses_the_inverse():
    rng = np.random.default_rng(31)
    reused = fewer = 0
    for _ in range(60):
        lp = _random_bounded_lp(rng, int(rng.integers(3, 10)), int(rng.integers(1, 8)))
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        n, m = lp.num_vars, len(lp.rows)
        # the reported inverse inverts the reported basis
        B = np.hstack([lp.rows, np.eye(m)])[:, sol.basis]
        assert np.allclose(sol.binv @ B, np.eye(m), atol=1e-9)
        j = int(rng.integers(n))
        lp.upper[j] = 0.5 * (lp.lower[j] + np.clip(sol.x[j], lp.lower[j], lp.upper[j]))
        warm, cold = solve(lp, sol), solve(lp)
        bare = solve(lp, LpSolution("optimal", x=sol.x, basis=sol.basis))
        _assert_same_solve(warm, cold, lp)
        # the bare start inverts the basis that the warm start copies; an
        # infeasible end may refresh either inverse once
        assert warm.status == bare.status and warm.refactorizations <= bare.refactorizations
        if warm.status == "optimal":
            assert warm.refactorizations < bare.refactorizations and warm.basis == bare.basis
            assert np.allclose(warm.x, bare.x, rtol=0.0, atol=1e-12)
            reused += 1
            fewer += bare.refactorizations - warm.refactorizations
    assert reused >= 40 and fewer >= reused


def test_inverse_of_a_basis_on_repeated_equality_rows():
    # a repeated equality row: the dual start flips both columns to their
    # upper bounds, and the one dual pivot that meets the first row meets the
    # second too, whose slack stays basic at zero
    lp = LinearProgram("max", [1.0, 2.0], [[-1.0, -1.0], [-1.0, -1.0]], [EQUAL, EQUAL],
                       [-1.0, -1.0], lower=np.zeros(2), upper=np.ones(2))
    sol = solve(lp)
    assert sol.status == "optimal" and abs(sol.objective - 2.0) <= 1e-12
    assert sol.dual_iterations == 1 and sol.iterations == 0 and sorted(sol.basis) == [0, 3]
    # the slack basis needs no inversion, nor does the final basis, whose
    # basic values meet their rows
    assert sol.refactorizations == 0
    B = np.hstack([lp.rows, np.eye(2)])[:, sol.basis]
    assert np.array_equal(sol.binv @ B, np.eye(2))
    lp.lower[0] = 0.5
    warm = solve(lp, sol)
    bare = solve(lp, LpSolution("optimal", x=sol.x, basis=sol.basis))
    assert warm.refactorizations < bare.refactorizations
    assert warm.x.tobytes() == bare.x.tobytes() and abs(warm.objective - 1.5) <= 1e-12
    # the tightened bound is repaired by the dual simplex from that basis
    assert warm.dual_iterations == 1 and warm.iterations == 0


def _referee(lp):
    """`NaiveSimplex`'s status and optimum of an LP, rewritten over x' >= 0 as
    x = shift + T x': a column with a finite lower bound shifted by it, one
    with only an upper bound reflected at it, a free one split as x+ - x-;
    the finite upper bounds of boxed columns become rows."""
    has_lo, has_hi = lp.lower > -INF, lp.upper < INF
    shift = np.where(has_lo, lp.lower, np.where(has_hi, lp.upper, 0.0))
    T = np.diag(np.where(has_lo | ~has_hi, 1.0, -1.0))
    T = np.hstack([T, -T[:, ~has_lo & ~has_hi]])
    A, b = [], []
    for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
        row, rhs = coeffs @ T, rhs - float(coeffs @ shift)
        if sense != GREATER:
            A.append(row)
            b.append(rhs)
        if sense != LESS:
            A.append(-row)
            b.append(-rhs)
    for j in np.flatnonzero(has_lo & has_hi):
        A.append(T[j])
        b.append(lp.upper[j] - lp.lower[j])
    sign = 1.0 if lp.sense == "min" else -1.0
    status, obj, _ = NaiveSimplex(sign * (lp.objective @ T), np.array(A), np.array(b)).solve()
    return status, (None if obj is None else float(lp.objective @ shift) + sign * obj)


def _fixture_lp(name):
    doc = json.loads((Path(__file__).parent / "data" / name).read_text())
    lp = LinearProgram(doc["sense"], doc["objective"], lower=np.array(doc["lower"]),
                       upper=np.array(doc["upper"]))
    for row in doc["rows"]:
        coeffs = np.zeros(lp.num_vars)
        coeffs[row["cols"]] = row["coefs"]
        lp.add_row(coeffs, row["sense"], row["rhs"])
    return lp


def _dual_bound(lp, duals):
    """Weak-duality bound of an LP from any row multipliers: an upper bound
    of a max LP, a lower bound of a min LP.

    A min LP is the max LP of -objective, whose multipliers are -duals.
    Multipliers of the wrong sign for their row are dropped first, so the
    bound holds whatever the solver returned.
    """
    sign = 1.0 if lp.sense == "max" else -1.0
    duals = sign * np.asarray(duals)
    y = np.where(lp.senses == LESS, np.maximum(duals, 0.0),
                 np.where(lp.senses == GREATER, np.minimum(duals, 0.0), duals))
    d = sign * lp.objective - lp.rows.T @ y
    return sign * float(y @ lp.rhs + np.maximum(d * lp.lower, d * lp.upper).sum())


def test_phase_one_refreshes_before_reporting_infeasible():
    # a Cayley re-solve after two cut rounds, on which a primal phase 1 once
    # stopped at an infeasibility sum of 1e-4 that a refactorization turns
    # into 1e-16
    lp = _fixture_lp("cayley_resolve_66x36.json")
    assert lp.sense == "max"
    sol = solve(lp)
    assert sol.status == "optimal"
    # a feasible point whose value meets a dual bound is optimal
    assert _dual_bound(lp, sol.duals) - sol.objective <= 1e-7 * max(1.0, abs(sol.objective))
    assert np.all(sol.x >= lp.lower - 1e-7) and np.all(sol.x <= lp.upper + 1e-7)
    for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
        lhs = float(coeffs @ sol.x)
        assert (lhs <= rhs + 1e-7) if sense == LESS else \
            (lhs >= rhs - 1e-7) if sense == GREATER else abs(lhs - rhs) <= 1e-7
    # the textbook referee
    status, value = _referee(lp)
    assert status == "optimal"
    assert abs(value - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))


def test_phase_one_without_a_pivot_reports_infeasible_without_inverting(monkeypatch):
    # x in [0, 1] cannot meet x >= 2: the dual start only flips x to its upper
    # bound, where no column can push the row, so the clean slack-basis
    # inverse needs no refresh before the answer
    calls = []
    refactor = lp_mod._Tableau.refactor

    def spy(tab):
        calls.append(tab)
        refactor(tab)

    monkeypatch.setattr(lp_mod._Tableau, "refactor", spy)
    lp = LinearProgram("max", [1.0], [[1.0]], [GREATER], [2.0],
                       lower=np.zeros(1), upper=np.ones(1))
    sol = solve(lp)
    assert sol.status == "infeasible" and sol.dual_iterations == sol.iterations == 0
    assert calls == [] and sol.refactorizations == 0


def test_inverse_update_matches_the_row_list_form():
    from stairverify.lp import _update_inverse

    def reference(binv, col, leaving):
        binv[leaving, :] /= col[leaving]
        rows = [i for i in range(binv.shape[0]) if i != leaving]
        binv[rows, :] -= np.outer(col[rows], binv[leaving, :])

    rng = np.random.default_rng(25)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        binv = rng.normal(size=(m, m))
        col = rng.normal(size=m) * (rng.random(m) < 0.7)
        leaving = int(rng.integers(m))
        col[leaving] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        expect = binv.copy()
        reference(expect, col, leaving)
        _update_inverse(binv, col, leaving)
        assert binv.tobytes() == expect.tobytes()


def test_start_point_solve_rechecks_a_tiny_pivot_on_a_fresh_inverse():
    # a cayley-exact root LP with its forward-pass start: a pivot of 4e-9 on
    # the updated inverse is 1e-15 on a fresh one, and taking it made the
    # basis exactly singular at the next refactorization
    name = "cayley_root_start_59x36.json"
    lp = _fixture_lp(name)
    start = np.array(json.loads((Path(__file__).parent / "data" / name).read_text())["start"])
    sol, cold = solve(lp, LpSolution("optimal", x=start, basis=[])), solve(lp)
    assert sol.warm_used and sol.dual_iterations == 0
    _assert_same_solve(sol, cold, lp)


# -- the dual simplex, the bordered inverse and the residual check -------------------




def test_dual_simplex_after_tightened_upper_bounds_matches_the_referee():
    # branch-and-bound children: only upper bounds tighten, so the parent's
    # basis stays dual feasible and needs neither a bound flip nor a cost shift
    rng = np.random.default_rng(32)
    dual = infeasible = 0
    for _ in range(60):
        n, m = int(rng.integers(3, 10)), int(rng.integers(1, 8))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        for _ in range(3):
            if sol.status != "optimal":
                break
            for j in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
                # pin at the lower bound, or cut below the optimum
                keep = 0.0 if rng.random() < 0.3 else rng.uniform(0.2, 0.9)
                lp.upper[j] = lp.lower[j] + keep * (min(sol.x[j], lp.upper[j]) - lp.lower[j])
            warm, cold = solve(lp, sol), solve(lp)
            status, value = _referee(lp)
            assert warm.warm_used and warm.status == cold.status == status
            # the dual simplex keeps the basis dual feasible: no primal pivot follows
            assert warm.iterations == 0
            if status == "optimal":
                assert abs(warm.objective - value) <= 1e-9 * max(1.0, abs(value))
                assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(value))
            dual += warm.dual_iterations > 0
            infeasible += status == "infeasible"
            sol = warm
    assert dual >= 40 and infeasible >= 5


def test_leaving_row_proof_matches_the_referee(monkeypatch):
    # chains of children whose bounds tighten until some are infeasible: where
    # no column can push the leaving row on an updated inverse, one solve with
    # B^T decides, and the answer is the referee's
    prove, proofs = lp_mod._proves_infeasible, []

    def spy(*args):
        proofs.append(prove(*args))
        return proofs[-1]

    monkeypatch.setattr(lp_mod, "_proves_infeasible", spy)
    rng = np.random.default_rng(36)
    statuses = set()
    for _ in range(120):
        n, m = int(rng.integers(3, 10)), int(rng.integers(2, 8))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        for _ in range(4):
            if sol.status != "optimal":
                break
            for j in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
                # move one bound toward the other, past the optimum
                width, keep = lp.upper[j] - lp.lower[j], rng.uniform(0.0, 0.6)
                if rng.random() < 0.5:
                    lp.upper[j] = lp.lower[j] + keep * (min(sol.x[j], lp.upper[j]) - lp.lower[j])
                else:
                    lp.lower[j] = lp.upper[j] - keep * width
            warm = solve(lp, sol)
            status, value = _referee(lp)
            assert warm.warm_used and warm.status == status
            if status == "optimal":
                assert abs(warm.objective - value) <= 1e-9 * max(1.0, abs(value))
            statuses.add(status)
            sol = warm
    assert statuses == {"optimal", "infeasible"}
    assert sum(proofs) >= 40


def test_a_stale_leaving_row_is_refuted_by_the_fresh_row():
    # a leaving row of the updated inverse that no column can push (zeroed
    # here) is checked on a fresh row: the LP stays feasible, so the row
    # admits a column, the inverse is refreshed once, and the solve goes on
    rng = np.random.default_rng(37)
    refuted = 0
    for _ in range(60):
        n, m = int(rng.integers(3, 10)), int(rng.integers(2, 8))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        j = int(rng.integers(n))
        lp.upper[j] = 0.5 * (lp.lower[j] + np.clip(sol.x[j], lp.lower[j], lp.upper[j]))
        status, value = _referee(lp)
        tab = lp_mod._Tableau(lp)
        tab.basis = np.array(sol.basis)
        tab.use(sol.binv.copy(), 1)
        x = lp_mod._initial_point(tab)
        x[:n] = np.clip(sol.x, lp.lower, lp.upper)
        lp_mod._set_basic_values(tab, x)
        cost = np.concatenate(((1.0 if lp.sense == "min" else -1.0) * lp.objective, np.zeros(m)))
        shifted = lp_mod._dual_start(tab, cost, x)
        xb, lo, hi = x[tab.basis], tab.lower[tab.basis], tab.upper[tab.basis]
        miss = np.maximum(lo - xb, xb - hi)
        r = int(np.argmax(miss))
        if status != "optimal" or miss[r] <= FEAS_TOL:
            continue
        tab.binv[r] = 0.0
        assert lp_mod._dual_loop(tab, shifted, x, 10000)[0] == "optimal"
        assert tab.refactorizations == 1
        refuted += 1
    assert refuted >= 15


def test_appended_rows_border_the_inverse():
    rng = np.random.default_rng(33)
    bordered = 0
    for _ in range(40):
        n, m = int(rng.integers(3, 10)), int(rng.integers(1, 8))
        lp = _random_bounded_lp(rng, n, m)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        # rows that the optimum meets with room to spare: the old vertex stays
        # optimal, and its bordered inverse inverts the extended basis
        for _ in range(int(rng.integers(1, 4))):
            row = rng.normal(size=n)
            lp.add_row(row, LESS, float(row @ sol.x) + rng.uniform(0.1, 1.0))
        warm = solve(lp, sol)
        assert warm.status == "optimal" and warm.refactorizations == 0
        assert warm.iterations == warm.dual_iterations == 0
        assert np.allclose(warm.x, sol.x, rtol=0.0, atol=1e-12)
        # and a cut through the optimum, which the dual simplex repairs
        row = rng.normal(size=n)
        lp.add_row(row, LESS, float(row @ sol.x) - 0.3)
        cut = solve(lp, warm)
        _assert_same_solve(cut, solve(lp), lp)
        for s in (warm, cut):
            if s.status == "optimal":
                B = np.hstack([lp.rows[:len(s.basis)], np.eye(len(s.basis))])[:, s.basis]
                assert np.abs(s.binv @ B - np.eye(len(s.basis))).max() <= 1e-9
        bordered += 1
    assert bordered >= 25


def test_perturbed_inverse_fails_the_residual_check():
    rng = np.random.default_rng(34)
    checked = 0
    for _ in range(30):
        lp = _random_bounded_lp(rng, int(rng.integers(3, 10)), int(rng.integers(2, 8)))
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        # off by 1e-8 per entry: the warm probe accepts it, the residual check does not
        binv = sol.binv + 1e-8 * rng.choice([-1.0, 1.0], size=sol.binv.shape)
        warm = solve(lp, LpSolution("optimal", x=sol.x, basis=sol.basis, binv=binv))
        assert warm.warm_used and warm.refactorizations == 1
        assert warm.iterations == warm.dual_iterations == 0
        assert abs(warm.objective - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))
        m = len(lp.rows)
        B = np.hstack([lp.rows, np.eye(m)])[:, warm.basis]
        assert np.abs(warm.binv @ B - np.eye(m)).max() <= 1e-12
        status, value = _referee(lp)
        assert status == "optimal" and abs(warm.objective - value) <= 1e-9 * max(1.0, abs(value))
        checked += 1
    assert checked >= 20
