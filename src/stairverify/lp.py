"""Bundled dense LP solver: bounded-variable primal simplex with Bland's rule.

Instances at desk scale (hundreds of variables) do not justify sparse
machinery, so everything is dense numpy. The solver is the single numeric
authority for the toolkit: pivot tolerance 1e-9, feasibility tolerance 1e-7.

An LP is one dense (m, n) row matrix with its row senses and right-hand
sides, validated once when it is made. Every solve, with rows or without,
takes one path: the tableau [A | I] appends one slack per row, bounded by the
row's sense, to the variable bounds. Infinite bounds use the sentinel +/-1e30
and never enter arithmetic beyond comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

INF = 1e30
PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

LESS, EQUAL, GREATER = "<=", "=", ">="


@dataclass
class LinearProgram:
    """min/max c.x  subject to  rows @ x (senses) rhs  and per-variable bounds;
    `rows` is (m, n), `senses` and `rhs` have m entries, validated once."""

    sense: str  # "max" | "min"
    objective: np.ndarray
    rows: np.ndarray | None = None
    senses: np.ndarray | None = None
    rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        if self.sense not in ("max", "min"):
            raise ParameterError("sense must be 'max' or 'min'")
        self.lower = np.full(n, -INF) if self.lower is None else np.asarray(self.lower, dtype=float)
        self.upper = np.full(n, INF) if self.upper is None else np.asarray(self.upper, dtype=float)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ParameterError("bounds must match the objective length")
        self.rows = np.zeros((0, n)) if self.rows is None else np.asarray(self.rows, dtype=float)
        self.senses = np.array([] if self.senses is None else self.senses, dtype=str)
        self.rhs = np.array([] if self.rhs is None else self.rhs, dtype=float)
        m = self.senses.size
        if self.rows.shape != (m, n) or self.senses.shape != (m,) or self.rhs.shape != (m,):
            raise ParameterError("rows must be an (m, n) matrix with m senses and rhs")
        valid = (self.senses == LESS) | (self.senses == EQUAL) | (self.senses == GREATER)
        if not valid.all():
            raise ParameterError(f"bad row sense '{self.senses[~valid][0]}'")
        if not (np.all(np.isfinite(self.rows)) and np.all(np.isfinite(self.rhs))):
            raise ParameterError("row coefficients must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.size

    def add_row(self, coeffs, sense: str, rhs: float) -> None:
        """Append one row and validate the grown LP (for LPs built by hand)."""
        if np.shape(coeffs) != (self.num_vars,):
            raise ParameterError("row length must match the variable count")
        grown = LinearProgram(self.sense, self.objective, np.vstack([self.rows, coeffs]),
                              np.append(self.senses, sense), np.append(self.rhs, rhs),
                              self.lower, self.upper)
        self.rows, self.senses, self.rhs = grown.rows, grown.senses, grown.rhs


@dataclass
class LpSolution:
    status: str                      # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None          # per row, user sense
    basis: list[int] | None = None           # column indices incl. slacks
    iterations: int = 0                      # phase 2
    phase1_iterations: int = 0
    warm_used: bool = False                  # started from the `warm` solution


class _Tableau:
    """Working state of one solve: columns = structurals + slacks + artificials."""

    def __init__(self, lp: LinearProgram):
        m, n = lp.rows.shape
        self.m, self.n = m, n
        self.A = np.hstack([lp.rows, np.eye(m)])
        # slack i of row i: >= 0 under LESS, <= 0 under GREATER, 0 under EQUAL
        self.lower = np.concatenate([lp.lower, np.where(lp.senses == GREATER, -INF, 0.0)])
        self.upper = np.concatenate([lp.upper, np.where(lp.senses == LESS, INF, 0.0)])
        self.b = lp.rhs
        self.ncols = n + m

    def refactor(self):
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis") from exc
        self.updates = 0   # product-form updates since this factorization


def _initial_point(tab: _Tableau) -> np.ndarray:
    """Every column at its bound nearest zero, or at zero when it has none."""
    has_lo, has_hi = tab.lower > -INF, tab.upper < INF
    at_lo = has_lo & (~has_hi | (np.abs(tab.lower) <= np.abs(tab.upper)))
    return np.where(at_lo, tab.lower, np.where(has_hi, tab.upper, 0.0))


def _set_basic_values(tab: _Tableau, x: np.ndarray) -> None:
    """Solve for the basic values given the nonbasic ones."""
    nonbasic = np.ones(tab.ncols, dtype=bool)
    nonbasic[tab.basis] = False
    x[tab.basis] = tab.binv @ (tab.b - tab.A[:, nonbasic] @ x[nonbasic])


def _simplex_loop(tab: _Tableau, cost: np.ndarray, x: np.ndarray,
                  max_iter: int, fixed: np.ndarray) -> tuple[str, int]:
    """Bland-rule bounded-variable primal simplex on a feasible basis."""
    iters = 0
    tab.updates = 0   # the refactor schedule restarts with every loop
    basic_mask = np.zeros(tab.ncols, dtype=bool)
    basic_mask[tab.basis] = True
    while True:
        if iters >= max_iter:
            raise NumericalError("cycling guard exceeded")
        y = cost[tab.basis] @ tab.binv
        d = cost - y @ tab.A
        entering = -1
        direction = 0.0
        for j in range(tab.ncols):
            if basic_mask[j] or fixed[j]:
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
        if not _move(tab, x, entering, direction, on_bound, basic_mask):
            return "unbounded", iters
        iters += 1


def _move(tab: _Tableau, x: np.ndarray, entering: int, direction: float,
          on_bound: bool, basic_mask: np.ndarray) -> bool:
    """Move `entering` in `direction` until its own bound or a basic variable
    blocks, pivoting it into the basis in the second case; False when nothing
    blocks (an unbounded ray)."""
    col = tab.binv @ tab.A[:, entering]
    u = col if direction > 0 else -col
    # max step before a basic variable or the entering bound blocks
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
        # a column inside its box (a warm start's point) stops at the target
        flip = direction * (target - x[entering])
    if flip < step - PIVOT_TOL:
        # bound flip: entering crosses its box without changing the basis
        x[entering] += direction * flip
        x[tab.basis] -= flip * u
        return True
    if step >= INF:
        return False
    if abs(col[leaving]) < FEAS_TOL and tab.updates:
        # a tiny pivot on an updated inverse may be drift: recheck on a fresh one
        tab.refactor()
        return _move(tab, x, entering, direction, on_bound, basic_mask)

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
        _update_inverse(tab.binv, col, leaving)
    return True


def _settle_interior(tab: _Tableau, cost: np.ndarray, x: np.ndarray, fixed: np.ndarray) -> None:
    """Move each nonbasic column that phase 2 left strictly inside its box (a
    start point's y, at a reduced cost of about 0) along its ratio test, against
    that cost's sign, to a bound or into the basis: a vertex, of the same value
    within PIVOT_TOL. A free column that nothing blocks either way stays put."""
    basic_mask = np.zeros(tab.ncols, dtype=bool)
    basic_mask[tab.basis] = True
    inside = (x > tab.lower + FEAS_TOL) & (x < tab.upper - FEAS_TOL) & ~basic_mask & ~fixed
    for j in np.flatnonzero(inside):
        d = cost[j] - (cost[tab.basis] @ tab.binv) @ tab.A[:, j]
        direction = -1.0 if d > 0 else 1.0
        if not _move(tab, x, j, direction, False, basic_mask):
            _move(tab, x, j, -direction, False, basic_mask)


def _update_inverse(binv: np.ndarray, col: np.ndarray, leaving: int) -> None:
    """Product-form update of the basis inverse in place; `col` = binv @ entering column."""
    binv[leaving, :] /= col[leaving]
    pivot_row = binv[leaving, :].copy()
    binv -= np.outer(col, pivot_row)
    binv[leaving, :] = pivot_row


def solve(lp: LinearProgram, warm: LpSolution | None = None) -> LpSolution:
    """Solve the LP; optimal solutions are vertex (basic) solutions.

    `warm` is an earlier solution of the same LP before rows were appended
    (row i keeps slack column n + i) or bounds were tightened. Its basis,
    extended by the slacks of the appended rows, and its point, clipped into
    the current bounds, start the solve when that basis is still nonsingular;
    any numerical failure under a warm start falls back to the cold start
    before being reported. A `warm` with an empty basis is a start point, its
    x clipped into the bounds on the slack basis: phase 1 runs only from a
    point that misses a row by more than FEAS_TOL. Bounds that cross by more
    than FEAS_TOL make the LP infeasible before any solve.
    """
    if np.any(lp.lower > lp.upper + FEAS_TOL):
        return LpSolution(status="infeasible")
    try:
        return _solve_once(lp, warm)
    except NumericalError:
        if warm is None:
            raise
        return _solve_once(lp, None)


def _extended_basis(warm: LpSolution | None, n: int, m: int) -> list[int] | None:
    """The warm basis plus the slacks of the rows appended since, if usable."""
    if warm is None or warm.basis is None or warm.x is None or warm.x.size != n:
        return None
    old_m = len(warm.basis)
    if old_m > m or any(j >= n + old_m for j in warm.basis):
        return None
    return list(warm.basis) + list(range(n + old_m, n + m))


def _solve_once(lp: LinearProgram, warm: LpSolution | None) -> LpSolution:
    tab = _Tableau(lp)
    m, n = tab.m, tab.n
    max_iter = 2000 + 200 * (m + n)   # cycling guard

    x = _initial_point(tab)
    basis = _extended_basis(warm, n, m)
    warm_used = basis is not None
    # a singular warm basis raises here, and `solve` restarts cold
    tab.basis = basis if warm_used else list(range(n, n + m))
    tab.refactor()
    if warm_used:
        # nonbasic structurals resume at the previous vertex
        x[:n] = np.clip(warm.x, lp.lower, lp.upper)

    _set_basic_values(tab, x)

    # Phase 1: shift infeasible basic values onto artificial columns, each
    # the (signed) column of the basic variable it displaces, so the other
    # basic values stay put; on the cold slack basis these are +-e_i.
    viol_lo = np.maximum(tab.lower[tab.basis] - x[tab.basis], 0.0)
    viol_hi = np.maximum(x[tab.basis] - tab.upper[tab.basis], 0.0)
    art_cols: list[int] = []
    displaced: list[int] = []
    it1 = 0
    if np.any(viol_lo > FEAS_TOL) or np.any(viol_hi > FEAS_TOL):
        sign = np.where(viol_lo > 0, -1.0, 1.0)
        mag = viol_lo + viol_hi
        keep = np.flatnonzero(mag > FEAS_TOL)
        displaced = [tab.basis[i] for i in keep]
        tab.A = np.hstack([tab.A, tab.A[:, displaced] * sign[keep]])
        tab.lower = np.concatenate([tab.lower, np.zeros(len(keep))])
        tab.upper = np.concatenate([tab.upper, np.full(len(keep), INF)])
        x = np.concatenate([x, np.zeros(len(keep))])
        art_cols = list(range(tab.ncols, tab.ncols + len(keep)))
        tab.ncols += len(keep)
        for pos, i in enumerate(keep):
            bi = tab.basis[i]
            x[bi] = np.clip(x[bi], max(tab.lower[bi], -INF), min(tab.upper[bi], INF))
            x[art_cols[pos]] = mag[i]
            tab.basis[i] = art_cols[pos]
        tab.refactor()
        _set_basic_values(tab, x)
        still_lo = np.maximum(tab.lower[tab.basis] - x[tab.basis], 0.0)
        still_hi = np.maximum(x[tab.basis] - tab.upper[tab.basis], 0.0)
        if float(np.maximum(still_lo, still_hi).max()) > FEAS_TOL:
            raise NumericalError("inconsistent phase-1 start")

        cost1 = np.zeros(tab.ncols)
        cost1[art_cols] = 1.0
        fixed = np.zeros(tab.ncols, dtype=bool)
        threshold = FEAS_TOL * max(1.0, np.abs(tab.b).max())
        status, it1 = _simplex_loop(tab, cost1, x, max_iter, fixed)
        if status == "optimal" and float(cost1 @ x) > threshold:
            # the updated inverse may have drifted: refresh it, and if the
            # artificials still carry weight, let phase 1 go on from there
            tab.refactor()
            _set_basic_values(tab, x)
            if float(cost1 @ x) > threshold:
                status, more = _simplex_loop(tab, cost1, x, max_iter, fixed)
                it1 += more
        if status != "optimal" or float(cost1 @ x) > threshold:
            return LpSolution(status="infeasible", phase1_iterations=it1,
                              warm_used=warm_used)
        # pin artificials at zero for phase 2
        tab.lower[art_cols] = 0.0
        tab.upper[art_cols] = 0.0
        x[art_cols] = 0.0

    cost = np.zeros(tab.ncols)
    user_cost = lp.objective if lp.sense == "min" else -lp.objective
    cost[:n] = user_cost
    fixed = np.zeros(tab.ncols, dtype=bool)
    fixed[art_cols] = True
    status, iters = _simplex_loop(tab, cost, x, max_iter, fixed)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters,
                          phase1_iterations=it1, warm_used=warm_used)
    _settle_interior(tab, cost, x, fixed)

    # clean recomputation of the basic values from the final basis
    tab.refactor()
    _set_basic_values(tab, x)

    y = cost[tab.basis] @ tab.binv
    sense_sign = 1.0 if lp.sense == "min" else -1.0
    obj = float(lp.objective @ x[:n])
    # an artificial still basic (at zero) stands for the column it displaced
    back = dict(zip(art_cols, displaced))
    return LpSolution(
        status="optimal",
        x=x[:n].copy(),
        objective=obj,
        duals=sense_sign * y,
        basis=[back.get(j, j) for j in tab.basis],
        iterations=iters,
        phase1_iterations=it1,
        warm_used=warm_used,
    )
