"""Bundled dense LP solver: bounded-variable primal simplex with Bland's rule.

Instances at desk scale (hundreds of variables) do not justify sparse
machinery, so everything is dense numpy. The solver is the single numeric
authority for the toolkit: pivot tolerance 1e-9, feasibility tolerance 1e-7.

An LP is one dense (m, n) row matrix with its row senses and right-hand
sides, validated once when it is made. Every solve, with rows or without,
takes one path: the tableau [A | I] appends one slack per row, bounded by the
row's sense, to the variable bounds. Infinite bounds use the sentinel +/-1e30
and never enter arithmetic beyond comparisons.

Each optimal solution carries the clean inverse of its final basis, and a
solve warm-started from it with as many rows takes a copy of that inverse
instead of inverting again (branch-and-bound children, the next target of a
query); after appended rows the basis is inverted afresh.
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
        if any(np.isnan(v).any() for v in (self.objective, self.lower, self.upper)):
            raise ParameterError("objective and bounds must not be NaN")
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
    binv: np.ndarray | None = None           # inverse of the columns of `basis`
    refactorizations: int = 0                # basis inversions this solve made


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
        self.refactorizations = 0

    def refactor(self):
        try:
            self.use(np.linalg.inv(self.A[:, self.basis]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis") from exc
        self.refactorizations += 1

    def use(self, binv: np.ndarray) -> None:
        """Take `binv`, the clean inverse of the current basis."""
        self.binv = binv
        self.updates = 0   # product-form updates since this factorization
        self.fresh = True  # no pivot since


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
    movable = ~fixed & (tab.upper - tab.lower > PIVOT_TOL)   # a pinned column never moves
    has_lo, lo_tol = tab.lower > -INF, tab.lower + FEAS_TOL
    has_hi, hi_tol = tab.upper < INF, tab.upper - FEAS_TOL
    while True:
        if iters >= max_iter:
            raise NumericalError("cycling guard exceeded")
        y = cost[tab.basis] @ tab.binv
        d = cost - y @ tab.A
        at_lower, at_upper = has_lo & (x <= lo_tol), has_hi & (x >= hi_tol)
        inside = ~(at_lower | at_upper)
        eligible = movable & ~basic_mask & ((at_lower & (d < -PIVOT_TOL))
                                            | (at_upper & (d > PIVOT_TOL))
                                            | (inside & (np.abs(d) > PIVOT_TOL)))
        # Bland's rule: the first eligible column, moved against its reduced cost
        first = np.flatnonzero(eligible)[:1]
        if not first.size:
            return "optimal", iters
        entering = int(first[0])
        direction = 1.0 if d[entering] < 0 else -1.0
        if not _move(tab, x, entering, direction, not inside[entering], basic_mask):
            return "unbounded", iters
        iters += 1


def _move(tab: _Tableau, x: np.ndarray, entering: int, direction: float,
          on_bound: bool, basic_mask: np.ndarray) -> bool:
    """Move `entering` in `direction` until its own bound or a basic variable
    blocks, pivoting it into the basis in the second case; False when nothing
    blocks (an unbounded ray)."""
    col = tab.binv @ tab.A[:, entering]
    u = col if direction > 0 else -col
    # max step before a basic variable or the entering bound blocks: the rows
    # falling to a finite lower or rising to a finite upper bound
    lo, hi, xb = tab.lower[tab.basis], tab.upper[tab.basis], x[tab.basis]
    down = (u > PIVOT_TOL) & (lo > -INF)
    rows = np.flatnonzero(down | ((u < -PIVOT_TOL) & (hi < INF)))
    down = down[rows]
    ratios = np.where(down, (xb[rows] - lo[rows]) / u[rows], (hi[rows] - xb[rows]) / -u[rows])
    step, leaving, leave_to, out = INF, -1, 0.0, -1
    # in row order, ties within PIVOT_TOL (chained) go to the smallest basis index
    for i, r, bi, to in zip(rows.tolist(), ratios.tolist(), tab.basis[rows].tolist(),
                            np.where(down, lo[rows], hi[rows]).tolist()):
        if r < step - PIVOT_TOL or (r < step + PIVOT_TOL and (leaving < 0 or bi < out)):
            step, leaving, leave_to, out = r, i, to, bi
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
    x[out] = leave_to
    tab.basis[leaving] = entering
    basic_mask[out] = False
    basic_mask[entering] = True
    tab.updates += 1
    if tab.updates >= 64:
        tab.refactor()
    else:
        _update_inverse(tab.binv, col, leaving)
        tab.fresh = False
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
    before being reported. `warm.binv`, the inverse of its basis, is copied
    when no row was appended and it inverts this LP's basis columns (one
    O(m^2) probe, which a warm solution of another LP fails); otherwise the
    basis is inverted afresh. A `warm` with an empty basis is a start point, its
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


def _inverts(binv: np.ndarray | None, B: np.ndarray) -> bool:
    """Whether `binv` maps B @ v back to a fixed probe vector v."""
    probe = np.linspace(1.0, 2.0, len(B))
    return (binv is not None and binv.shape == B.shape
            and float(np.abs(binv @ (B @ probe) - probe).max()) <= FEAS_TOL)


def _solve_once(lp: LinearProgram, warm: LpSolution | None) -> LpSolution:
    tab = _Tableau(lp)
    m, n = tab.m, tab.n
    max_iter = 2000 + 200 * (m + n)   # cycling guard

    x = _initial_point(tab)
    basis = _extended_basis(warm, n, m)
    warm_used = basis is not None
    tab.basis = np.array(basis if warm_used else range(n, n + m), dtype=np.intp)
    if not (warm_used and warm.basis):
        tab.use(np.eye(m))   # the slack basis
    elif len(warm.basis) == m and _inverts(warm.binv, tab.A[:, tab.basis]):
        tab.use(warm.binv.copy())   # the updates write in place
    else:
        tab.refactor()   # a singular warm basis raises here, and `solve` restarts cold
    if warm_used:
        # nonbasic structurals resume at the previous vertex
        x[:n] = np.clip(warm.x, lp.lower, lp.upper)

    _set_basic_values(tab, x)

    # Phase 1: shift infeasible basic values onto artificial columns, each
    # the (signed) column of the basic variable it displaces, so the other
    # basic values stay put; on the cold slack basis these are +-e_i.
    viol_lo = np.maximum(tab.lower[tab.basis] - x[tab.basis], 0.0)
    viol_hi = np.maximum(x[tab.basis] - tab.upper[tab.basis], 0.0)
    displaced, art_sign = np.zeros(0, dtype=np.intp), np.zeros(0)
    it1 = 0
    if np.any(viol_lo > FEAS_TOL) or np.any(viol_hi > FEAS_TOL):
        mag = viol_lo + viol_hi
        keep = np.flatnonzero(mag > FEAS_TOL)
        displaced, art_sign = tab.basis[keep], np.where(viol_lo[keep] > 0, -1.0, 1.0)
        tab.A = np.hstack([tab.A, tab.A[:, displaced] * art_sign])
        tab.lower = np.concatenate([tab.lower, np.zeros(len(keep))])
        tab.upper = np.concatenate([tab.upper, np.full(len(keep), INF)])
        x = np.concatenate([x, mag[keep]])
        x[displaced] = np.clip(x[displaced], tab.lower[displaced], tab.upper[displaced])
        tab.basis[keep] = np.arange(tab.ncols, tab.ncols + len(keep))
        tab.ncols += len(keep)
        tab.binv[keep] *= art_sign[:, None]   # the inverse of the signed columns
        _set_basic_values(tab, x)
        still_lo = np.maximum(tab.lower[tab.basis] - x[tab.basis], 0.0)
        still_hi = np.maximum(x[tab.basis] - tab.upper[tab.basis], 0.0)
        if float(np.maximum(still_lo, still_hi).max()) > FEAS_TOL:
            raise NumericalError("inconsistent phase-1 start")

        cost1 = np.zeros(tab.ncols)
        cost1[n + m:] = 1.0
        fixed = np.zeros(tab.ncols, dtype=bool)
        threshold = FEAS_TOL * max(1.0, np.abs(tab.b).max())
        status, it1 = _simplex_loop(tab, cost1, x, max_iter, fixed)
        if status == "optimal" and float(cost1 @ x) > threshold:
            # an updated inverse may have drifted: refresh it, and if the
            # artificials still carry weight, let phase 1 go on from there
            if not tab.fresh:
                tab.refactor()
            _set_basic_values(tab, x)
            if float(cost1 @ x) > threshold:
                status, more = _simplex_loop(tab, cost1, x, max_iter, fixed)
                it1 += more
        if status != "optimal" or float(cost1 @ x) > threshold:
            return LpSolution(status="infeasible", phase1_iterations=it1,
                              warm_used=warm_used, refactorizations=tab.refactorizations)
        # pin artificials at zero for phase 2
        tab.lower[n + m:] = 0.0
        tab.upper[n + m:] = 0.0
        x[n + m:] = 0.0

    cost = np.zeros(tab.ncols)
    user_cost = lp.objective if lp.sense == "min" else -lp.objective
    cost[:n] = user_cost
    fixed = np.zeros(tab.ncols, dtype=bool)
    fixed[n + m:] = True
    status, iters = _simplex_loop(tab, cost, x, max_iter, fixed)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters, phase1_iterations=it1,
                          warm_used=warm_used, refactorizations=tab.refactorizations)
    _settle_interior(tab, cost, x, fixed)

    # clean recomputation of the basic values from the final basis, whose
    # inverse is clean already when nothing pivoted since it was taken
    if not tab.fresh:
        tab.refactor()
    _set_basic_values(tab, x)

    y = cost[tab.basis] @ tab.binv
    sense_sign = 1.0 if lp.sense == "min" else -1.0
    obj = float(lp.objective @ x[:n])
    # an artificial still basic (at zero) stands for the column it displaced,
    # whose inverse row is the artificial's times its sign
    held = np.flatnonzero(tab.basis >= n + m)
    art = tab.basis[held] - (n + m)
    tab.basis[held] = displaced[art]
    tab.binv[held] *= art_sign[art, None]
    return LpSolution(
        status="optimal",
        x=x[:n].copy(),
        objective=obj,
        duals=sense_sign * y,
        basis=tab.basis.tolist(),
        iterations=iters,
        phase1_iterations=it1,
        warm_used=warm_used,
        binv=tab.binv,
        refactorizations=tab.refactorizations,
    )
