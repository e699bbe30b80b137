"""Bundled dense LP solver: bounded-variable primal and dual simplex.

Instances at desk scale (hundreds of variables) do not justify sparse
machinery, so everything is dense numpy. The solver is the single numeric
authority for the toolkit: pivot tolerance 1e-9, feasibility tolerance 1e-7.

An LP is one dense (m, n) row matrix with its row senses and right-hand
sides, validated once when it is made. Every solve, with rows or without,
takes one path: the tableau [A | I] appends one slack per row, bounded by the
row's sense, to the variable bounds; a model's LPs share one `Stacked` [A | I].
Infinite bounds use the sentinel +/-1e30, compared but never computed with.

A start whose basic values lie outside their bounds (a cold start, a
branch-and-bound child, appended cut rows, a new objective) is repaired in
one way: nonbasic columns that the objective would move go to the bound
they move toward, or, where that bound is infinite, keep their place under
a temporarily shifted cost, so the basis is dual feasible; the bounded dual
simplex then reaches a feasible basis. The primal simplex finishes under
the true cost by Bland's rule.

Each optimal solution carries the inverse of its final basis. A warm solve
takes it instead of inverting again: a copy under the same rows, bordered
as [[B^-1, 0], [-R_B B^-1, I]] after rows R were appended. No solve inverts
its final basis: the basic values are recomputed from the updated inverse,
which is inverted afresh only when their row residual exceeds 1e-9 relative
to the right-hand side, or after 64 product-form updates. An infeasibility
proof on an updated inverse recomputes its row with one solve of B^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError

INF = 1e30
PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

LESS, EQUAL, GREATER = "<=", "=", ">="


class Stacked:
    """[rows | I] of a row set; slack i >= 0 under LESS, <= 0 under GREATER, 0 under EQUAL."""

    def __init__(self, rows: np.ndarray, senses: np.ndarray):
        self.A = np.hstack([rows, np.eye(len(senses))])
        self.lower = np.where(senses == GREATER, -INF, 0.0)
        self.upper = np.where(senses == LESS, INF, 0.0)


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
    stacked: Stacked | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.stacked is not None:
            return   # a model's LP: the model checked each row as it wrote it
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
        self.stacked = None


@dataclass
class LpSolution:
    status: str                      # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None          # per row, user sense
    basis: list[int] | None = None           # column indices incl. slacks
    iterations: int = 0                      # primal simplex
    dual_iterations: int = 0                 # dual simplex
    warm_used: bool = False                  # started from the `warm` solution
    binv: np.ndarray | None = None           # inverse of the columns of `basis`
    binv_updates: int = 0                    # product-form updates since its inversion
    refactorizations: int = 0                # basis inversions this solve made
    lp: LinearProgram | None = field(default=None, repr=False, compare=False)   # the LP solved


class _Tableau:
    """Working state of one solve: columns = n structurals + m slacks."""

    def __init__(self, lp: LinearProgram):
        m, n = lp.rows.shape
        self.m, self.n = m, n
        stacked = lp.stacked or Stacked(lp.rows, lp.senses)
        self.A = stacked.A
        self.lower = np.concatenate([lp.lower, stacked.lower])
        self.upper = np.concatenate([lp.upper, stacked.upper])
        self.b = lp.rhs
        self.refactorizations = 0

    def refactor(self):
        try:
            self.use(np.linalg.inv(self.A[:, self.basis]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis") from exc
        self.refactorizations += 1

    def use(self, binv: np.ndarray, updates: int = 0) -> None:
        """Take `binv`, the inverse of the current basis after `updates`
        product-form updates since it was inverted."""
        self.binv = binv
        self.updates = updates


def _initial_point(tab: _Tableau) -> np.ndarray:
    """Every column at its bound nearest zero, or at zero when it has none."""
    has_lo, has_hi = tab.lower > -INF, tab.upper < INF
    at_lo = has_lo & (~has_hi | (np.abs(tab.lower) <= np.abs(tab.upper)))
    return np.where(at_lo, tab.lower, np.where(has_hi, tab.upper, 0.0))


def _set_basic_values(tab: _Tableau, x: np.ndarray) -> None:
    """Solve for the basic values given the nonbasic ones."""
    x[tab.basis] = 0.0   # so that A @ x sums the nonbasic columns alone
    x[tab.basis] = tab.binv @ (tab.b - tab.A @ x)


def _reduced_costs(tab: _Tableau, cost: np.ndarray) -> np.ndarray:
    return cost - (cost[tab.basis] @ tab.binv) @ tab.A


def _bound_masks(tab: _Tableau, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns within FEAS_TOL of their finite lower and upper bounds."""
    return ((tab.lower > -INF) & (x <= tab.lower + FEAS_TOL),
            (tab.upper < INF) & (x >= tab.upper - FEAS_TOL))


def _improving(d: np.ndarray, at_lower: np.ndarray, at_upper: np.ndarray, movable: np.ndarray):
    """The `movable` columns whose move off their bound against the reduced
    cost `d` lowers the cost, and the mask of columns inside their box."""
    inside = ~(at_lower | at_upper)
    return movable & ((at_lower & (d < -PIVOT_TOL)) | (at_upper & (d > PIVOT_TOL))
                      | (inside & (np.abs(d) > PIVOT_TOL))), inside


def _simplex_loop(tab: _Tableau, cost: np.ndarray, x: np.ndarray,
                  max_iter: int) -> tuple[str, int]:
    """Bland-rule bounded-variable primal simplex on a feasible basis."""
    iters = 0
    basic_mask = np.zeros(tab.m + tab.n, dtype=bool)
    basic_mask[tab.basis] = True
    movable = tab.upper - tab.lower > PIVOT_TOL   # a pinned column never moves
    has_lo, lo_tol = tab.lower > -INF, tab.lower + FEAS_TOL
    has_hi, hi_tol = tab.upper < INF, tab.upper - FEAS_TOL
    while True:
        if iters >= max_iter:
            raise NumericalError("cycling guard exceeded")
        d = _reduced_costs(tab, cost)
        eligible, inside = _improving(d, has_lo & (x <= lo_tol), has_hi & (x >= hi_tol),
                                      movable & ~basic_mask)
        # Bland's rule: the first eligible column, moved against its reduced cost
        first = np.flatnonzero(eligible)[:1]
        if not first.size:
            return "optimal", iters
        entering = int(first[0])
        direction = 1.0 if d[entering] < 0 else -1.0
        if not _move(tab, x, entering, direction, not inside[entering], basic_mask):
            return "unbounded", iters
        iters += 1


def _dual_loop(tab: _Tableau, cost: np.ndarray, x: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Bounded dual simplex from a dual feasible basis, until the basic values
    are within their bounds. The basic column farthest outside its box leaves
    at the bound it crosses. Of the nonbasic columns whose move off their
    bound pushes it back, the dual ratio test enters the one whose reduced
    cost reaches 0 first, ties within PIVOT_TOL to the largest |pivot|. A
    leaving row that no column can push proves the LP infeasible, on a
    fresh inverse or a fresh row (`_proves_infeasible`)."""
    iters = 0
    basic_mask = np.zeros(tab.m + tab.n, dtype=bool)
    basic_mask[tab.basis] = True
    movable = tab.upper - tab.lower > PIVOT_TOL
    while True:
        lo, hi, xb = tab.lower[tab.basis], tab.upper[tab.basis], x[tab.basis]
        below = lo - xb
        r = int(np.argmax(np.maximum(below, xb - hi)))
        if max(below[r], xb[r] - hi[r]) <= FEAS_TOL:
            return "optimal", iters
        if iters >= max_iter:
            raise NumericalError("cycling guard exceeded")
        target = lo[r] if below[r] > 0 else hi[r]
        # row r of binv @ [A I], signed so that raising a column with a
        # negative entry moves x[basis[r]] toward its target
        sign = 1.0 if below[r] > 0 else -1.0
        alpha, free = (tab.binv[r] @ tab.A) * sign, movable & ~basic_mask
        cand = _pushers(tab, x, alpha, free)
        if cand.size:
            ratio = np.maximum(-_reduced_costs(tab, cost)[cand] / alpha[cand], 0.0)
            ties = cand[ratio <= ratio.min() + PIVOT_TOL]
            entering = int(ties[np.argmax(np.abs(alpha[ties]))])
            col = tab.binv @ tab.A[:, entering]
        if not cand.size or (abs(col[r]) < FEAS_TOL and tab.updates):
            # no column, or a tiny pivot, on an updated inverse may be drift
            if not tab.updates or (not cand.size and _proves_infeasible(tab, x, r, sign, free)):
                return "infeasible", iters
            tab.refactor()
            _set_basic_values(tab, x)
            continue
        step = (xb[r] - target) / col[r]
        x[entering] += step
        x[tab.basis] -= step * col
        out = tab.basis[r]
        x[out] = target
        basic_mask[out] = False
        basic_mask[entering] = True
        _pivot(tab, col, r, entering)
        iters += 1


def _pushers(tab: _Tableau, x: np.ndarray, alpha: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The `free` columns whose move off their bound pushes the signed row `alpha` up."""
    at_lo, at_hi = _bound_masks(tab, x)
    return np.flatnonzero(free & (((alpha < -PIVOT_TOL) & ~at_hi) | ((alpha > PIVOT_TOL) & ~at_lo)))


def _proves_infeasible(tab: _Tableau, x: np.ndarray, r: int, sign: float,
                       free: np.ndarray) -> bool:
    """Whether row r of B^-1, afresh from one solve with B^T, confirms the
    proof: x_B[r] still misses its bound on the `sign` side, and no `free`
    column pushes it back."""
    try:
        row = np.linalg.solve(tab.A[:, tab.basis].T, np.eye(tab.m)[r])
    except np.linalg.LinAlgError:
        return False
    j = tab.basis[r]
    value = x[j] + row @ (tab.b - tab.A @ x)   # row @ A x_B is x_B[r]
    miss = tab.lower[j] - value if sign > 0 else value - tab.upper[j]
    return miss > FEAS_TOL and not _pushers(tab, x, sign * (row @ tab.A), free).size


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
    basic_mask[out] = False
    basic_mask[entering] = True
    _pivot(tab, col, leaving, entering)
    return True


def _pivot(tab: _Tableau, col: np.ndarray, leaving: int, entering: int) -> None:
    """Put `entering` into the basis at row `leaving`; `col` = binv @ its column."""
    tab.basis[leaving] = entering
    tab.updates += 1
    if tab.updates >= 64:
        tab.refactor()
    else:
        _update_inverse(tab.binv, col, leaving)


def _settle_interior(tab: _Tableau, cost: np.ndarray, x: np.ndarray) -> None:
    """Move each nonbasic column that the primal simplex left strictly inside
    its box (a start point's y, at a reduced cost of about 0) along its ratio
    test, against that cost's sign, to a bound or into the basis: a vertex, of
    the same value within PIVOT_TOL. A free column that nothing blocks either
    way stays put."""
    basic_mask = np.zeros(tab.m + tab.n, dtype=bool)
    basic_mask[tab.basis] = True
    inside = (x > tab.lower + FEAS_TOL) & (x < tab.upper - FEAS_TOL) & ~basic_mask
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
    (row i keeps slack column n + i), bounds were tightened or the objective
    changed. Its basis, extended by the slacks of the appended rows, and its
    point, clipped into the current bounds, start the solve when that basis
    is still nonsingular; any numerical failure under a warm start (the
    cycling guard included) falls back to the cold start before being
    reported. `warm.binv`, the inverse of its basis, is copied from a `warm`
    of the same `stacked` tableau, else taken when it inverts this LP's old
    basis columns (one O(m^2) probe), bordered by the appended rows, else
    inverted afresh. Basic values outside their bounds, from any start, are
    repaired by the bounded dual simplex (`dual_iterations`) after
    `_dual_start`, which a `warm` of the same tableau and objective skips,
    its basis being dual feasible; the primal simplex (`iterations`) then
    finishes. A `warm` with an empty basis is a start point, its x clipped
    into the bounds on the slack basis: the dual simplex runs only from a
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
    if old_m > m or max(warm.basis, default=-1) >= n + old_m:
        return None
    return list(warm.basis) + list(range(n + old_m, n + m))


def _inverts(binv: np.ndarray | None, B: np.ndarray) -> bool:
    """Whether `binv` maps B @ v back to a fixed probe vector v."""
    probe = np.linspace(1.0, 2.0, len(B))
    return (binv is not None and binv.shape == B.shape
            and float(np.abs(binv @ (B @ probe) - probe).max()) <= FEAS_TOL)


def _dual_start(tab: _Tableau, cost: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Make the basis dual feasible for the returned cost: each nonbasic
    column that the primal simplex would enter moves to the bound it moves
    toward, or, where that bound is infinite, stays under a cost shifted so
    that its reduced cost is 0 (the cost modification of Koberstein 2005).
    The basic values are recomputed when a column moved."""
    d = _reduced_costs(tab, cost)
    movable = tab.upper - tab.lower > PIVOT_TOL
    movable[tab.basis] = False
    enter = _improving(d, *_bound_masks(tab, x), movable)[0]
    to = np.where(d < 0, tab.upper, tab.lower)
    flip = enter & (np.abs(to) < INF)
    shifted = np.where(enter & ~flip, cost - d, cost)
    if flip.any():
        x[flip] = to[flip]
        _set_basic_values(tab, x)
    return shifted


def _solve_once(lp: LinearProgram, warm: LpSolution | None) -> LpSolution:
    tab = _Tableau(lp)
    m, n = tab.m, tab.n
    max_iter = 2000 + 200 * (m + n)   # cycling guard
    cost = np.zeros(n + m)
    cost[:n] = lp.objective if lp.sense == "min" else -lp.objective

    x = _initial_point(tab)
    basis = _extended_basis(warm, n, m)
    warm_used = basis is not None
    tab.basis = np.array(basis if warm_used else range(n, n + m), dtype=np.intp)
    old = len(warm.basis) if warm_used else 0
    same = old and lp.stacked is not None and warm.lp is not None and warm.lp.stacked is lp.stacked
    if not old:
        tab.use(np.eye(m))   # the slack basis
    elif same:
        tab.use(warm.binv.copy(), warm.binv_updates)
    elif _inverts(warm.binv, tab.A[:old, tab.basis[:old]]):
        binv = np.eye(m)
        binv[:old, :old] = warm.binv
        # bordered by the appended rows' entries in the old basis columns
        binv[old:, :old] = -tab.A[old:, tab.basis[:old]] @ warm.binv
        tab.use(binv, warm.binv_updates)
    else:
        tab.refactor()   # a singular warm basis raises here, and `solve` restarts cold
    if warm_used:
        # nonbasic structurals resume at the previous vertex
        x[:n] = np.clip(warm.x, lp.lower, lp.upper)

    _set_basic_values(tab, x)
    it_dual = 0

    def done(status: str, **fields) -> LpSolution:
        return LpSolution(status, dual_iterations=it_dual, warm_used=warm_used,
                          refactorizations=tab.refactorizations, lp=lp, **fields)

    xb, lo, hi = x[tab.basis], tab.lower[tab.basis], tab.upper[tab.basis]
    if np.any(xb < lo - FEAS_TOL) or np.any(xb > hi + FEAS_TOL):
        optimal = same and warm.lp.sense == lp.sense and np.array_equal(warm.lp.objective,
                                                                        lp.objective)
        status, it_dual = _dual_loop(tab, cost if optimal else _dual_start(tab, cost, x), x,
                                     max_iter)
        if status == "infeasible":
            return done("infeasible")

    status, iters = _simplex_loop(tab, cost, x, max_iter)
    if status == "unbounded":
        return done("unbounded", iterations=iters)
    _settle_interior(tab, cost, x)

    # the basic values from the updated inverse, inverted afresh only when
    # those values miss their rows
    _set_basic_values(tab, x)
    scale = max(1.0, np.abs(tab.b).max(initial=0.0))
    if np.abs(tab.A @ x - tab.b).max(initial=0.0) > 1e-9 * scale:
        tab.refactor()
        _set_basic_values(tab, x)

    y = cost[tab.basis] @ tab.binv
    sense_sign = 1.0 if lp.sense == "min" else -1.0
    return done("optimal", x=x[:n].copy(), objective=float(lp.objective @ x[:n]),
                duals=sense_sign * y, basis=tab.basis.tolist(), iterations=iters,
                binv=tab.binv, binv_updates=tab.updates)
