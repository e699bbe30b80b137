"""Fast separation oracle for the per-neuron convex-hull formulation.

Given a staircase neuron and a candidate point (x, y, z), the oracle either
certifies that the point lies inside the hull of the lifted graph or returns
a violated linear inequality. Everything runs on a scaled dual whose extreme
points and extreme rays are {0, +-1}-vectors, so the search reduces to
minimizing a set function psi(K) over piece subsets K, which a single sorted
sweep solves in O((n + k) log(n + k)).

Four sign/direction combinations reduce to one canonical problem
(upper-side separation, common slope s >= 0):

* lower-side separation runs the upper machinery on the negated activation
  with the query output negated;
* a negative common slope is removed by reflecting the pre-activation axis
  (reverse the pieces, flip w and b), which only permutes the z coordinates.

Candidate families searched on the canonical problem:

* two ray families (one per slab-multiplier orientation); a negative minimum
  certifies an unbounded dual, i.e. a violated inequality in (x, z) alone;
* extreme-point families obtained by toggling slab multipliers against the
  slope pattern of the pieces; each candidate is expanded to a full dual
  solution, its genuine objective evaluated, and the minimum compared
  against y to decide membership.

Cut coefficients are always recomputed by exact per-slice maximization
(retrieve_cut), so any alpha yields a valid inequality; candidate-search
errors can only weaken cuts, never make them unsound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pwl as pwl_mod
from .errors import DomainError, FormulationError, InputError, ParameterError
from .network import Neuron
from .pwl import Staircase, as_staircase, staircase_slope

VIOLATION_TOL = 1e-7
RESIDUAL_TOL = 1e-8
UPPER, LOWER = "upper", "lower"
THETA2_ZERO, THETA1_ZERO = "theta2_zero", "theta1_zero"


@dataclass(frozen=True)
class Cut:
    """Linear inequality valid for the lifted hull of one neuron.

    ``y_coef * y <= alpha . x + sum_i zcoef_i z_i + const`` for direction
    "upper" and ">=" for "lower". Ray-derived cuts involve only (x, z); they
    carry ``y_coef = 0`` and are normalized to ``0 <= alpha . x + sum c_i z_i``
    regardless of the direction that produced them.
    """

    direction: str
    alpha: np.ndarray
    zcoef: np.ndarray
    const: float = 0.0
    y_coef: float = 1.0
    neuron_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "zcoef", np.asarray(self.zcoef, dtype=float))

    def rhs_value(self, x, z) -> float:
        return float(self.alpha @ np.asarray(x, dtype=float)
                     + self.zcoef @ np.asarray(z, dtype=float) + self.const)

    def slack(self, x, y, z) -> float:
        """Nonnegative when the point satisfies the cut."""
        r = self.rhs_value(x, z)
        if self.y_coef == 0.0:
            return r
        return r - y if self.direction == UPPER else y - r

    def violation(self, x, y, z) -> float:
        return -self.slack(x, y, z)

    def key(self) -> tuple:
        return (self.direction if self.y_coef != 0.0 else "xz", float(self.y_coef),
                tuple(np.round(self.alpha, 10)), tuple(np.round(self.zcoef, 10)),
                round(self.const, 10))


@dataclass
class DualSolution:
    """A {0, +-1}-patterned solution of the scaled separation dual.

    beta/gamma have one row per piece, theta1/theta2 one entry per piece,
    alpha_scaled one entry per active coordinate. `value` is the genuine
    unscaled dual objective (the separation LP objective).
    """

    beta: np.ndarray
    gamma: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    alpha_scaled: np.ndarray
    value: float
    is_ray: bool = False

    def components(self) -> np.ndarray:
        return np.concatenate([self.beta.ravel(), self.gamma.ravel(),
                               self.theta1, self.theta2, self.alpha_scaled])

    def check_structure(self, single_theta_family: bool = False) -> None:
        comps = self.components()
        if comps.size and (np.abs(comps - np.round(comps)).max() > 1e-12
                           or np.abs(comps).max() > 1.0 + 1e-12):
            raise AssertionError("fast-path solution is not a {0,+-1}-vector")
        if np.any((self.beta > 0.5) & (self.gamma > 0.5)):
            raise AssertionError("beta and gamma both positive at some (i, j)")
        if np.any((self.theta1 > 0.5) & (self.theta2 > 0.5)):
            raise AssertionError("both slab multipliers active on one piece")
        if single_theta_family and np.any(self.theta1 > 0.5) and np.any(self.theta2 > 0.5):
            raise AssertionError("both theta families active")


@dataclass
class PsiInstance:
    """Scaled data consumed by the subset-minimization sweep.

    ``psi(K) = base + sum_{i in K u forced} zhat_i hbar_i
              + sum_j min(sum_{i in K u forced} zhat_i * delta_j, xbar_j)``

    xbar/delta cover the active coordinates (w_j != 0, u_j > l_j) only;
    ratios xbar_j / delta_j are pre-sorted ascending (permutation `order`,
    ties by index) because the sweep walks the concave term's breakpoints in
    that order. `free` marks pieces the minimizer may toggle; `forced` pieces
    always count toward K.
    """

    wbar_eff: np.ndarray
    delta: np.ndarray
    xbar: np.ndarray
    hbar: np.ndarray
    zhat: np.ndarray
    orientation: str
    free: np.ndarray
    forced: np.ndarray
    base: float = 0.0
    order: np.ndarray = field(init=False)
    ratios: np.ndarray = field(init=False)

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        self.xbar = np.asarray(self.xbar, dtype=float)
        keep = self.delta > 1e-14
        ratios = np.full(self.delta.shape, np.inf)
        ratios[keep] = self.xbar[keep] / self.delta[keep]
        order = np.lexsort((np.arange(self.delta.size), ratios))
        order = order[np.isfinite(ratios[order])]
        self.order = order
        self.ratios = ratios[order]

    @property
    def k(self) -> int:
        return self.zhat.size

    def psi(self, K) -> float:
        """Exact psi value for an explicit subset K of free pieces."""
        mask = self.forced.copy()
        K = np.asarray(K, dtype=int)
        if K.size:
            if not np.all(self.free[K]):
                raise ParameterError("K must consist of free pieces")
            mask[K] = True
        sigma = float(self.zhat[mask].sum())
        head = float((self.zhat[mask] * self.hbar[mask]).sum())
        return self.base + head + float(np.minimum(sigma * self.delta, self.xbar).sum())


@dataclass
class SweepResult:
    psi_star: float
    sigma: float
    K: np.ndarray                  # fully selected free pieces
    frac_piece: int = -1           # piece with fractional amount, or -1
    frac_amount: float = 0.0
    early_exit: bool = False


def minimize_psi_c(inst: PsiInstance, allowed=None, early_exit: bool = False) -> SweepResult:
    """Minimize the concave continuous extension of psi over the unit box.

    The sum-of-mins term is concave piecewise linear in the selected mass
    sigma; the head term, minimized for fixed sigma, is a fractional knapsack
    whose value is convex in sigma. The sweep walks the concave pieces in
    ratio order and evaluates each piece's clipped knapsack optimum. A concave
    function attains its box minimum at a vertex, so the result (after
    resolving the at most one fractional entry) equals the exact subset
    minimum.

    ``allowed`` restricts the togglable pieces further; ``early_exit`` stops
    at the first piece whose optimum is negative, which keeps the recovered
    cut vector's support minimal.
    """
    zhat, hbar = inst.zhat, inst.hbar
    free = inst.free.copy()
    if allowed is not None:
        mask = np.zeros(inst.k, dtype=bool)
        mask[np.asarray(allowed, dtype=int)] = True
        free &= mask
    items = np.flatnonzero(free & (zhat > 1e-15))
    items = items[np.lexsort((items, hbar[items]))]
    wz = zhat[items]
    cz = hbar[items]
    pref_w = np.concatenate([[0.0], np.cumsum(wz)])
    pref_g = np.concatenate([[0.0], np.cumsum(cz * wz)])
    num_items = items.size

    sigma0 = float(zhat[inst.forced].sum())
    base0 = inst.base + float((zhat[inst.forced] * hbar[inst.forced]).sum())
    sigma_max = sigma0 + float(pref_w[-1])

    dsort = inst.delta[inst.order]
    xsort = inst.xbar[inst.order]
    pref_d = np.concatenate([[0.0], np.cumsum(dsort)])
    pref_x = np.concatenate([[0.0], np.cumsum(xsort)])
    d_total = float(pref_d[-1])

    def tval(sigma: float) -> float:
        t = int(np.searchsorted(inst.ratios, sigma, side="right"))
        return float(pref_x[t] + sigma * (d_total - pref_d[t]))

    def gval(sigma: float) -> float:
        wt = sigma - sigma0
        t = int(np.searchsorted(pref_w, wt + 1e-12, side="right")) - 1
        t = max(0, min(t, num_items))
        val = float(pref_g[t])
        rem = wt - float(pref_w[t])
        if rem > 1e-12 and t < num_items:
            val += float(cz[t]) * rem
        return val

    boundaries = [sigma0] + [float(r) for r in inst.ratios if sigma0 < r < sigma_max] \
        + [sigma_max]
    best_val, best_sigma = None, sigma0
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        t = int(np.searchsorted(inst.ratios, lo, side="right"))
        slope = d_total - float(pref_d[t])
        idx = int(np.searchsorted(cz, -slope, side="left"))
        sigma = float(np.clip(sigma0 + pref_w[idx], lo, hi))
        val = base0 + gval(sigma) + tval(sigma)
        if best_val is None or val < best_val - 1e-15:
            best_val, best_sigma = val, sigma
        if early_exit and best_val < -1e-15:
            break
    if best_val is None:
        best_val, best_sigma = base0 + tval(sigma0), sigma0

    wt = best_sigma - sigma0
    t = int(np.searchsorted(pref_w, wt + 1e-12, side="right")) - 1
    t = max(0, min(t, num_items))
    K = items[:t].copy()
    rem = wt - float(pref_w[t])
    frac_piece, frac_amount = -1, 0.0
    if t < num_items and rem > 1e-12 * max(1.0, best_sigma):
        frac_piece = int(items[t])
        frac_amount = rem / float(wz[t])
    return SweepResult(float(best_val), best_sigma, K, frac_piece, frac_amount,
                       early_exit=early_exit and best_val < -1e-15)


def round_fractional(result: SweepResult, inst: PsiInstance) -> tuple[np.ndarray, float]:
    """Resolve the single fractional entry to the cheaper binary neighbor.

    Concavity along the fractional coordinate makes the better neighbor match
    the fractional optimum, so nothing is lost. Raises when a negative
    continuous certificate fails to survive rounding, which the theory rules
    out.
    """
    if result.frac_piece < 0:
        return result.K, inst.psi(result.K)
    lo_K = result.K
    hi_K = np.concatenate([result.K, [result.frac_piece]]).astype(int)
    lo_val = inst.psi(lo_K)
    hi_val = inst.psi(hi_K)
    if result.psi_star < -VIOLATION_TOL and min(lo_val, hi_val) >= 0.0:
        raise AssertionError(
            f"rounding lost the negative certificate: psi_c={result.psi_star}, "
            f"neighbors {lo_val}, {hi_val}")
    if lo_val <= hi_val:
        return lo_K, lo_val
    return hi_K, hi_val


# ---------------------------------------------------------------------------
# canonical problem assembly


@dataclass
class _Canonical:
    """Upper-direction, s >= 0 separation data over active coordinates."""

    w: np.ndarray
    b: float
    lower: np.ndarray
    upper: np.ndarray
    h: np.ndarray
    a: np.ndarray
    dbar: np.ndarray
    s: float
    scale: float               # s when s > 0, else 1 (slope-free scaling)
    xhat: np.ndarray
    zhat: np.ndarray
    active: np.ndarray         # indices into the full coordinate space
    n_full: int
    negated: bool
    reversed_pieces: bool

    def __post_init__(self):
        self.absw = np.abs(self.w)
        self.wbar = np.sign(self.w)
        self.m1 = self.upper * self.absw
        self.m2 = self.lower * self.absw
        self.delta = self.m1 - self.m2
        if self.s > 0:
            self.a1_mask = np.abs(self.a - self.s) <= 1e-9 * max(1.0, abs(self.s))
        else:
            self.a1_mask = np.zeros(self.a.size, dtype=bool)

    @property
    def k(self) -> int:
        return self.a.size

    def xbar(self, wbar_eff: np.ndarray) -> np.ndarray:
        raw = np.where(wbar_eff > 0, self.m1 - self.xhat * self.absw,
                       self.xhat * self.absw - self.m2)
        return np.maximum(raw, 0.0)

    def pulled_const(self, wbar_eff: np.ndarray) -> float:
        return float(-self.m1[wbar_eff > 0].sum() + self.m2[wbar_eff < 0].sum())

    def theta_base(self) -> float:
        """Cost of the first-slab multipliers on every slope piece."""
        return float((self.zhat[self.a1_mask] * (self.h[1:] - self.b)[self.a1_mask]).sum())

    def row_cost_plus(self) -> np.ndarray:
        """Per-coordinate multiplier cost of a row with right-hand side +wbar."""
        return np.where(self.wbar > 0, self.m1, -self.m2)

    def row_cost_minus(self) -> np.ndarray:
        """Per-coordinate multiplier cost of a row with right-hand side -wbar."""
        return np.where(self.wbar > 0, -self.m2, self.m1)

    def instance(self, orientation: str, ep_family: str | None = None) -> PsiInstance:
        """Psi data for one sweep-based candidate family.

        Ray families may toggle every piece. The extreme-point families work
        against the slope pattern (A_1 = slope-s pieces, A_0 = flat pieces):

        * "grow" adds first-slab multipliers on flat pieces (the toggled rows
          move their right-hand side to -wbar);
        * "drop" toggles rows to +wbar by removing the first-slab multiplier
          of a slope piece or adding the second-slab multiplier of a flat
          piece; both reliefs may combine, so every piece is free and the
          per-piece cost depends on its kind.
        """
        k = self.k
        h = self.h
        if orientation == THETA2_ZERO:
            wbar_eff = self.wbar
            theta = h[1:] - self.b
        else:
            wbar_eff = -self.wbar
            theta = self.b - h[:-1]
        forced = np.zeros(k, dtype=bool)
        free = np.ones(k, dtype=bool)
        base = 0.0
        if ep_family == "grow":
            free = ~self.a1_mask
            base = self.theta_base()
        elif ep_family == "drop":
            theta = np.where(self.a1_mask, self.b - h[1:], self.b - h[:-1])
            base = self.theta_base()
        hbar = theta + self.pulled_const(wbar_eff)
        return PsiInstance(wbar_eff, self.delta, self.xbar(wbar_eff), hbar,
                           self.zhat, orientation, free, forced, base)


def _free_coordinates(neuron: Neuron):
    """Mask of pinned input coordinates, and the free ones with nonzero weight."""
    lo, hi = neuron.box.lower, neuron.box.upper
    fixed = hi - lo <= 1e-12 * np.maximum(1.0, np.abs(hi) + np.abs(lo))
    return fixed, np.flatnonzero((np.abs(neuron.weight) > 0) & ~fixed)


def is_pinned(neuron: Neuron) -> bool:
    """True when no free input has a nonzero weight; the oracle rejects such a neuron."""
    return _free_coordinates(neuron)[1].size == 0


def _fold_fixed_coordinates(neuron: Neuron):
    """Identify zero-weight and pinned coordinates; fold the pinned into b."""
    w = neuron.weight
    lo, hi = neuron.box.lower, neuron.box.upper
    fixed, active = _free_coordinates(neuron)
    b = float(neuron.bias + w[fixed] @ ((lo[fixed] + hi[fixed]) / 2.0))
    if active.size == 0:
        raise DomainError("degenerate neuron: no free coordinate with nonzero weight")
    return active, b


def _canonicalize(neuron: Neuron, xhat, yhat: float, zhat, direction: str
                  ) -> tuple[_Canonical, float]:
    if direction not in (UPPER, LOWER):
        raise InputError(f"direction must be 'upper' or 'lower', got {direction!r}")
    xhat = np.asarray(xhat, dtype=float)
    zhat = np.asarray(zhat, dtype=float)
    f = neuron.activation
    if zhat.shape != (f.num_pieces,):
        raise InputError("zhat length must equal the piece count")
    if np.any(zhat < -VIOLATION_TOL) or abs(zhat.sum() - 1.0) > VIOLATION_TOL:
        raise InputError("zhat must lie on the unit simplex")
    if not neuron.box.contains(xhat, tol=1e-7):
        raise InputError("xhat must lie in the neuron's input box")
    if np.all(neuron.weight == 0):
        raise DomainError("degenerate neuron: zero weight vector")
    zhat = np.maximum(zhat, 0.0)
    zhat = zhat / zhat.sum()

    active, b = _fold_fixed_coordinates(neuron)
    w = neuron.weight[active].copy()
    lo = neuron.box.lower[active].copy()
    hi = neuron.box.upper[active].copy()
    xa = np.clip(xhat[active], lo, hi)

    stair = f if isinstance(f, Staircase) else as_staircase(f)
    h = stair.breakpoints.copy()
    a = stair.slopes.copy()
    d = stair.intercepts.copy()
    s = staircase_slope(stair)
    z = zhat.copy()
    negated = False
    if direction == LOWER:
        a, d, s = -a, -d, -s
        yhat = -yhat
        negated = True
    reversed_pieces = False
    if s < 0:
        # reflect the pre-activation axis: pieces reverse, w and b flip
        c = h[0] + h[-1]
        d = (a * c + d)[::-1].copy()
        a = -a[::-1]
        h = (c - h[::-1]).copy()
        b = c - b
        w = -w
        z = z[::-1].copy()
        s = -s
        reversed_pieces = True
    dbar = a * b + d
    canon = _Canonical(w, b, lo, hi, h, a, dbar, float(s),
                       float(s) if s > 0 else 1.0, xa, z, active,
                       neuron.dim, negated, reversed_pieces)
    return canon, float(yhat)


def build_psi(neuron: Neuron, xhat, zhat, orientation: str = THETA2_ZERO,
              direction: str = UPPER) -> PsiInstance:
    """Scaled ray-family psi data for a staircase neuron at (xhat, zhat)."""
    if orientation not in (THETA2_ZERO, THETA1_ZERO):
        raise InputError(f"unknown orientation {orientation!r}")
    canon, _ = _canonicalize(neuron, xhat, 0.0, zhat, direction)
    return canon.instance(orientation)


# ---------------------------------------------------------------------------
# candidate evaluation


@dataclass
class _Candidate:
    """One structured dual solution. Two flavors:

    * sweep candidates carry a PsiInstance and a toggled subset K; their rows
      have right-hand side -wbar_eff on the members and 0 elsewhere, with the
      per-coordinate branch choosing between the box-mass and alpha sides;
    * pattern candidates carry an explicit per-piece multiplier vector m in
      {-1, 0, 1, 2} and a global alpha flag (0 or wbar), covering the mixed
      vertices whose alpha is pinned.
    """

    family: str
    inst: PsiInstance | None
    K: np.ndarray
    psi_value: float           # formula value in scaled units
    is_ray: bool
    pattern: np.ndarray | None = None     # multiplier vector for pattern kind
    alpha_is_wbar: bool = False
    value: float = np.nan                 # genuine scaled objective

    def member_mask(self, k: int) -> np.ndarray:
        mask = self.inst.forced.copy() if self.inst is not None else np.zeros(k, dtype=bool)
        if self.K.size:
            mask[self.K] = True
        return mask

    def branch_take_xbar(self) -> np.ndarray:
        """Per-coordinate branch: True where alpha leaves zero (box-mass side)."""
        sigma = float(self.inst.zhat[self.member_mask(self.inst.k)].sum())
        return self.inst.xbar < sigma * self.inst.delta - 1e-15

    def alpha_scaled(self, canon: "_Canonical") -> np.ndarray:
        if self.pattern is not None:
            return canon.wbar.astype(float) if self.alpha_is_wbar \
                else np.zeros(canon.active.size)
        if self.inst is None:
            return np.zeros(canon.active.size)
        return np.where(self.branch_take_xbar(), -self.inst.wbar_eff, 0.0)


def _pattern_thetas(canon: _Canonical, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest multiplier realization of a piece-pattern m.

    Slope pieces realize m via (theta1, theta2) = (1-m, 0) for m in {0, 1}
    and (0, 1) for m = 2; flat pieces use (−m)+ on the first slab and (m)+ on
    the second.
    """
    a1 = canon.a1_mask
    theta1 = np.where(a1, np.where(m <= 0, 1.0, 0.0), np.where(m < 0, 1.0, 0.0))
    theta2 = np.where(a1, np.where(m >= 2, 1.0, 0.0), np.where(m > 0, 1.0, 0.0))
    return theta1, theta2


def _theta_patterns(canon: _Canonical, cand: _Candidate) -> tuple[np.ndarray, np.ndarray]:
    k = canon.k
    theta1 = np.zeros(k)
    theta2 = np.zeros(k)
    if cand.pattern is not None:
        return _pattern_thetas(canon, cand.pattern)
    if cand.family == "ray_theta2":
        theta1[cand.K] = 1.0
    elif cand.family == "ray_theta1":
        theta2[cand.K] = 1.0
    elif cand.family == "grow":
        theta1[canon.a1_mask] = 1.0
        theta1[cand.K] = 1.0
    elif cand.family == "drop":
        theta1[canon.a1_mask] = 1.0
        in_k = np.zeros(k, dtype=bool)
        in_k[cand.K] = True
        theta1[in_k & canon.a1_mask] = 0.0
        theta2[in_k & ~canon.a1_mask] = 1.0
    return theta1, theta2


def _evaluate_candidate(canon: _Canonical, cand: _Candidate) -> float:
    """Genuine scaled dual objective of the expanded candidate, O(n + k)."""
    theta1, theta2 = _theta_patterns(canon, cand)
    zh = canon.zhat
    val = float(zh @ (theta1 * (canon.h[1:] - canon.b) - theta2 * (canon.h[:-1] - canon.b)))
    if cand.pattern is not None:
        alpha = cand.alpha_scaled(canon)
        row = cand.pattern[:, None] * canon.wbar[None, :] - alpha[None, :]
        cost = np.where(row > 0, canon.m1[None, :],
                        np.where(row < 0, -canon.m2[None, :], 0.0)) * np.abs(row)
        val += float(zh @ cost.sum(axis=1))
        val += float((canon.xhat * canon.absw) @ alpha)
    elif cand.inst is not None:
        members = cand.member_mask(canon.k)
        sigma = float(zh[members].sum())
        take_x = cand.branch_take_xbar()
        feff = cand.inst.wbar_eff
        # members carry the slab-side multipliers on alpha = 0 coordinates,
        # non-members carry them where alpha moved off zero
        delta_side = np.where(feff > 0, -canon.m2, canon.m1)
        xbar_side = np.where(feff > 0, canon.m1, -canon.m2)
        val += sigma * float(delta_side[~take_x].sum())
        val += (1.0 - sigma) * float(xbar_side[take_x].sum())
        val += float(((canon.xhat * canon.absw) * (-feff))[take_x].sum())
    cand.value = val
    return val


def _reconstruct(canon: _Canonical, cand: _Candidate) -> DualSolution:
    """Full scaled dual solution for a candidate (validation / inspection)."""
    k, n = canon.k, canon.active.size
    theta1, theta2 = _theta_patterns(canon, cand)
    beta = np.zeros((k, n))
    gamma = np.zeros((k, n))
    alpha_scaled = cand.alpha_scaled(canon)
    if cand.pattern is not None:
        row = cand.pattern[:, None] * canon.wbar[None, :] - alpha_scaled[None, :]
        beta = np.maximum(row, 0.0)
        gamma = np.maximum(-row, 0.0)
    elif cand.inst is not None:
        members = cand.member_mask(k)
        take_x = cand.branch_take_xbar()
        feff = cand.inst.wbar_eff
        beta += np.outer(~members, take_x & (feff > 0))
        gamma += np.outer(~members, take_x & (feff < 0))
        gamma += np.outer(members, ~take_x & (feff > 0))
        beta += np.outer(members, ~take_x & (feff < 0))
    value = cand.value if np.isfinite(cand.value) else _evaluate_candidate(canon, cand)
    return DualSolution(beta, gamma, theta1, theta2, alpha_scaled,
                        canon.scale * value, is_ray=cand.is_ray)


def _pattern_candidate(canon: _Canonical, alpha_is_wbar: bool) -> _Candidate:
    """Best vertex whose alpha is pinned globally (mixed multiplier rows).

    With alpha = 0 the piece choices decouple: a slope piece either keeps its
    first-slab multiplier or pays the +wbar row mass; a flat piece stays
    neutral or pays one of the two slab reliefs plus its row mass. With
    alpha = wbar everything shifts by one row unit. The minimum is separable,
    so each piece picks its cheapest option independently.
    """
    zh = canon.zhat
    h = canon.h
    b = canon.b
    cplus = float(canon.row_cost_plus().sum())
    cminus = float(canon.row_cost_minus().sum())
    k = canon.k
    m = np.zeros(k, dtype=float)
    total = 0.0
    for i in range(k):
        if not alpha_is_wbar:
            if canon.a1_mask[i]:
                opts = {0.0: h[i + 1] - b, 1.0: cplus}
            else:
                opts = {0.0: 0.0, 1.0: (b - h[i]) + cplus, -1.0: (h[i + 1] - b) + cminus}
        else:
            if canon.a1_mask[i]:
                opts = {1.0: 0.0, 2.0: (b - h[i]) + cplus, 0.0: (h[i + 1] - b) + cminus}
            else:
                opts = {1.0: b - h[i], 0.0: cminus}
        best = min(opts.items(), key=lambda kv: (kv[1], kv[0]))
        m[i] = best[0]
        total += zh[i] * best[1]
    if alpha_is_wbar:
        total += float((canon.xhat * canon.absw) @ canon.wbar)
    name = "alpha_wbar" if alpha_is_wbar else "mixed_zero"
    return _Candidate(name, None, np.array([], dtype=int), total, False,
                      pattern=m, alpha_is_wbar=alpha_is_wbar)


def _check_candidate(canon: _Canonical, cand: _Candidate, dual: DualSolution) -> None:
    """Fast-path solutions must satisfy the scaled equality rows exactly."""
    dual.check_structure(single_theta_family=cand.family in
                         ("ray_theta2", "ray_theta1", "grow", "zero"))
    diff = dual.beta - dual.gamma
    coeff = (canon.a / canon.s) if canon.s > 0 else np.zeros(canon.k)
    if cand.is_ray:
        coeff = np.zeros(canon.k)
    lhs = (diff + np.outer(dual.theta1 - dual.theta2, 1.0) * canon.wbar[None, :]
           + dual.alpha_scaled[None, :])
    target = np.outer(coeff, canon.wbar)
    if np.abs(lhs - target).max() > RESIDUAL_TOL:
        raise AssertionError("scaled equality rows violated")
    if abs(dual.value / canon.scale - cand.psi_value) > 1e-6 * max(1.0, abs(dual.value)):
        raise AssertionError(
            f"psi formula {cand.psi_value} disagrees with genuine value "
            f"{dual.value / canon.scale}")


@dataclass
class OracleOutcome:
    """Verdict of one canonical separation call.

    `lp_value` is the optimum of the separation dual in unscaled units (None
    when unbounded); `envelope` is the tightest one-sided bound on the
    canonical output at (xhat, zhat), -inf when (xhat, zhat) leaves the
    (x, z) projection entirely.
    """

    bounded: bool
    lp_value: float | None
    envelope: float
    alpha_scaled: np.ndarray
    candidate: _Candidate
    canon: _Canonical

    def alpha_full(self) -> np.ndarray:
        alpha = np.zeros(self.canon.n_full)
        alpha[self.canon.active] = self.canon.scale * self.canon.absw * self.alpha_scaled
        return alpha

    def dual(self) -> DualSolution:
        return _reconstruct(self.canon, self.candidate)


def _oracle(canon: _Canonical, early_exit: bool = False,
            validate: bool = False) -> OracleOutcome:
    rays = []
    for fam, orientation in (("ray_theta2", THETA2_ZERO), ("ray_theta1", THETA1_ZERO)):
        inst = canon.instance(orientation)
        res = minimize_psi_c(inst, early_exit=early_exit)
        K, val = round_fractional(res, inst)
        rays.append(_Candidate(fam, inst, K, val, True))
    ray_best = min(rays, key=lambda c: c.psi_value)
    if ray_best.psi_value < -VIOLATION_TOL:
        _evaluate_candidate(canon, ray_best)
        if validate:
            _check_candidate(canon, ray_best, _reconstruct(canon, ray_best))
        return OracleOutcome(False, None, -np.inf,
                             ray_best.alpha_scaled(canon), ray_best, canon)

    points = []
    if canon.s > 0:
        for fam, orientation in (("grow", THETA2_ZERO), ("drop", THETA1_ZERO)):
            inst = canon.instance(orientation, ep_family=fam)
            res = minimize_psi_c(inst)
            K, val = round_fractional(res, inst)
            points.append(_Candidate(fam, inst, K, val, False))
        points.append(_pattern_candidate(canon, alpha_is_wbar=False))
        points.append(_pattern_candidate(canon, alpha_is_wbar=True))
    else:
        points.append(_Candidate("zero", None, np.array([], dtype=int), 0.0, False))

    best = None
    for cand in points:
        _evaluate_candidate(canon, cand)
        if validate:
            _check_candidate(canon, cand, _reconstruct(canon, cand))
        if best is None or cand.value < best.value - 1e-15:
            best = cand
    lp_value = canon.scale * best.value
    dhat = float(canon.zhat @ canon.dbar)
    return OracleOutcome(True, lp_value, lp_value + dhat,
                         best.alpha_scaled(canon), best, canon)


# ---------------------------------------------------------------------------
# cut retrieval (series of knapsack problems over the slices)


def _box_slice_series(c_vec, w, lower, upper, lo_ts, hi_ts):
    """max c.x over box cap {lo_t <= w.x <= hi_t} for a series of slices.

    Starts at the box optimum x* and walks outward; slices beyond x* in either
    direction pin w.x at their near edge and the walk shifts coordinates in
    order of increasing objective sacrifice per unit of w.x, each coordinate
    crossing at most once per direction.
    """
    n = c_vec.size
    x_star = np.where(c_vec > 0, upper, lower).astype(float)
    t_star = float(w @ x_star)
    val_star = float(c_vec @ x_star)
    k = len(lo_ts)
    vals = np.empty(k)
    eps = 1e-9 * max(1.0, float(np.abs(w @ np.abs(upper - lower))))

    inside = [i for i in range(k) if lo_ts[i] - eps <= t_star <= hi_ts[i] + eps]
    below = sorted((i for i in range(k) if hi_ts[i] < t_star - eps),
                   key=lambda i: -hi_ts[i])
    above = sorted((i for i in range(k) if lo_ts[i] > t_star + eps),
                   key=lambda i: lo_ts[i])
    for i in inside:
        vals[i] = val_star

    for direction, series, pin_of in ((-1.0, below, lambda i: hi_ts[i]),
                                      (+1.0, above, lambda i: lo_ts[i])):
        if not series:
            continue
        moves = []
        for j in range(n):
            if w[j] == 0.0 or upper[j] <= lower[j]:
                continue
            dest = lower[j] if (w[j] > 0) == (direction < 0) else upper[j]
            if dest != x_star[j]:
                moves.append((abs(c_vec[j] / w[j]), j, dest))
        moves.sort(key=lambda mv: (mv[0], mv[1]))
        x = x_star.copy()
        t, val, ptr = t_star, val_star, 0
        for i in series:
            pin = pin_of(i)
            while ptr < len(moves):
                _, j, dest = moves[ptr]
                dt = w[j] * (dest - x[j])
                if direction * (pin - (t + dt)) >= 0:
                    # full move still stops short of (or exactly at) the pin
                    val += c_vec[j] * (dest - x[j])
                    x[j] = dest
                    t += dt
                    ptr += 1
                else:
                    break
            need = pin - t
            if direction * need > eps:
                if ptr >= len(moves):
                    if abs(need) <= 1e-7 * max(1.0, abs(pin)):
                        vals[i] = val
                        continue
                    raise FormulationError("empty slice: pin outside the box range")
                _, j, dest = moves[ptr]
                vals[i] = val + c_vec[j] * (need / w[j])
            else:
                vals[i] = val
    return vals


def retrieve_cut(neuron: Neuron, alpha, direction: str, y_coef: float = 1.0,
                 neuron_id: str = "") -> Cut:
    """Exact z-coefficients for a given alpha by per-slice optimization.

    Upper cuts use ``c_i = max_{x in slice_i} (a_i w - alpha) . x + dbar_i``,
    lower cuts the min. Ray cuts (``y_coef = 0``) drop the activation part and
    use ``c_i = max_{x in slice_i} (-alpha) . x`` so the inequality reads
    ``0 <= alpha . x + sum c_i z_i``. Slices are nonempty by construction
    because activations are aligned to the true pre-activation range.
    """
    alpha = np.asarray(alpha, dtype=float)
    f = neuron.activation
    w = neuron.weight
    lo, hi = neuron.box.lower, neuron.box.upper
    k = f.num_pieces
    if y_coef == 0.0:
        slopes = np.zeros(k)
        dbar = np.zeros(k)
        sense = "max"
    else:
        slopes = f.slopes
        dbar = neuron.dbar()
        sense = "max" if direction == UPPER else "min"
    tmin = float(w @ np.where(w >= 0, lo, hi))
    tmax = float(w @ np.where(w >= 0, hi, lo))
    width = max(1.0, tmax - tmin)
    lo_ts = np.clip(f.breakpoints[:-1] - neuron.bias, tmin, tmax)
    hi_ts = np.clip(f.breakpoints[1:] - neuron.bias, tmin, tmax)
    if np.any(f.breakpoints[:-1] - neuron.bias > tmax + 1e-7 * width) or \
       np.any(f.breakpoints[1:] - neuron.bias < tmin - 1e-7 * width):
        raise FormulationError("empty slice after clipping: bounds inconsistent")

    zcoef = np.empty(k)
    groups: dict[float, list[int]] = {}
    for i in range(k):
        groups.setdefault(round(float(slopes[i]), 12), []).append(i)
    for a_val, idxs in groups.items():
        c_vec = a_val * w - alpha
        eff = c_vec if sense == "max" else -c_vec
        vals = _box_slice_series(eff, w, lo, hi,
                                 [float(lo_ts[i]) for i in idxs],
                                 [float(hi_ts[i]) for i in idxs])
        for pos, i in enumerate(idxs):
            zcoef[i] = vals[pos] if sense == "max" else -vals[pos]
    zcoef += dbar
    return Cut(direction, alpha, zcoef, 0.0, y_coef, neuron_id)


# ---------------------------------------------------------------------------
# public separation entry points


def separate_staircase_outcome(neuron: Neuron, xhat, zhat, direction: str,
                               early_exit: bool = False, validate: bool = False,
                               yhat: float = 0.0) -> tuple[OracleOutcome, float]:
    """Canonical oracle outcome plus the query value in canonical units."""
    canon, yh = _canonicalize(neuron, xhat, yhat, zhat, direction)
    return _oracle(canon, early_exit=early_exit, validate=validate), yh


def _emit_cut(neuron: Neuron, outcome: OracleOutcome, direction: str,
              neuron_id: str) -> Cut:
    alpha = outcome.alpha_full()
    if outcome.candidate.is_ray:
        # (x, z)-space inequality; identical for the hull of g and -g
        return retrieve_cut(neuron, alpha, direction, y_coef=0.0, neuron_id=neuron_id)
    if direction == LOWER:
        alpha = -alpha  # undo the output negation used by the canonical form
    return retrieve_cut(neuron, alpha, direction, y_coef=1.0, neuron_id=neuron_id)


def separate_staircase(neuron: Neuron, xhat, yhat: float, zhat, direction: str,
                       tol: float = VIOLATION_TOL, neuron_id: str = "",
                       validate: bool = False) -> Cut | None:
    """Return a violated cut for a staircase neuron, or None when inside.

    The surrounding formulation is expected to hold the two seed cuts
    (alpha = 0 and alpha = s w, both directions) already; the candidate-family
    search is complete under that hypothesis, and seed installation is the
    formulation builder's job.
    """
    outcome, query = separate_staircase_outcome(neuron, xhat, zhat, direction,
                                                validate=validate, yhat=yhat)
    if outcome.bounded and query <= outcome.envelope + tol:
        return None
    return _emit_cut(neuron, outcome, direction, neuron_id)


def membership_certificate(neuron: Neuron, xhat, zhat, direction: str) -> float:
    """One-sided envelope value on y at (xhat, zhat); +-inf off the projection.

    A query y is inside the (decomposition) hull on the given side iff it does
    not pass this value.
    """
    f = neuron.activation
    if staircase_slope(f) is not None:
        components = [f]
    else:
        f0, parts = pwl_mod.decompose_staircase(f)
        components = ([f0] if f0 is not None else []) + list(parts)
    total = 0.0
    for comp in components:
        sub = Neuron(neuron.weight, neuron.bias, comp, neuron.box)
        outcome, _ = separate_staircase_outcome(sub, xhat, zhat, direction)
        if not outcome.bounded:
            return -np.inf if direction == UPPER else np.inf
        total += outcome.envelope
    return total if direction == UPPER else -total


def on_vertex_graph(neuron: Neuron, xhat, yhat: float, zhat, direction: str,
                    tol: float = VIOLATION_TOL) -> bool:
    """Exact inside test at a simplex vertex, answered without the oracle.

    e_i is a vertex of the simplex, so the hull's fiber over z = e_i is the
    graph of piece i over its closed slab. True only when z has exactly one
    nonzero entry i equal to 1.0, x lies in the box, t = w.x + b lies in
    [h_i, h_{i+1}] and y is on the inside of a_i t + d_i by the margin tol/2;
    any other point, invalid ones included, answers False.
    """
    f = neuron.activation
    zhat = np.asarray(zhat, dtype=float)
    if direction not in (UPPER, LOWER) or zhat.shape != (f.num_pieces,):
        return False
    support = np.flatnonzero(zhat)
    if support.size != 1 or zhat[support[0]] != 1.0:
        return False
    i = int(support[0])
    xhat = np.asarray(xhat, dtype=float)
    lo, hi = neuron.box.lower, neuron.box.upper
    if xhat.shape != lo.shape or np.any(xhat < lo) or np.any(xhat > hi):
        return False
    t = float(neuron.weight @ xhat + neuron.bias)
    if not f.breakpoints[i] <= t <= f.breakpoints[i + 1]:
        return False
    gap = float(yhat) - float(f.slopes[i] * t + f.intercepts[i])
    inside = gap <= tol / 2 if direction == UPPER else gap >= -tol / 2
    # the oracle rejects a pinned neuron; leave that error to it
    return inside and not is_pinned(neuron)


def separate_pwl(neuron: Neuron, xhat, yhat: float, zhat, direction: str,
                 tol: float = VIOLATION_TOL, neuron_id: str = "",
                 validate: bool = False) -> Cut | None:
    """Separation for general piecewise-linear activations via decomposition.

    Points on the graph at a simplex vertex are answered by `on_vertex_graph`
    first. Otherwise the activation splits into an optional jump part plus
    continuous staircases on the shared breakpoint grid. The hull of the sum
    projects to the sum of component hulls over a shared z, so the envelope
    at (x, z) is the sum of component envelopes and one staircase separation
    per component assembles the violated inequality.
    """
    if on_vertex_graph(neuron, xhat, yhat, zhat, direction, tol):
        return None
    f = neuron.activation
    if staircase_slope(f) is not None:
        return separate_staircase(neuron, xhat, yhat, zhat, direction, tol,
                                  neuron_id, validate=validate)
    f0, parts = pwl_mod.decompose_staircase(f)
    components = ([f0] if f0 is not None else []) + list(parts)
    query = float(yhat) if direction == UPPER else -float(yhat)
    total_env = 0.0
    outcomes = []
    for comp in components:
        sub = Neuron(neuron.weight, neuron.bias, comp, neuron.box)
        outcome, _ = separate_staircase_outcome(sub, xhat, zhat, direction,
                                                validate=validate)
        if not outcome.bounded:
            return _emit_cut(sub, outcome, direction, neuron_id)
        total_env += outcome.envelope
        outcomes.append((sub, outcome))
    if query <= total_env + tol:
        return None
    alpha_sum = np.zeros(neuron.dim)
    zcoef_sum = np.zeros(f.num_pieces)
    for sub, outcome in outcomes:
        cut = _emit_cut(sub, outcome, direction, neuron_id)
        alpha_sum += cut.alpha
        zcoef_sum += cut.zcoef
    return Cut(direction, alpha_sum, zcoef_sum, 0.0, 1.0, neuron_id)
