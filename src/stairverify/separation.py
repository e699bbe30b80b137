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
  slope pattern of the pieces (two sweeps, two pinned-alpha patterns, or
  the zero solution when s = 0); the genuine objective of each is evaluated
  in O(n + k) and the minimum compared against y to decide membership.

Every candidate has one form: a per-piece multiplier pattern m in
{-1, 0, 1, 2}^k and a per-coordinate alpha sign c in {-1, 0, 1}^n, which fix
the whole dual solution. General piecewise-linear activations are separated
one staircase component at a time (a staircase is its own single component).

Cut coefficients are always recomputed exactly (retrieve_cut): one box
knapsack per slice, the slices of each distinct slope answered by a single
search over the running sums of the greedy order. So any alpha yields a
valid inequality; candidate-search errors can only weaken cuts, never make
them unsound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pwl as pwl_mod
from .errors import DomainError, FormulationError, InputError, ParameterError
from .network import Neuron
from .pwl import staircase_slope

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

    ``psi(K) = base + sum_{i in K} zhat_i hbar_i
              + sum_j min(sum_{i in K} zhat_i * delta_j, xbar_j)``

    xbar/delta cover the active coordinates (w_j != 0, u_j > l_j) only;
    ratios xbar_j / delta_j are pre-sorted ascending (permutation `order`,
    ties by index) because the sweep walks the concave term's breakpoints in
    that order. `free` marks the pieces K may contain.
    """

    delta: np.ndarray
    xbar: np.ndarray
    hbar: np.ndarray
    zhat: np.ndarray
    orientation: str
    free: np.ndarray
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
        mask = np.zeros(self.k, dtype=bool)
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
    K: np.ndarray                  # fully selected free pieces
    frac_piece: int = -1           # piece with fractional amount, or -1


def minimize_psi_c(inst: PsiInstance) -> SweepResult:
    """Minimize the concave continuous extension of psi over the unit box.

    The sum-of-mins term is concave piecewise linear in the selected mass
    sigma; the head term, minimized for fixed sigma, is a fractional knapsack
    whose value is convex in sigma. The sweep walks the concave pieces in
    ratio order and evaluates each piece's clipped knapsack optimum. A concave
    function attains its box minimum at a vertex, so the result (after
    resolving the at most one fractional entry) equals the exact subset
    minimum. Only the pieces marked `free` take part.
    """
    zhat, hbar = inst.zhat, inst.hbar
    items = np.flatnonzero(inst.free & (zhat > 1e-15))
    items = items[np.lexsort((items, hbar[items]))]
    wz = zhat[items]
    cz = hbar[items]
    pref_w = np.concatenate([[0.0], np.cumsum(wz)])
    pref_g = np.concatenate([[0.0], np.cumsum(cz * wz)])
    num_items = items.size
    sigma_max = float(pref_w[-1])

    dsort = inst.delta[inst.order]
    xsort = inst.xbar[inst.order]
    pref_d = np.concatenate([[0.0], np.cumsum(dsort)])
    pref_x = np.concatenate([[0.0], np.cumsum(xsort)])
    d_total = float(pref_d[-1])

    def tval(sigma: float) -> float:
        t = int(np.searchsorted(inst.ratios, sigma, side="right"))
        return float(pref_x[t] + sigma * (d_total - pref_d[t]))

    def gval(sigma: float) -> float:
        t = int(np.searchsorted(pref_w, sigma + 1e-12, side="right")) - 1
        t = max(0, min(t, num_items))
        val = float(pref_g[t])
        rem = sigma - float(pref_w[t])
        if rem > 1e-12 and t < num_items:
            val += float(cz[t]) * rem
        return val

    boundaries = [0.0] + [float(r) for r in inst.ratios if 0.0 < r < sigma_max] + [sigma_max]
    best_val, best_sigma = None, 0.0
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        t = int(np.searchsorted(inst.ratios, lo, side="right"))
        slope = d_total - float(pref_d[t])
        idx = int(np.searchsorted(cz, -slope, side="left"))
        sigma = float(np.clip(pref_w[idx], lo, hi))
        val = inst.base + gval(sigma) + tval(sigma)
        if best_val is None or val < best_val - 1e-15:
            best_val, best_sigma = val, sigma

    t = int(np.searchsorted(pref_w, best_sigma + 1e-12, side="right")) - 1
    t = max(0, min(t, num_items))
    K = items[:t].copy()
    rem = best_sigma - float(pref_w[t])
    frac_piece = -1
    if t < num_items and rem > 1e-12 * max(1.0, best_sigma):
        frac_piece = int(items[t])
    return SweepResult(float(best_val), K, frac_piece)


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

    def __post_init__(self):
        self.absw = np.abs(self.w)
        self.wbar = np.sign(self.w)
        self.m1 = self.upper * self.absw
        self.m2 = self.lower * self.absw
        self.delta = self.m1 - self.m2
        # per-coordinate multiplier cost of a row with right-hand side +wbar / -wbar
        self.cost_plus = np.where(self.wbar > 0, self.m1, -self.m2)
        self.cost_minus = np.where(self.wbar > 0, -self.m2, self.m1)
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

    def instance(self, orientation: str, family: str) -> PsiInstance:
        """Psi data for one sweep-based candidate family.

        Ray families (any `family` but "grow" and "drop") may toggle every
        piece. The extreme-point families work against the slope pattern
        (A_1 = slope-s pieces, A_0 = flat pieces):

        * "grow" adds first-slab multipliers on flat pieces (the toggled rows
          move their right-hand side to -wbar);
        * "drop" toggles rows to +wbar by removing the first-slab multiplier
          of a slope piece or adding the second-slab multiplier of a flat
          piece; both reliefs may combine, so every piece is free and the
          per-piece cost depends on its kind.
        """
        h = self.h
        if orientation == THETA2_ZERO:
            wbar_eff = self.wbar
            theta = h[1:] - self.b
        else:
            wbar_eff = -self.wbar
            theta = self.b - h[:-1]
        free = np.ones(self.k, dtype=bool)
        base = 0.0
        if family == "grow":
            free = ~self.a1_mask
            base = self.theta_base()
        elif family == "drop":
            theta = np.where(self.a1_mask, self.b - h[1:], self.b - h[:-1])
            base = self.theta_base()
        hbar = theta + self.pulled_const(wbar_eff)
        return PsiInstance(self.delta, self.xbar(wbar_eff), hbar, self.zhat,
                           orientation, free, base)


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


def _canonicalize(neuron: Neuron, xhat, zhat, direction: str) -> _Canonical:
    if direction not in (UPPER, LOWER):
        raise InputError(f"direction must be 'upper' or 'lower', got {direction!r}")
    xhat = np.asarray(xhat, dtype=float)
    zhat = np.asarray(zhat, dtype=float)
    f = neuron.activation
    if xhat.shape != (neuron.dim,):
        raise InputError("xhat length must equal the neuron's input dimension")
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

    s = staircase_slope(f)
    if s is None:
        raise ParameterError("function is not a staircase")
    h = f.breakpoints.copy()
    a = f.slopes.copy()
    d = f.intercepts.copy()
    z = zhat.copy()
    if direction == LOWER:
        a, d, s = -a, -d, -s
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
    dbar = a * b + d
    return _Canonical(w, b, lo, hi, h, a, dbar, float(s),
                      float(s) if s > 0 else 1.0, xa, z, active, neuron.dim)


# ---------------------------------------------------------------------------
# candidate evaluation


@dataclass
class _Candidate:
    """One structured dual solution, fixed by a piece pattern and an alpha sign.

    ``m`` in {-1, 0, 1, 2}^k is the per-piece multiplier pattern: the slab
    multipliers realize ``coeff_i - theta1_i + theta2_i = m_i`` (coeff_i = 1
    on the slope pieces of a point candidate, 0 otherwise). ``c`` in
    {-1, 0, 1}^n is the per-coordinate alpha sign, alpha_scaled = c * wbar.
    Row (i, j) of the scaled equalities then reads
    ``beta_ij - gamma_ij = (m_i - c_j) * wbar_j``.
    """

    family: str
    m: np.ndarray
    c: np.ndarray
    is_ray: bool
    psi_value: float           # formula value in scaled units
    value: float = np.nan      # genuine scaled objective


def _sweep_candidate(family: str, inst: PsiInstance, K, psi_value: float) -> _Candidate:
    """Candidate of a sweep subset K, in (m, c) form.

    With sign = +1 for THETA2_ZERO and -1 for THETA1_ZERO, the members of K
    carry m = -sign; alpha moves off zero (c = -sign) on the coordinates
    whose box mass falls short of the members' z-mass times delta.
    """
    sign = 1.0 if inst.orientation == THETA2_ZERO else -1.0
    members = np.zeros(inst.k, dtype=bool)
    members[K] = True
    mass = float(inst.zhat[members].sum())
    c = np.where(inst.xbar < mass * inst.delta - 1e-15, -sign, 0.0)
    return _Candidate(family, np.where(members, -sign, 0.0), c,
                      family.startswith("ray"), psi_value)


def _thetas(m: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab multipliers realizing pattern m = coeff - theta1 + theta2.

    coeff is 1 on slope pieces and 0 on flat ones (a ray has no slope
    pieces), so theta1 = [m < coeff] and theta2 = [m > coeff].
    """
    return (m < slope).astype(float), (m > slope).astype(float)


def _alpha_scaled(canon: _Canonical, cand: _Candidate) -> np.ndarray:
    """c * wbar, with +0.0 where c = 0 (the product is -0.0 where wbar < 0)."""
    return np.where(cand.c == 0, 0.0, cand.c * canon.wbar)


def _evaluate(canon: _Canonical, cand: _Candidate) -> float:
    """Genuine scaled dual objective of a candidate, O(n + k).

    Coordinates are grouped by their alpha sign g: on piece i the group pays
    |m_i - g| times its +wbar row cost P+_g when m_i > g, and times its -wbar
    row cost P-_g otherwise. The alpha term xhat . (|w| alpha_scaled) is
    (xhat * w) . c.
    """
    theta1, theta2 = _thetas(cand.m, canon.a1_mask & (not cand.is_ray))
    group = cand.c.astype(int) + 1
    plus = np.bincount(group, canon.cost_plus, minlength=3)
    minus = np.bincount(group, canon.cost_minus, minlength=3)
    gap = cand.m[:, None] - np.arange(-1.0, 2.0)
    rows = (np.abs(gap) * np.where(gap > 0, plus, minus)).sum(axis=1)
    slabs = theta1 * (canon.h[1:] - canon.b) - theta2 * (canon.h[:-1] - canon.b)
    cand.value = float(canon.zhat @ (slabs + rows) + (canon.xhat * canon.w) @ cand.c)
    return cand.value


def _reconstruct(canon: _Canonical, cand: _Candidate) -> DualSolution:
    """Full scaled dual solution for a candidate (validation / inspection)."""
    theta1, theta2 = _thetas(cand.m, canon.a1_mask & (not cand.is_ray))
    row = (cand.m[:, None] - cand.c[None, :]) * canon.wbar[None, :]
    value = cand.value if np.isfinite(cand.value) else _evaluate(canon, cand)
    return DualSolution(np.maximum(row, 0.0), np.maximum(-row, 0.0), theta1, theta2,
                        _alpha_scaled(canon, cand), canon.scale * value, is_ray=cand.is_ray)


def _pattern_candidate(canon: _Canonical, alpha_is_wbar: bool) -> _Candidate:
    """Best vertex whose alpha is pinned globally (mixed multiplier rows), O(n + k).

    With alpha = c0 * wbar (c0 = 0 or 1) the piece choices decouple: each
    piece takes a pattern m within one row unit of c0 that its slab
    multipliers realize (slope pieces reach {0, 1, 2}, flat pieces
    {-1, 0, 1}), paying their slab cost plus |m - c0| times the +wbar or
    -wbar row mass. The minimum is separable, so each piece picks the
    cheapest column of a k x 4 cost table over m in {-1, 0, 1, 2}; ties go
    to the smaller m.
    """
    c0 = 1.0 if alpha_is_wbar else 0.0
    slope = canon.a1_mask[:, None]
    m = np.broadcast_to(np.arange(-1.0, 3.0), (canon.k, 4))
    theta1, theta2 = _thetas(m, slope)
    cost = theta1 * (canon.h[1:] - canon.b)[:, None] + theta2 * (canon.b - canon.h[:-1])[:, None]
    cplus = float(canon.cost_plus.sum())
    cminus = float(canon.cost_minus.sum())
    cost = cost + np.abs(m - c0) * np.where(m > c0, cplus, cminus)
    valid = (np.abs(m - c0) <= 1) & np.where(slope, m >= 0, m <= 1)
    cost = np.where(valid, cost, np.inf)
    pick = np.argmin(cost, axis=1)   # first minimum: the smaller m on ties
    total = float(canon.zhat @ cost[np.arange(canon.k), pick])
    if alpha_is_wbar:
        total += float((canon.xhat * canon.absw) @ canon.wbar)
    name = "alpha_wbar" if alpha_is_wbar else "mixed_zero"
    return _Candidate(name, m[0, pick], np.full(canon.active.size, c0), False, total)


def _candidates(canon: _Canonical):
    """Every candidate the oracle compares: the two ray families, then the points.

    Lazy, so the oracle builds no point candidate once a ray certifies.
    """
    families = [("ray_theta2", THETA2_ZERO), ("ray_theta1", THETA1_ZERO)]
    if canon.s > 0:
        families += [("grow", THETA2_ZERO), ("drop", THETA1_ZERO)]
    for family, orientation in families:
        inst = canon.instance(orientation, family)
        K, val = round_fractional(minimize_psi_c(inst), inst)
        yield _sweep_candidate(family, inst, K, val)
    if canon.s > 0:
        yield _pattern_candidate(canon, alpha_is_wbar=False)
        yield _pattern_candidate(canon, alpha_is_wbar=True)
    else:
        yield _Candidate("zero", np.zeros(canon.k), np.zeros(canon.active.size), False, 0.0, 0.0)


def _check_candidate(canon: _Canonical, cand: _Candidate, dual: DualSolution) -> None:
    """Fast-path solutions must satisfy the scaled equality rows exactly."""
    dual.check_structure(single_theta_family=cand.family in
                         ("ray_theta2", "ray_theta1", "grow", "zero"))
    diff = dual.beta - dual.gamma
    coeff = canon.a / canon.s if canon.s > 0 and not cand.is_ray else np.zeros(canon.k)
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
    candidate: _Candidate
    canon: _Canonical

    def alpha_full(self) -> np.ndarray:
        alpha = np.zeros(self.canon.n_full)
        alpha[self.canon.active] = (self.canon.scale * self.canon.absw
                                    * _alpha_scaled(self.canon, self.candidate))
        return alpha

    def dual(self) -> DualSolution:
        return _reconstruct(self.canon, self.candidate)


def _oracle(canon: _Canonical) -> OracleOutcome:
    cands = _candidates(canon)
    ray = min(next(cands), next(cands), key=lambda c: c.psi_value)
    if ray.psi_value < -VIOLATION_TOL:
        return OracleOutcome(False, None, -np.inf, ray, canon)
    best = None
    for cand in cands:
        if np.isnan(cand.value):  # the zero solution comes with its value 0
            _evaluate(canon, cand)
        if best is None or cand.value < best.value - 1e-15:
            best = cand
    lp_value = canon.scale * best.value
    return OracleOutcome(True, lp_value, lp_value + float(canon.zhat @ canon.dbar), best, canon)


# ---------------------------------------------------------------------------
# cut retrieval (a series of box knapsacks over the slices, one search per slope)


def _slice_maxima(c, w, lower, upper, lo_ts, hi_ts) -> np.ndarray:
    """max c.x over the box cut down to each slice lo_t <= w.x <= hi_t.

    The box optimum x* serves every slice it reaches. A slice below or above
    it pins w.x at its near edge, and the optimum there moves coordinates off
    x* in order of increasing objective sacrifice per unit of w.x,
    |c_j / w_j| (ties by index), each across the box once. Running sums of
    w.x and c.x along that order give each slice's number of whole moves by
    one search; the next coordinate then moves part way, up to the pin.
    """
    x_star = np.where(c > 0, upper, lower)
    t_star, v_star = float(w @ x_star), float(c @ x_star)
    eps = 1e-9 * max(1.0, float(np.abs(w @ np.abs(upper - lower))))
    movable = np.flatnonzero((w != 0.0) & (upper > lower))
    order = movable[np.argsort(np.abs(c[movable] / w[movable]), kind="stable")]
    vals = np.full(lo_ts.size, v_star)
    for sign, side, pins in ((-1.0, hi_ts < t_star - eps, hi_ts),
                             (1.0, lo_ts > t_star + eps, lo_ts)):
        if not side.any():
            continue
        dest = np.where((w > 0) == (sign < 0), lower, upper)
        j = order[dest[order] != x_star[order]]
        step = dest[j] - x_star[j]
        # sequential sums, in the order the moves are made: t runs monotone in sign
        t = np.add.accumulate(np.concatenate(([t_star], w[j] * step)))
        v = np.add.accumulate(np.concatenate(([v_star], c[j] * step)))
        pin = pins[side]
        done = np.searchsorted(sign * t, sign * pin, side="right") - 1
        need, val = pin - t[done], v[done]
        part = sign * need > eps
        short = part & (done == j.size)
        if np.any(np.abs(need[short]) > 1e-7 * np.maximum(1.0, np.abs(pin[short]))):
            raise FormulationError("empty slice: pin outside the box range")
        part &= ~short
        nxt = j[done[part]]
        val[part] += c[nxt] * (need[part] / w[nxt])
        vals[side] = val
    return vals


def _slice_ends(neuron: Neuron, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Each piece's slab [h_i, h_{i+1}] - b in w.x, clipped to the range of w.x over the
    box; with `check`, a slab that misses it by 1e-7 of its width raises FormulationError."""
    w, ends = neuron.weight, neuron.activation.breakpoints - neuron.bias
    tmin = float(w @ np.where(w >= 0, neuron.box.lower, neuron.box.upper))
    tmax = float(w @ np.where(w >= 0, neuron.box.upper, neuron.box.lower))
    tol = 1e-7 * max(1.0, tmax - tmin)
    if check and (np.any(ends[:-1] > tmax + tol) or np.any(ends[1:] < tmin - tol)):
        raise FormulationError("empty slice after clipping: bounds inconsistent")
    ends = np.clip(ends, tmin, tmax)
    return ends[:-1], ends[1:]


def slab_extremes(neuron: Neuron, a) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of (a_i - a) w.x + dbar_i over each piece i's slice: `retrieve_cut`'s
    lower and upper z-coefficients for alpha = a w, taken at the slice ends since the
    objective is linear in w.x. An array `a` gives one row per entry. A slab off the
    box is clipped to the box's end unchecked: its model's slab rows make z_i = 1
    infeasible, so any finite coefficient of z_i is valid there."""
    lo_ts, hi_ts = _slice_ends(neuron, check=False)
    slope = neuron.activation.slopes - np.asarray(a, dtype=float)[..., None]
    ends = slope * lo_ts, slope * hi_ts
    return np.minimum(*ends) + neuron.dbar(), np.maximum(*ends) + neuron.dbar()


def retrieve_cut(neuron: Neuron, alpha, direction: str, y_coef: float = 1.0) -> Cut:
    """Exact z-coefficients for a given alpha by per-slice optimization.

    Upper cuts use ``c_i = max_{x in slice_i} (a_i w - alpha) . x + dbar_i``,
    lower cuts the min. Ray cuts (``y_coef = 0``) drop the activation part and
    use ``c_i = max_{x in slice_i} (-alpha) . x`` so the inequality reads
    ``0 <= alpha . x + sum c_i z_i``. Slices are nonempty by construction
    because activations are aligned to the true pre-activation range. The
    slices of each distinct slope share one `_slice_maxima` pass. A direction
    other than "upper" or "lower", or an alpha that is not `neuron.dim` finite
    numbers, raises InputError.
    """
    alpha = np.asarray(alpha, dtype=float)
    if direction not in (UPPER, LOWER):
        raise InputError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if alpha.shape != (neuron.dim,) or not np.all(np.isfinite(alpha)):
        raise InputError(f"alpha must be {neuron.dim} finite numbers")
    ray = y_coef == 0.0
    slopes = np.zeros(neuron.activation.num_pieces) if ray else neuron.activation.slopes
    sign = -1.0 if direction == LOWER and not ray else 1.0
    w, lo, hi = neuron.weight, neuron.box.lower, neuron.box.upper
    lo_ts, hi_ts = _slice_ends(neuron)
    zcoef = np.empty(slopes.size)
    for a in np.unique(slopes):
        on = slopes == a
        zcoef[on] = sign * _slice_maxima(sign * (a * w - alpha), w, lo, hi, lo_ts[on], hi_ts[on])
    return Cut(direction, alpha, zcoef + (0.0 if ray else neuron.dbar()), 0.0, y_coef)


# ---------------------------------------------------------------------------
# public separation entry points


def _component_outcomes(neuron: Neuron, xhat, zhat, direction: str
                        ) -> list[tuple[Neuron, OracleOutcome]]:
    """Oracle outcome of each staircase component, up to the first unbounded one.

    A staircase is its own single component. Any other activation splits
    into an optional jump part plus continuous staircases on the shared
    breakpoint grid; the hull of the sum projects to the sum of component
    hulls over a shared z, so the envelope at (x, z) is the sum of the
    component envelopes.
    """
    if staircase_slope(neuron.activation) is not None:
        subs = [neuron]
    else:
        f0, parts = pwl_mod.decompose_staircase(neuron.activation)
        subs = [Neuron(neuron.weight, neuron.bias, comp, neuron.box)
                for comp in ([f0] if f0 is not None else []) + list(parts)]
    outcomes = []
    for sub in subs:
        outcomes.append((sub, _oracle(_canonicalize(sub, xhat, zhat, direction))))
        if not outcomes[-1][1].bounded:
            break
    return outcomes


def _emit_cut(neuron: Neuron, outcome: OracleOutcome, direction: str) -> Cut:
    alpha = outcome.alpha_full()
    if outcome.candidate.is_ray:
        # (x, z)-space inequality; identical for the hull of g and -g
        return retrieve_cut(neuron, alpha, direction, y_coef=0.0)
    if direction == LOWER:
        alpha = -alpha  # undo the output negation used by the canonical form
    return retrieve_cut(neuron, alpha, direction, y_coef=1.0)


def _cut(outcomes: list[tuple[Neuron, OracleOutcome]], yhat: float, direction: str,
         tol: float) -> Cut | None:
    """The violated cut the component outcomes give at yhat, or None when inside."""
    sub, last = outcomes[-1]
    if not last.bounded:
        return _emit_cut(sub, last, direction)
    query = float(yhat) if direction == UPPER else -float(yhat)
    if query <= sum(out.envelope for _, out in outcomes) + tol:
        return None
    cuts = [_emit_cut(sub, out, direction) for sub, out in outcomes]
    if len(cuts) == 1:
        return cuts[0]  # as retrieved: a sum would turn its -0.0 entries into 0.0
    return Cut(direction, sum(cut.alpha for cut in cuts), sum(cut.zcoef for cut in cuts))


def _certificate(outcomes: list[tuple[Neuron, OracleOutcome]], direction: str) -> float:
    if not outcomes[-1][1].bounded:
        return -np.inf if direction == UPPER else np.inf
    total = sum(out.envelope for _, out in outcomes)
    return total if direction == UPPER else -total


def separate_staircase(neuron: Neuron, xhat, yhat: float, zhat, direction: str,
                       tol: float = VIOLATION_TOL) -> Cut | None:
    """Return a violated cut, or None when (xhat, yhat, zhat) is inside.

    One staircase separation per component (see `_component_outcomes`): an
    unbounded component gives its ray cut in (x, z) alone; otherwise the
    query is compared with the summed envelope and the component cuts add
    up to the violated inequality. The formulation is expected to hold the
    seed cuts already: alpha = a w for a = 0 and each distinct slope a, both
    directions, z coefficients from `slab_extremes` (for a staircase of
    slope s, alpha = 0 and alpha = s w; if s = 0, y = sum_i d_i z_i). The
    candidate-family search is complete under that hypothesis.
    """
    outcomes = _component_outcomes(neuron, xhat, zhat, direction)
    return _cut(outcomes, yhat, direction, tol)


def membership_certificate(neuron: Neuron, xhat, zhat, direction: str) -> float:
    """One-sided envelope value on y at (xhat, zhat); +-inf off the projection.

    A query y is inside the (decomposition) hull on the given side iff it does
    not pass this value.
    """
    return _certificate(_component_outcomes(neuron, xhat, zhat, direction), direction)


def on_vertex_graph(neuron: Neuron, xhat, yhat: float, zhat, direction: str,
                    tol: float = VIOLATION_TOL) -> bool:
    """Exact inside test at a simplex vertex, answered without the oracle.

    e_i is a vertex of the simplex, so the hull's fiber over z = e_i is the
    graph of piece i over its closed slab. True only when z has exactly one
    nonzero entry i equal to 1.0, x lies in the box, t = w.x + b lies in
    [h_i, h_{i+1}] and y is on the inside of a_i t + d_i by the margin tol/2;
    any other point, invalid ones included, answers False. The neuron is
    not checked: the oracle rejects a pinned one (`is_pinned`), which
    `separate_pwl` tests and the verifier's one-piece skip covers.
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
    return gap <= tol / 2 if direction == UPPER else gap >= -tol / 2


def separate_pwl(neuron: Neuron, xhat, yhat: float, zhat, direction: str,
                 tol: float = VIOLATION_TOL) -> Cut | None:
    """Separation for general piecewise-linear activations.

    Points on the graph at a simplex vertex are answered by `on_vertex_graph`
    without the oracle, unless the neuron is pinned: that one goes on to the
    oracle's `DomainError`. Every other point goes to `separate_staircase`,
    which runs one staircase separation per component of the activation.
    """
    if on_vertex_graph(neuron, xhat, yhat, zhat, direction, tol) and not is_pinned(neuron):
        return None
    return separate_staircase(neuron, xhat, yhat, zhat, direction, tol)


def separate_with_certificate(neuron: Neuron, xhat, yhat: float, zhat,
                              direction: str) -> tuple[Cut | None, float]:
    """`separate_pwl`'s cut and `membership_certificate`'s value from one
    oracle pass over the components. The oracle runs before the screen, so
    a pinned neuron meets its `DomainError` here too."""
    outcomes = _component_outcomes(neuron, xhat, zhat, direction)
    screened = on_vertex_graph(neuron, xhat, yhat, zhat, direction, VIOLATION_TOL)
    cut = None if screened else _cut(outcomes, yhat, direction, VIOLATION_TOL)
    return cut, _certificate(outcomes, direction)
