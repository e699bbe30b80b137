"""Univariate piecewise-linear functions and staircase algebra.

A function with k pieces is stored as breakpoints ``h_0 < h_1 < ... < h_k``
together with per-piece slopes ``a_1..a_k`` and intercepts ``d_1..d_k``; piece
``i`` applies on ``[h_{i-1}, h_i)`` (the last piece is closed). Jumps at
breakpoints are allowed; evaluation is right-continuous by convention.

`PiecewiseLinear` is the one function type. A staircase is a piecewise-linear
function whose slopes all lie in {0, s} for a single common slope s (possibly
0 or negative); being one is a property of the slopes, which
`staircase_slope` tests. ReLU (s=1, two pieces) and uniform quantizers (s=0)
are special cases, and `decompose_staircase` splits any other function into
staircases. Clipping to a pre-activation range is `network.ActivationSpec`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

# Relative tolerance for merging breakpoints that collide after clipping.
BREAKPOINT_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class PiecewiseLinear:
    """Right-continuous univariate piecewise-linear function on [h_0, h_k]."""

    breakpoints: np.ndarray  # shape (k+1,), strictly increasing
    slopes: np.ndarray       # shape (k,)
    intercepts: np.ndarray   # shape (k,)

    def __post_init__(self):
        for name in ("breakpoints", "slopes", "intercepts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        bp, slopes, intercepts = self.breakpoints, self.slopes, self.intercepts
        if bp.ndim != 1 or bp.size < 2:
            raise ParameterError("need at least one piece (two breakpoints)")
        if slopes.shape != (bp.size - 1,) or intercepts.shape != (bp.size - 1,):
            raise ParameterError("slopes/intercepts must have one entry per piece")
        if not (bp[1:] > bp[:-1]).all():
            raise ParameterError("breakpoints must be strictly increasing")
        if not np.isfinite(np.concatenate((bp, slopes, intercepts))).all():
            raise ParameterError("breakpoints, slopes and intercepts must be finite")

    @property
    def num_pieces(self) -> int:
        return self.breakpoints.size - 1

    @property
    def lo(self) -> float:
        return float(self.breakpoints[0])

    @property
    def hi(self) -> float:
        return float(self.breakpoints[-1])

    def piece_index(self, t: float) -> int:
        """0-based index of the right-continuous piece containing t."""
        if t < self.lo or t > self.hi:
            raise DomainError(f"t={t} outside [{self.lo}, {self.hi}]")
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(idx, 0), self.num_pieces - 1)

    def __call__(self, t: float) -> float:
        i = self.piece_index(t)
        return float(self.slopes[i] * t + self.intercepts[i])

    def batch(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation with the same right-continuous convention."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < self.lo - 1e-9) or np.any(ts > self.hi + 1e-9):
            raise DomainError("batch evaluation outside the function domain")
        idx = np.clip(np.searchsorted(self.breakpoints, ts, side="right") - 1,
                      0, self.num_pieces - 1)
        return self.slopes[idx] * ts + self.intercepts[idx]

    def piece_value(self, i: int, t: float) -> float:
        """Value of piece i's affine extension at t (closure semantics)."""
        return float(self.slopes[i] * t + self.intercepts[i])

    def output_range(self) -> tuple[float, float]:
        """Min/max of the closure of the graph over the full domain."""
        left = self.slopes * self.breakpoints[:-1] + self.intercepts
        right = self.slopes * self.breakpoints[1:] + self.intercepts
        return float(min(left.min(), right.min())), float(max(left.max(), right.max()))

    def is_continuous(self) -> bool:
        """No jump above 1e-9 relative to the largest slope or intercept."""
        scale = max(1.0, float(np.abs(self.intercepts).max()), float(np.abs(self.slopes).max()))
        return all(abs(self.jump_at(i)) <= 1e-9 * scale for i in range(1, self.num_pieces))

    def jump_at(self, i: int) -> float:
        """f(h_i+) - f(h_i-) for an interior breakpoint index 1 <= i <= k-1."""
        h = self.breakpoints[i]
        return self.piece_value(i, h) - self.piece_value(i - 1, h)


def staircase_slope(f: PiecewiseLinear) -> float | None:
    """Common slope s if f is a staircase (slopes within 1e-9 relative of {0, s}),
    else None."""
    nonzero = f.slopes[np.abs(f.slopes) > 1e-9]
    if nonzero.size == 0:
        return 0.0
    s = float(nonzero[0])
    if np.all(np.abs(nonzero - s) <= 1e-9 * max(1.0, abs(s))):
        return s
    return None


def distinct_slopes(slopes: np.ndarray) -> list[float]:
    """The distinct nonzero slopes in order of first appearance (relative 1e-12)."""
    distinct: list[float] = []
    for a in slopes:
        if abs(a) > 0 and not any(abs(a - s) <= 1e-12 * max(1.0, abs(s)) for s in distinct):
            distinct.append(float(a))
    return distinct


def constant(value: float, lo: float, hi: float) -> PiecewiseLinear:
    return PiecewiseLinear([lo, hi], [0.0], [value])


def identity(lo: float, hi: float) -> PiecewiseLinear:
    return PiecewiseLinear([lo, hi], [1.0], [0.0])


def relu(lo: float, hi: float) -> PiecewiseLinear:
    """ReLU restricted to [lo, hi]; the kink at 0 appears only if interior."""
    if lo >= 0:
        return identity(lo, hi)
    if hi <= 0:
        return constant(0.0, lo, hi)
    return PiecewiseLinear([lo, 0.0, hi], [0.0, 1.0], [0.0, 0.0])


def dorefa(bits: int, lo: float, hi: float) -> PiecewiseLinear:
    """Uniform 2**bits-level quantizer on [lo, hi] with output levels in [0, 1].

    Piecewise constant (s = 0) with equal-width pieces; level i of 2**bits is
    i / (2**bits - 1). This is the convention used throughout the toolkit.
    """
    if bits < 1:
        raise ParameterError("bits must be >= 1")
    if not lo < hi:
        raise ParameterError("need lo < hi")
    k = 2 ** bits
    bp = np.linspace(lo, hi, k + 1)
    levels = np.arange(k) / (k - 1)
    return PiecewiseLinear(bp, np.zeros(k), levels)


def decompose_staircase(f: PiecewiseLinear
                        ) -> tuple[PiecewiseLinear | None, list[PiecewiseLinear]]:
    """Split f into an optional piecewise-constant jump part and staircases.

    Returns ``(f0, [f_1..f_m])`` with ``f = f0 + sum(f_v)`` pointwise on the
    shared breakpoint grid. f0 collects all jump discontinuities and is None
    when f is continuous. Each f_v is a continuous staircase taking slope s_v
    on the pieces where f has that slope and 0 elsewhere; the components split
    f's value at the left endpoint evenly, f_v(h_0) = f(h_0) / m.

    m is the number of `distinct_slopes` (at least 1), so m <= k and
    m <= |{distinct slopes}|.
    """
    k = f.num_pieces
    bp = f.breakpoints

    # continuous part: same slopes, jumps removed by chaining piece values
    jumps = np.array([0.0] + [f.jump_at(i) for i in range(1, k)])
    cum_jump = np.cumsum(jumps)
    cont_intercepts = f.intercepts - cum_jump
    f0 = None
    if np.any(np.abs(jumps) > 0):
        # piecewise-constant jump accumulator: f0 is 0 on the first piece
        f0 = PiecewiseLinear(bp, np.zeros(k), cum_jump)

    slopes = f.slopes
    distinct = distinct_slopes(slopes)
    if not distinct:
        # constant (after jump removal): one flat staircase on the same grid
        base = float(cont_intercepts[0] + slopes[0] * bp[0])
        return f0, [PiecewiseLinear(bp, np.zeros(k), np.full(k, base))]

    m = len(distinct)
    f_left = float(slopes[0] * bp[0] + cont_intercepts[0])
    parts = []
    for s_v in distinct:
        active = np.abs(slopes - s_v) <= 1e-12 * max(1.0, abs(s_v))
        comp_slopes = np.where(active, s_v, 0.0)
        # integrate the slope pattern from the left to stay continuous
        intercepts = np.empty(k)
        value = f_left / m
        for i in range(k):
            intercepts[i] = value - comp_slopes[i] * bp[i]
            value = comp_slopes[i] * bp[i + 1] + intercepts[i]
        parts.append(PiecewiseLinear(bp, comp_slopes, intercepts))
    return f0, parts
