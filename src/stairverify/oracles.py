"""Independent brute-force references used by the test suites.

Everything here trades speed for obvious correctness: vertex enumeration by
active-set search, subset enumeration for the separation set function,
exhaustive piece-pattern verification, and sampled total-unimodularity
checks with exact integer determinants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapabilityError
from .lp import EQUAL, LinearProgram, solve
from .network import Neuron
from .separation import PsiInstance

MAX_ENUM_DIM = 4
MAX_BRUTE_PIECES = 16
MAX_PATTERNS = 4096


@dataclass
class VertexSet:
    """Vertices (x, y, z=e_i) of the lifted graph of one neuron."""

    xs: np.ndarray       # (m, n)
    ys: np.ndarray       # (m,)
    pieces: np.ndarray   # (m,) 0-based piece index

    def __len__(self) -> int:
        return self.xs.shape[0]

    def as_points(self, k: int) -> np.ndarray:
        z = np.zeros((len(self), k))
        z[np.arange(len(self)), self.pieces] = 1.0
        return np.hstack([self.xs, self.ys[:, None], z])


def enumerate_cayley_vertices(neuron: Neuron, tol: float = 1e-9) -> VertexSet:
    """All vertices of every slice polytope, paired with the piece value.

    Works by enumerating active sets over the 2n box facets plus the two slab
    facets; exact and cheap for n <= 4.
    """
    n = neuron.dim
    if n > MAX_ENUM_DIM:
        raise CapabilityError(f"vertex enumeration supports n <= {MAX_ENUM_DIM}, got {n}")
    f = neuron.activation
    w = neuron.weight
    lo, hi = neuron.box.lower, neuron.box.upper
    xs, ys, pieces = [], [], []
    planes = [(_unit(n, j), lo[j]) for j in range(n)] + \
             [(_unit(n, j), hi[j]) for j in range(n)]
    for i in range(f.num_pieces):
        lo_t = f.breakpoints[i] - neuron.bias
        hi_t = f.breakpoints[i + 1] - neuron.bias
        slice_planes = planes + [(w, lo_t), (w, hi_t)]
        seen = set()
        for combo in itertools.combinations(range(len(slice_planes)), n):
            A = np.array([slice_planes[c][0] for c in combo], dtype=float)
            b = np.array([slice_planes[c][1] for c in combo], dtype=float)
            try:
                x = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                continue
            if np.any(x < lo - tol) or np.any(x > hi + tol):
                continue
            t = float(w @ x)
            if t < lo_t - tol or t > hi_t + tol:
                continue
            key = tuple(np.round(x, 9))
            if key in seen:
                continue
            seen.add(key)
            xs.append(np.clip(x, lo, hi))
            ys.append(f.piece_value(i, float(w @ x + neuron.bias)))
            pieces.append(i)
    return VertexSet(np.array(xs), np.array(ys), np.array(pieces, dtype=int))


def _unit(n, j):
    e = np.zeros(n)
    e[j] = 1.0
    return e


def hull_membership_lp(vertices: VertexSet, point: np.ndarray, k: int) -> float:
    """Max residual of expressing `point` as a convex combination of vertices.

    Returns the phase-1 style infeasibility measure: 0 means the point lies in
    the convex hull (up to solver tolerance).
    """
    P = vertices.as_points(k).T          # (dim, m)
    m = P.shape[1]
    lp = LinearProgram("min", np.zeros(m), lower=np.zeros(m), upper=np.full(m, 1e30))
    for r in range(P.shape[0]):
        lp.add_row(P[r], EQUAL, float(point[r]))
    lp.add_row(np.ones(m), EQUAL, 1.0)
    sol = solve(lp)
    return 0.0 if sol.status == "optimal" else np.inf


def hull_envelope(vertices: VertexSet, xhat, zhat, k: int, direction: str) -> float:
    """Tightest bound on y over the hull at fixed (xhat, zhat); +-inf if empty."""
    P = vertices.as_points(k)
    m = P.shape[0]
    sense = "max" if direction == "upper" else "min"
    lp = LinearProgram(sense, P[:, len(xhat)], lower=np.zeros(m), upper=np.full(m, 1e30))
    for j in range(len(xhat)):
        lp.add_row(P[:, j], EQUAL, float(xhat[j]))
    for i in range(k):
        lp.add_row(P[:, len(xhat) + 1 + i], EQUAL, float(zhat[i]))
    lp.add_row(np.ones(m), EQUAL, 1.0)
    sol = solve(lp)
    if sol.status != "optimal":
        return -np.inf if direction == "upper" else np.inf
    return sol.objective


def brute_min_psi(inst: PsiInstance) -> tuple[np.ndarray, float]:
    """Exact minimum of psi over all subsets of the free pieces (at most 16)."""
    idx = np.flatnonzero(inst.free)
    kf = idx.size
    if kf > MAX_BRUTE_PIECES:
        raise CapabilityError(f"brute_min_psi supports at most {MAX_BRUTE_PIECES} free pieces")
    codes = np.arange(2 ** kf, dtype=np.uint32)
    members = (codes[:, None] >> np.arange(kf)[None, :]) & 1   # (2^kf, kf)
    zf = inst.zhat[idx]
    hf = (inst.zhat * inst.hbar)[idx]
    sigma = members @ zf
    head = members @ hf + inst.base
    # vectorized concave term via the sorted ratio prefix sums
    dsort = inst.delta[inst.order]
    xsort = inst.xbar[inst.order]
    pref_d = np.concatenate([[0.0], np.cumsum(dsort)])
    pref_x = np.concatenate([[0.0], np.cumsum(xsort)])
    t = np.searchsorted(inst.ratios, sigma, side="right")
    tail = pref_x[t] + sigma * (pref_d[-1] - pref_d[t])
    vals = head + tail
    best = int(np.argmin(vals))
    K = idx[np.flatnonzero(members[best])]
    return K, float(vals[best])


def exhaustive_verify(model) -> float:
    """Exact target-attack optimum by enumerating per-neuron piece patterns.

    `model` is a prepared query model (see formulations.build_query_model).
    Every activated neuron is pinned to one piece; each pattern becomes a
    small LP whose feasible set is the corresponding closure branch, and the
    result is the max over feasible patterns (-inf when none is feasible).
    No pattern is pruned up front: each activation is clipped to its
    neuron's interval, so every piece is reachable by bounds alone.
    """
    options = model.pattern_prefilter()
    total = 1
    for opts in options:
        total *= len(opts)
    if total > MAX_PATTERNS:
        raise CapabilityError(f"pattern budget exceeded: {total} > {MAX_PATTERNS}")
    best = -np.inf
    for pattern in itertools.product(*options):
        lp = model.pattern_lp(pattern)
        sol = solve(lp)
        if sol.status == "optimal" and sol.objective > best:
            best = sol.objective
    return best


def build_ahat(wbar: np.ndarray, k: int, tamper: tuple[int, int, int] | None = None
               ) -> np.ndarray:
    """Constraint matrix of the scaled separation dual as an integer array.

    Block row i covers piece i's columns [beta^i, gamma^i, theta^i_1,
    theta^i_2] followed by the shared alpha block.
    """
    wbar = np.asarray(wbar, dtype=int)
    n = wbar.size
    block = 2 * n + 2
    A = np.zeros((n * k, block * k + n), dtype=int)
    for i in range(k):
        rows = slice(i * n, (i + 1) * n)
        cols = i * block
        A[rows, cols:cols + n] = np.eye(n, dtype=int)
        A[rows, cols + n:cols + 2 * n] = -np.eye(n, dtype=int)
        A[rows, cols + 2 * n] = wbar
        A[rows, cols + 2 * n + 1] = -wbar
        A[rows, block * k:] = np.eye(n, dtype=int)
    if tamper is not None:
        A[tamper[0], tamper[1]] = tamper[2]
    return A


def _int_det(M: np.ndarray) -> int:
    """Exact determinant via fraction-free Gaussian elimination."""
    M = [[Fraction(int(v)) for v in row] for row in M]
    size = len(M)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if M[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = M[col][col]
        for r in range(col + 1, size):
            factor = M[r][col] / inv
            if factor == 0:
                continue
            for c in range(col, size):
                M[r][c] -= factor * M[col][c]
    assert det.denominator == 1
    return int(det)


def sample_tu_check(n: int, k: int, trials: int, seed: int = 0,
                    tamper: tuple[int, int, int] | None = None):
    """Sample square submatrices of the dual constraint matrix.

    Returns (True, None) when every sampled determinant lies in {0, +-1};
    otherwise (False, witness) with the offending (rows, cols, det). All 1x1
    submatrices are scanned first so a corrupted entry is always caught.
    """
    if n > 4 or k > 3:
        raise CapabilityError("sampled TU check supports n <= 4, k <= 3")
    rng = np.random.default_rng(seed)
    wbar = rng.integers(-1, 2, size=n)
    if not np.any(wbar):
        wbar[0] = 1
    A = build_ahat(wbar, k, tamper=tamper)
    rows, cols = A.shape
    bad_entries = np.argwhere(np.abs(A) > 1)
    if bad_entries.size:
        r, c = bad_entries[0]
        return False, ((int(r),), (int(c),), int(A[r, c]))
    max_size = min(rows, cols)
    for _ in range(trials):
        size = int(rng.integers(1, max_size + 1))
        ridx = rng.choice(rows, size=size, replace=False)
        cidx = rng.choice(cols, size=size, replace=False)
        det = _int_det(A[np.ix_(ridx, cidx)])
        if det not in (-1, 0, 1):
            return False, (tuple(int(r) for r in ridx), tuple(int(c) for c in cidx), det)
    return True, None
