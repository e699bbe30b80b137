"""Shared generators and independent reference solvers for the test suite."""

from __future__ import annotations

import numpy as np

from stairverify import pwl
from stairverify.formulations import VerificationQuery
from stairverify.lp import LinearProgram
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, Neuron


def random_staircase(rng, k, s, lo, hi, min_gap=1e-3):
    """k-piece staircase with slopes in {0, s} on [lo, hi]."""
    bp = np.sort(rng.uniform(lo, hi, size=k - 1))
    bp = np.concatenate([[lo], bp, [hi]])
    for i in range(1, len(bp)):
        if bp[i] - bp[i - 1] < min_gap:
            bp[i] = bp[i - 1] + min_gap
    slopes = rng.choice([0.0, s], size=k) if s != 0.0 else np.zeros(k)
    intercepts = rng.normal(size=k)
    return pwl.PiecewiseLinear(bp, slopes, intercepts)


def random_pwl(rng, k, lo, hi, slope_pool=None, discont_prob=0.4, min_gap=1e-3):
    """Continuous-by-default piecewise-linear function, jumps with probability."""
    bp = np.sort(rng.uniform(lo, hi, size=k - 1))
    bp = np.concatenate([[lo], bp, [hi]])
    for i in range(1, len(bp)):
        if bp[i] - bp[i - 1] < min_gap:
            bp[i] = bp[i - 1] + min_gap
    if slope_pool is None:
        slope_pool = rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=3,
                                replace=False)
    slopes = rng.choice(slope_pool, size=k)
    intercepts = np.empty(k)
    val = float(rng.normal())
    for i in range(k):
        if i > 0 and rng.random() < discont_prob:
            val += float(rng.normal()) * 0.5
        intercepts[i] = val - slopes[i] * bp[i]
        val = slopes[i] * bp[i + 1] + intercepts[i]
    return pwl.PiecewiseLinear(bp, slopes, intercepts)


def clip(f, lo, hi):
    """f clipped to [lo, hi] by the activations' clip rule, as a declared pwl."""
    return ActivationSpec("pwl", {"breakpoints": f.breakpoints, "slopes": f.slopes,
                                  "intercepts": f.intercepts}).instantiate(lo, hi)


def random_neuron(rng, n, k, s=None, pwl_activation=False, discont_prob=0.4):
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.3, 2.5, size=n)
    box = BoxDomain(lo, hi)
    w = rng.normal(size=n)
    w[np.abs(w) < 0.05] = 0.3
    b = float(rng.normal())
    probe = Neuron(w, b, pwl.identity(0.0, 1.0), box)
    L, U = probe.preact_range()
    if pwl_activation:
        f = random_pwl(rng, k, L, U, discont_prob=discont_prob)
    else:
        if s is None:
            s = float(rng.choice([0.0, 1.0, -1.0, 0.6, -0.4, 2.0]))
        f = random_staircase(rng, k, s, L, U)
    return Neuron(w, b, f, box)


def random_query_point(rng, neuron, interior_bias=0.7):
    k = neuron.activation.num_pieces
    xhat = neuron.box.sample(rng)
    if rng.random() < interior_bias:
        zhat = rng.dirichlet(np.ones(k))
    else:
        zhat = np.zeros(k)
        zhat[rng.integers(k)] = 1.0
    return xhat, zhat


def random_quantized_network(rng, n_in=3, hidden=(4,), n_out=2, bits=2,
                             weight_scale=1.0, activation="dorefa"):
    if activation == "dorefa":
        spec = ActivationSpec("dorefa", {"bits": bits, "lo": -1.0, "hi": 1.0})
    else:
        spec = ActivationSpec("relu", {})
    layers = []
    prev = n_in
    for width in hidden:
        layers.append(Layer.dense(rng.normal(size=(width, prev)) * weight_scale,
                                  rng.normal(size=width) * 0.3, spec))
        prev = width
    layers.append(Layer.dense(rng.normal(size=(n_out, prev)) * weight_scale,
                              rng.normal(size=n_out) * 0.1, None))
    return Network(tuple(layers), BoxDomain(-np.ones(n_in), np.ones(n_in)))


def dense_query(j, spec, eps=0.05) -> VerificationQuery:
    """Net j: 5-8-8-3 drawn from default_rng(j) with activation `spec` on
    every hidden neuron; an anchor of default_rng(1000 + j)."""
    rng = np.random.default_rng(j)
    layers = [Layer.dense(rng.normal(size=(out, n_in)), rng.normal(size=out), act)
              for n_in, out, act in ((5, 8, spec), (8, 8, spec), (8, 3, None))]
    net = Network(tuple(layers), BoxDomain(-np.ones(5), np.ones(5)))
    x0 = np.random.default_rng(1000 + j).uniform(-0.6, 0.6, 5)
    return VerificationQuery(net, x0, eps, int(np.argmax(net.forward(x0))))


def tanh_staircase_pair(scale: float = 1.0) -> pwl.PiecewiseLinear:
    """Symmetric 7-piece tanh-style approximation that splits into 2 staircases.

    The slope multiset {0, a, b, a, b, a, 0} uses only two nonzero values, so
    decompose_staircase returns exactly two components.
    """
    a, b = 0.12 * scale, 0.55 * scale
    bp = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    slopes = np.array([0.0, a, b, a, b, a, 0.0])
    # integrate from f(-4) = -1 for a tanh-like shape
    intercepts = np.empty(7)
    value = -1.0
    for i in range(7):
        intercepts[i] = value - slopes[i] * bp[i]
        value = slopes[i] * bp[i + 1] + intercepts[i]
    return pwl.PiecewiseLinear(bp, slopes, intercepts)


def activation_spec(kind: str) -> ActivationSpec:
    """A hidden activation: "dorefa" (2 bits on [-1, 1]), "relu", or
    "tanh-style" (`tanh_staircase_pair` slopes and breakpoints, the outer two
    at +-40 and the intercepts continuous from f(-40) = -1)."""
    if kind == "dorefa":
        return ActivationSpec("dorefa", {"bits": 2, "lo": -1.0, "hi": 1.0})
    if kind == "relu":
        return ActivationSpec("relu", {})
    if kind == "tanh-style":
        f = tanh_staircase_pair()
        bp = np.concatenate([[-40.0], f.breakpoints[1:-1], [40.0]])
        ends = np.concatenate([[0.0], np.cumsum(f.slopes * np.diff(bp))]) - 1.0
        return ActivationSpec("pwl", {"breakpoints": bp, "slopes": f.slopes,
                                      "intercepts": ends[:-1] - f.slopes * bp[:-1]})
    raise ValueError(f"unknown activation {kind!r}")


def wide_tanh_query(j, eps=0.05) -> VerificationQuery:
    """`dense_query` with the "tanh-style" `activation_spec`."""
    return dense_query(j, activation_spec("tanh-style"), eps)


def recipe_query(recipe: str, j: int, eps=0.05) -> VerificationQuery:
    """Query j of an off-benchmark recipe: "tanh-style" (`wide_tanh_query`,
    two staircase components) or "relu" (`dense_query` with ReLU)."""
    if recipe not in ("tanh-style", "relu"):
        raise ValueError(f"unknown recipe {recipe!r}")
    return dense_query(j, activation_spec(recipe), eps)


def separation_lp(canon) -> LinearProgram:
    """The separation dual as an explicit LP over the canonical data.

    Variables per piece i: beta^i (n), gamma^i (n), theta1_i, theta2_i >= 0,
    then the free alpha block (n).
    """
    n = canon.active.size
    k = canon.k
    blk = 2 * n + 2
    nv = blk * k + n
    c = np.zeros(nv)
    lower = np.zeros(nv)
    upper = np.full(nv, 1e30)
    lower[blk * k:] = -1e30
    for i in range(k):
        o = i * blk
        c[o:o + n] = canon.zhat[i] * canon.upper
        c[o + n:o + 2 * n] = -canon.zhat[i] * canon.lower
        c[o + 2 * n] = canon.zhat[i] * (canon.h[i + 1] - canon.b)
        c[o + 2 * n + 1] = -canon.zhat[i] * (canon.h[i] - canon.b)
    c[blk * k:] = canon.xhat
    rows, rhs = [], []
    for i in range(k):
        for j in range(n):
            row = np.zeros(nv)
            o = i * blk
            row[o + j] = 1.0
            row[o + n + j] = -1.0
            row[o + 2 * n] = canon.w[j]
            row[o + 2 * n + 1] = -canon.w[j]
            row[blk * k + j] = 1.0
            rows.append(row)
            rhs.append(canon.a[i] * canon.w[j])
    return LinearProgram("min", c, np.reshape(rows, (-1, nv)), rhs, rhs, lower, upper)


def scaled_dual_lp(canon) -> LinearProgram:
    """The scaled dual (the {0,+-1}-vertex system) as an explicit LP."""
    n = canon.active.size
    k = canon.k
    blk = 2 * n + 2
    nv = blk * k + n
    c = np.zeros(nv)
    lower = np.zeros(nv)
    upper = np.full(nv, 1e30)
    lower[blk * k:] = -1e30
    for i in range(k):
        o = i * blk
        c[o:o + n] = canon.zhat[i] * canon.m1
        c[o + n:o + 2 * n] = -canon.zhat[i] * canon.m2
        c[o + 2 * n] = canon.zhat[i] * (canon.h[i + 1] - canon.b)
        c[o + 2 * n + 1] = -canon.zhat[i] * (canon.h[i] - canon.b)
    c[blk * k:] = canon.xhat * canon.absw
    ratio = (canon.a / canon.s) if canon.s > 0 else np.zeros(k)
    rows, rhs = [], []
    for i in range(k):
        for j in range(n):
            row = np.zeros(nv)
            o = i * blk
            row[o + j] = 1.0
            row[o + n + j] = -1.0
            row[o + 2 * n] = canon.wbar[j]
            row[o + 2 * n + 1] = -canon.wbar[j]
            row[blk * k + j] = 1.0
            rows.append(row)
            rhs.append(ratio[i] * canon.wbar[j])
    return LinearProgram("min", c, np.reshape(rows, (-1, nv)), rhs, rhs, lower, upper)


def with_rows(lp: LinearProgram, rows, row_lower, row_upper) -> LinearProgram:
    """A new LP: `lp` with `rows` between `row_lower` and `row_upper` below its own."""
    return LinearProgram(lp.sense, lp.objective,
                         np.vstack([lp.rows, np.reshape(rows, (-1, lp.num_vars))]),
                         np.append(lp.row_lower, row_lower), np.append(lp.row_upper, row_upper),
                         lp.lower, lp.upper)


class NaiveSimplex:
    """Textbook dense-tableau simplex on standard form, used as an LP oracle.

    Solves min c.x s.t. A x <= b, x >= 0 via the full tableau with Bland's
    rule, converting free/bounded variables by splitting and shifting. Slow
    and simple on purpose. Phase 1 minimizes the artificials; the ones still
    basic (at zero) are pivoted out, their columns dropped, and phase 2 runs
    on the structurals and slacks alone.
    """

    def __init__(self, c, A_ub, b_ub):
        self.c = np.asarray(c, dtype=float)
        self.A = np.asarray(A_ub, dtype=float)
        self.b = np.asarray(b_ub, dtype=float)

    def solve(self):
        m, n = self.A.shape
        # tableau with slack variables; two-phase with artificials on b < 0 rows
        A = np.hstack([self.A, np.eye(m)])
        b = self.b.copy()
        for i in range(m):
            if b[i] < 0:
                A[i] = -A[i]
                b[i] = -b[i]
        art = np.eye(m)
        T = np.hstack([A, art])
        basis = list(range(n + m, n + 2 * m))
        cost1 = np.concatenate([np.zeros(n + m), np.ones(m)])
        status, basis = self._iterate(T, b, cost1, basis)
        if status != "optimal" or self._objective(T, b, cost1, basis) > 1e-7:
            return "infeasible", None, None
        for i, j in enumerate(basis):
            if j >= n + m:
                # row i of B^-1 T; the slack columns make it nonzero somewhere
                row = np.linalg.solve(T[:, basis].T, np.eye(m)[i]) @ T[:, :n + m]
                basis[i] = int(np.argmax(np.abs(row)))
        T = T[:, :n + m]
        cost2 = np.concatenate([self.c, np.zeros(m)])
        status, basis = self._iterate(T, b, cost2, basis)
        if status == "unbounded":
            return "unbounded", None, None
        x = np.zeros(n + m)
        xb = np.linalg.solve(T[:, basis], b)
        x[basis] = xb
        return "optimal", float(self.c @ x[:n]), x[:n]

    def _objective(self, T, b, cost, basis):
        xb = np.linalg.solve(T[:, basis], b)
        return float(cost[basis] @ xb)

    def _iterate(self, T, b, cost, basis):
        for _ in range(20000):
            B = T[:, basis]
            try:
                binv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                return "singular", basis
            xb = binv @ b
            y = cost[basis] @ binv
            red = cost - y @ T
            entering = -1
            for j in range(T.shape[1]):
                if j not in basis and red[j] < -1e-9:
                    entering = j
                    break
            if entering < 0:
                return "optimal", basis
            d = binv @ T[:, entering]
            ratios = [(xb[i] / d[i], basis[i], i) for i in range(len(basis)) if d[i] > 1e-9]
            if not ratios:
                return "unbounded", basis
            _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
            basis[leave] = entering
        return "cycling", basis
