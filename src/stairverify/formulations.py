"""Per-neuron constraint systems and whole-query models.

Two interchangeable encodings of one neuron's lifted graph over piece
indicators z in the unit simplex. Both write the simplex and slab coupling
rows; a flat activation gets the exact ``y = sum_i d_i z_i`` in both, and a
neuron with one piece Big-M's rows, its graph. The other y rows take their
z coefficients from one slab table, `slab_extremes(neuron, a)`: the min and
max of (a_i - a) w.x + dbar_i over each piece i's slice.

* Big-M: indicator rows deactivated by M constants, piece i's being the
  table at a = a_i less dbar_i.
* Cayley: a growable pool of hull cuts, seeded in both directions with
  alpha = a w for a = 0 and each distinct nonzero slope a, the table at a
  giving their z coefficients, so an integral z holds y on its piece.

Integrality of z is a solver-mode flag, never a formulation change, and the
same pre-activation bounds feed both builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import PreActBounds, deeppoly_bounds
from .errors import InputError
from .lp import INF, LinearProgram, Stacked, check_rows
from .network import BoxDomain, Network, Neuron
from .pwl import distinct_slopes
# no model build calls retrieve_cut; the benchmark tracer (perfbench/tracing.py) wraps it here
from .separation import Cut, LOWER, UPPER, retrieve_cut, slab_extremes

BIGM, CAYLEY = "bigm", "cayley"


@dataclass(frozen=True)
class VerificationQuery:
    """Targeted robustness query: can an input in the eps-ball flip l to l'?"""

    network: Network
    x0: np.ndarray
    eps: float
    label: int
    target: int | None = None   # None = try every other label
    xi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.network.input_dim,):
            raise InputError("anchor input has the wrong dimension")
        if not np.all(np.isfinite(self.x0)):
            raise InputError("anchor input must be finite")
        if not self.eps >= 0.0:
            raise InputError(f"eps must be a nonnegative number, got {self.eps}")
        if np.isnan(self.xi):
            raise InputError(f"xi must be a number, got {self.xi}")
        if not (0 <= self.label < self.network.output_dim):
            raise InputError("label out of range")
        if self.target is not None and (
                not (0 <= self.target < self.network.output_dim)
                or self.target == self.label):
            raise InputError("target must be a different valid label")

    def targets(self) -> list[int]:
        if self.target is not None:
            return [self.target]
        return [t for t in range(self.network.output_dim) if t != self.label]

    def with_target(self, target: int) -> "VerificationQuery":
        return VerificationQuery(self.network, self.x0, self.eps, self.label,
                                 target, self.xi)

    def input_region(self) -> BoxDomain:
        return self.network.input_box.around(self.x0, self.eps)


def attack_objective(n_out: int, label: int, target: int) -> np.ndarray:
    c = np.zeros(n_out)
    c[target] = 1.0
    c[label] = -1.0
    return c




@dataclass
class NeuronFormulation:
    """Variable ids and cut pool of one activated neuron inside a model."""

    layer: int
    index: int
    neuron: Neuron          # weight/bias over the previous layer, clipped activation
    x_vars: np.ndarray
    y_var: int
    z_vars: np.ndarray
    pool: set = field(default_factory=set)   # keys of the installed cuts

    @property
    def key(self) -> tuple[int, int]:
        return (self.layer, self.index)


class _RowModel:
    """Shared variable/row bookkeeping for neuron and query models.

    `_build` lays the layers out in arrays: the inputs, then per layer each
    neuron's y with an activated neuron's z after it. The activated neurons'
    pieces are concatenated in (layer, index) order: `slopes`, `intercepts`,
    slab ends `left` and `right`, z columns `z_index`, each neuron's first
    piece at `z_starts` (the count appended). `layers` keeps one trace table
    per layer. `_write_rows` writes every row from these arrays through
    `_write`, the one row writer, which `add_cut` uses too and which checks
    each row. The rows live in one dense matrix, grown by doubling, next to
    their lower and upper bound arrays: `to_lp` hands them to
    `LinearProgram` as they are, with one `Stacked` tableau per row set.
    """

    def __init__(self, mode: str):
        if mode not in (BIGM, CAYLEY):
            raise InputError(f"mode must be '{BIGM}' or '{CAYLEY}'")
        self.mode = mode
        self.lower = self.upper = self.row_lower = self.row_upper = np.zeros(0)
        self._matrix = np.zeros((0, 0))
        self._stacked: Stacked | None = None
        self.objective: np.ndarray | None = None
        self.neurons: dict[tuple[int, int], NeuronFormulation] = {}
        self.activated: list[NeuronFormulation] = []   # in (layer, index) order
        self.layers: list[tuple] = []

    def num_vars(self) -> int:
        return self.lower.size

    def _build(self, lower, upper, weights, biases, functions, pre_lo, pre_hi) -> None:
        """Variables, trace tables and rows of the layers over inputs in [lower,
        upper]: an affine y (`functions` None) in its pre-activation interval, an
        activated one in its output range (`PiecewiseLinear.output_range`), a z
        in [0, 1]. Each activated neuron is built on its layer's input box."""
        fs = [f for fl in functions for f in fl if f is not None]
        act = np.flatnonzero([f is not None for fl in functions for f in fl])
        k = np.array([f.num_pieces for f in fs], dtype=int)
        pieces = np.zeros(sum(map(len, functions)), dtype=int)
        pieces[act] = k
        y = lower.size + np.arange(pieces.size) + np.cumsum(pieces) - pieces
        start = self.z_starts = np.concatenate(([0], np.cumsum(k)))
        owner = np.repeat(np.arange(k.size), k)
        z = self.z_index = (y[act] + 1 - start[:-1])[owner] + np.arange(start[-1])
        self.slopes, self.intercepts, bp = (np.concatenate([getattr(f, name) for f in fs] or [[]])
                                            for name in ("slopes", "intercepts", "breakpoints"))
        ends = np.arange(z.size) + owner   # each piece's left breakpoint in `bp`
        self.left, self.right = bp[ends], bp[ends + 1]
        inner = ends + 1 < (start[1:] + np.arange(k.size))[owner]   # its right one is interior
        inner_bp, inner_of = self.right[inner], owner[inner]
        self.lower = np.concatenate((lower, np.zeros(y.size + z.size)))
        self.upper = np.concatenate((upper, np.ones(y.size + z.size)))
        self.lower[y], self.upper[y] = np.concatenate(pre_lo), np.concatenate(pre_hi)
        low, high = (self.slopes * e + self.intercepts for e in (self.left, self.right))
        self.lower[y[act]] = np.minimum.reduceat(np.minimum(low, high), start[:-1])
        self.upper[y[act]] = np.maximum.reduceat(np.maximum(low, high), start[:-1])
        # per layer the formulations, the trace table (affine map, y columns, activated
        # neurons with clip bounds and first pieces, interior breakpoints with their
        # neuron and each neuron's first), and the rows' padded weights and x columns
        width = max(w.shape[1] for w in weights)
        self._wpad, self._xcols = np.zeros((y.size, width)), np.full((y.size, width), -1)
        x, g, a, i = np.arange(lower.size), 0, 0, 0
        for li, (w, b, fl) in enumerate(zip(weights, biases, functions)):
            g1, a1 = g + len(fl), a + len(fl) - fl.count(None)
            i1 = start[a1] - a1
            self._wpad[g:g1, :x.size], self._xcols[g:g1, :x.size] = w, x
            js = act[a:a1] - g
            box = BoxDomain(self.lower[x], self.upper[x])
            for j, s, e in zip(js.tolist(), start[a:a1].tolist(), start[a + 1:a1 + 1].tolist()):
                nrn = Neuron(w[j], float(b[j]), fl[j], box)
                nf = NeuronFormulation(li, j, nrn, x, int(y[g + j]), z[s:e])
                self.neurons[nf.key] = nf
                self.activated.append(nf)
            self.layers.append((w, b, y[g:g1], js, self.left[start[a:a1]],
                                self.right[start[a + 1:a1 + 1] - 1], start[a:a1],
                                inner_bp[i:i1], inner_of[i:i1] - a,
                                start[a:a1 + 1] - np.arange(a, a1 + 1) - i))
            x, g, a, i = y[g:g1], g1, a1, i1
        self._y, self._act, self._bias = y, act, np.concatenate(biases)
        self._write_rows()

    def _x_entries(self, rows, g, scale):
        """(rows, columns, values) of `scale` times neuron g's weights on its inputs."""
        cols = self._xcols[g]
        keep = cols >= 0
        return (np.repeat(rows, cols.shape[1])[keep.ravel()], cols[keep],
                (scale[:, None] * self._wpad[g])[keep])

    def _write_rows(self) -> None:
        """Every row, neuron by neuron: y = w.x + b for an affine neuron; for an
        activated one the simplex and slab rows, then the y rows, where the
        formulations differ only on a neuron with two or more pieces and a
        nonzero slope. A flat one gets y = sum_i d_i z_i, which is also the
        alpha = 0 seed pair; Big-M and a one-piece neuron two M rows per piece
        i, bounding y - (a_i t + d_i) (0 for one piece); Cayley the seed cuts,
        installed by `add_cut` after the neuron's slab rows."""
        y, act, bias, start, z = self._y, self._act, self._bias, self.z_starts, self.z_index
        k = np.diff(start)
        owner = np.repeat(np.arange(k.size), k)
        flat = np.logical_and.reduceat(np.abs(self.slopes) <= 1e-12, start[:-1])
        bigm = ~flat & ((self.mode == BIGM) | (k == 1))
        count = np.ones(y.size, dtype=int)
        count[act] = 3 + np.where(flat, 1, 2 * k * bigm)
        row = np.cumsum(count) - count
        affine, r, ro, ya = np.flatnonzero(count == 1), row[act], row[act][owner], y[act]
        fp, p = flat[owner], np.flatnonzero(bigm[owner])
        hi_row, pa = ro[p] + 3 + 2 * (p - start[owner[p]]), owner[p]
        ext = [(n.dbar(), *slab_extremes(n, n.activation.slopes))
               for n in (self.activated[a].neuron for a in np.flatnonzero(bigm))]
        m_lo = np.concatenate([lows.min(axis=1) - d for d, lows, _ in ext] or [[]])
        m_hi = np.concatenate([highs.max(axis=1) - d for d, _, highs in ext] or [[]])
        # x coefficients: w on the affine and slab rows, -a_i w on piece i's M rows
        entries = [self._x_entries(
            np.concatenate((row[affine], r + 1, r + 2, hi_row, hi_row + 1)),
            np.concatenate((affine, act, act, act[pa], act[pa])),
            np.concatenate((np.ones(affine.size + 2 * r.size), -self.slopes[p], -self.slopes[p]))),
            (row[affine], y[affine], np.full(affine.size, -1.0)),
            (np.concatenate((ro, ro + 1, ro + 2)), np.concatenate((z, z, z)),
             np.concatenate((np.ones(z.size), -self.left, -self.right))),
            (ro[fp] + 3, z[fp], -self.intercepts[fp]), (r[flat] + 3, ya[flat], np.ones(flat.sum())),
            (np.concatenate((hi_row, hi_row + 1) * 2), np.concatenate((z[p], z[p], ya[pa], ya[pa])),
             np.concatenate((m_hi, m_lo, np.ones(2 * p.size))))]
        rows, cols, vals = (np.concatenate([e[i] for e in entries]) for i in range(3))
        lo, hi = np.zeros(count.sum()), np.zeros(count.sum())   # one-sided: slab and M rows
        lo[row[affine]] = hi[row[affine]] = -bias[affine]
        lo[r] = hi[r] = 1.0
        lo[r + 1], hi[r + 1], lo[r + 2], hi[r + 2] = -bias[act], INF, -INF, -bias[act]
        dbar = self.slopes[p] * bias[act][pa] + self.intercepts[p]
        lo[hi_row], hi[hi_row], lo[hi_row + 1], hi[hi_row + 1] = -INF, m_hi + dbar, m_lo + dbar, INF
        seeded, begin = np.flatnonzero(~flat & ~bigm), 0
        for end, a in zip((r[seeded] + 3).tolist() + [lo.size], seeded.tolist() + [None]):
            on = (rows >= begin) & (rows < end)
            self._write(rows[on] - begin, cols[on], vals[on], lo[begin:end], hi[begin:end])
            if a is None:
                break
            # the seeds: at z = e_i the pair of a_i holds y on piece i's line
            nf, begin = self.activated[a], end
            seeds = [0.0] + distinct_slopes(nf.neuron.activation.slopes)
            for s, low, high in zip(seeds, *slab_extremes(nf.neuron, seeds)):
                self.add_cut(nf, Cut(UPPER, s * nf.neuron.weight, high))
                self.add_cut(nf, Cut(LOWER, s * nf.neuron.weight, low))

    def _write(self, rows, cols, vals, lo, hi) -> None:
        """Append len(lo) rows between `lo` and `hi`, holding `vals` at (`rows`,
        `cols`), rows counted from the first new one, and zero elsewhere."""
        check_rows(vals, lo, hi)
        m, cap = self.row_lower.size, len(self._matrix)
        if m + len(lo) > cap:   # double the rows; the first rows set the width
            grown = np.zeros((cap + max(64, m + len(lo), cap), self.num_vars()))
            grown[:m, :self._matrix.shape[1]] = self._matrix[:m]
            self._matrix = grown
        self._matrix[m + rows, cols] = vals
        self.row_lower = np.append(self.row_lower, lo)
        self.row_upper = np.append(self.row_upper, hi)
        self._stacked = None

    def add_cut(self, nf: NeuronFormulation, cut: Cut) -> bool:
        """Install a cut row unless an equal one (up to 1e-10) is pooled already."""
        key = cut.key()
        if key in nf.pool:
            return False
        lo, hi = (-INF, -cut.const) if cut.y_coef and cut.direction == LOWER else (-cut.const, INF)
        self._write(0, np.concatenate((nf.x_vars, nf.z_vars, [nf.y_var])),
                    np.concatenate((cut.alpha, cut.zcoef, [-cut.y_coef])), [lo], [hi])
        nf.pool.add(key)
        return True

    def neuron_point(self, x: np.ndarray, key: tuple[int, int]):
        nf = self.neurons[key]
        return x[nf.x_vars], float(x[nf.y_var]), x[nf.z_vars]

    def to_lp(self, upper: np.ndarray | None = None) -> LinearProgram:
        """The LP maximizing the objective, its rows a view of the model's (not
        to be written) and shared tableau; `upper` replaces the variable upper
        bounds (a B&B node)."""
        rows = self._matrix[:self.row_lower.size]
        self._stacked = self._stacked or Stacked(rows, self.row_lower, self.row_upper)
        return LinearProgram("max", self.objective.copy(), rows, self.row_lower, self.row_upper,
                             self.lower.copy(), self.upper.copy() if upper is None else upper,
                             self._stacked)

    def activated_neurons(self) -> list[NeuronFormulation]:
        return self.activated


class NeuronModel(_RowModel):
    """Standalone model of a single neuron over its input box: a one-neuron layer."""

    def __init__(self, neuron: Neuron, mode: str):
        super().__init__(mode)
        self._build(neuron.box.lower, neuron.box.upper, [neuron.weight[None]],
                    [np.array([neuron.bias])], [[neuron.activation]], [[0.0]], [[0.0]])
        self.nf = self.activated[0]
        self.objective = np.zeros(self.num_vars())


def build_bigm(neuron: Neuron) -> NeuronModel:
    """Big-M formulation of one neuron."""
    return NeuronModel(neuron, BIGM)


def build_cayley(neuron: Neuron) -> NeuronModel:
    """Seeded Cayley formulation of one neuron; the pool grows via separation."""
    return NeuronModel(neuron, CAYLEY)


class QueryModel(_RowModel):
    """Assembled LP/MIP over input, activation and piece-indicator variables.

    The model lays out the network's layers with the clipped functions of
    `bounds` in one `_build`, so a forward trace is a few array operations
    per layer. One model serves every target of its query: `set_target`
    changes only the objective, so rows and pooled cuts carry over from
    target to target. A query with a target gets its objective here.
    """

    def __init__(self, query: VerificationQuery, mode: str,
                 bounds: PreActBounds | None = None):
        super().__init__(mode)
        self.query = query
        net = query.network
        self.net = net
        self.region = query.input_region()
        self.bounds = bounds if bounds is not None else deeppoly_bounds(net, self.region)
        self._build(self.region.lower, self.region.upper, [layer.weights for layer in net.layers],
                    [layer.bias for layer in net.layers],
                    [r.functions for r in self.bounds.relaxed_layers(net)],
                    self.bounds.lower, self.bounds.upper)
        self.y_vars = [t[2] for t in self.layers]
        self.objective = np.zeros(self.num_vars())
        if query.target is not None:
            self.set_target(query.target)

    def set_target(self, target: int) -> None:
        """Objective out[target] - out[label]; rows and cut pools stay as they are."""
        if target == self.query.label or not 0 <= target < self.net.output_dim:
            raise InputError("target must be a different valid label")
        self.objective = np.zeros(self.num_vars())
        self.objective[self.y_vars[-1]] = attack_objective(self.net.output_dim,
                                                           self.query.label, target)

    # -- solution probing -----------------------------------------------------

    def input_point(self, x: np.ndarray) -> np.ndarray:
        return np.array(x[:self.net.input_dim])

    def trace_assignment(self, x_input) -> np.ndarray:
        """Full variable assignment induced by a forward trace (z one-hot): each
        activated neuron clips its pre-activation to its interval and takes the
        piece after its interior breakpoints at or below it (right-continuous)."""
        vals = np.zeros(self.num_vars())
        current = np.asarray(x_input, dtype=float)
        vals[:self.net.input_dim] = current
        for w, b, y, act, lo, hi, first, inner, inner_of, inner_start in self.layers:
            out = w @ current + b
            ts = np.clip(out[act], lo, hi)
            below = np.concatenate(([0], np.cumsum(inner <= ts[inner_of])))
            piece = first + below[inner_start[1:]] - below[inner_start[:-1]]
            out[act] = self.slopes[piece] * ts + self.intercepts[piece]
            vals[self.z_index[piece]] = 1.0
            vals[y] = current = out
        return vals

    # -- independent pattern route (used by the exhaustive oracle) ------------

    def pattern_prefilter(self) -> list[list[int]]:
        """Per neuron, every piece index: each activation is already clipped to
        the neuron's interval, so every piece's slab meets it."""
        return [list(range(len(nf.z_vars))) for nf in self.activated_neurons()]

    def pattern_lp(self, pattern, margin: float = 0.0) -> LinearProgram:
        """One closure branch: every activated neuron pinned to one piece.

        Built from the network data directly (affine rows, then per neuron w.x
        between its piece's slab ends in one row and y on the piece's line, its
        z pinned at e_piece by their bounds) so the exhaustive oracle does not
        reuse the Big-M or Cayley rows it is meant to check. A positive
        `margin` pulls each interior slab edge in by margin * max(1, |edge|):
        at an upper edge the network takes the next piece, and a point the LP
        puts on a lower edge may sit a rounding error below it. A slab the
        margin empties crosses its z's bounds, so the LP is infeasible.
        """
        if len(pattern) != len(self.activated):
            raise InputError("pattern length must match the activated neuron count")
        act, y, bias, start = self._act, self._y, self._bias, self.z_starts
        affine, k = np.setdiff1d(np.arange(y.size), act), np.diff(start)
        piece = np.asarray(pattern, dtype=int)
        p, na, nk = start[:-1] + piece, affine.size, k.size
        lo, hi = self.left[p] - bias[act], self.right[p] - bias[act]
        lo = np.where(piece > 0, lo + margin * np.maximum(1.0, np.abs(lo)), lo)
        hi = np.where(piece + 1 < k, hi - margin * np.maximum(1.0, np.abs(hi)), hi)
        lower, upper = self.lower.copy(), self.upper.copy()
        upper[self.z_index] = 0.0
        lower[self.z_index[p]], upper[self.z_index[p]] = 1.0, lo <= hi
        # rows: the affine neurons', then every slab, then every line y - a w.x = a b + d
        slab, line = na + np.arange(nk), na + nk + np.arange(nk)
        rows = np.zeros((na + 2 * nk, lower.size))
        i, j, v = self._x_entries(np.concatenate((np.arange(na), slab, line)),
                                  np.concatenate((affine, act, act)),
                                  np.concatenate((np.ones(na + nk), -self.slopes[p])))
        rows[i, j] = v
        rows[np.arange(na), y[affine]], rows[line, y[act]] = -1.0, 1.0
        d = self.slopes[p] * bias[act] + self.intercepts[p]
        return LinearProgram("max", self.objective.copy(), rows,
                             np.concatenate((-bias[affine], lo, d)),
                             np.concatenate((-bias[affine], np.maximum(lo, hi), d)), lower, upper)


def build_query_model(query: VerificationQuery, mode: str,
                      bounds: PreActBounds | None = None) -> QueryModel:
    return QueryModel(query, mode, bounds)
