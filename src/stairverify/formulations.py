"""Per-neuron constraint systems and whole-query models.

Two interchangeable encodings of one neuron's lifted graph over piece
indicators z in the unit simplex:

* Big-M: slab coupling rows plus indicator rows deactivated by M constants;
  piecewise-constant activations drop the M rows in favor of the exact
  ``y = sum_i d_i z_i``.
* Cayley: slab coupling and simplex rows plus a growable pool of hull cuts,
  seeded in both directions with alpha = 0 and with alpha = a w for each
  distinct nonzero slope a, so an integral z holds y on its piece.

Integrality of z is a solver-mode flag, never a formulation change, and the
same pre-activation bounds feed both builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import PreActBounds, deeppoly_bounds
from .errors import InputError
from .lp import EQUAL, GREATER, LESS, LinearProgram
from .network import BoxDomain, Network, Neuron
from .pwl import distinct_slopes
from .separation import Cut, LOWER, UPPER, is_pinned, retrieve_cut

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
        ball = BoxDomain(self.x0 - self.eps, self.x0 + self.eps)
        lower = np.maximum(self.network.input_box.lower, ball.lower)
        upper = np.minimum(self.network.input_box.upper, ball.upper)
        if np.any(lower > upper + 1e-12):
            raise InputError("perturbation ball misses the network input box")
        return BoxDomain(lower, upper)


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
    x_vars: list[int]
    y_var: int
    z_vars: list[int]
    pool: set = field(default_factory=set)   # keys of the installed cuts
    pinned: bool = field(init=False)  # constant pre-activation: nothing to separate

    def __post_init__(self):
        self.pinned = is_pinned(self.neuron)

    @property
    def key(self) -> tuple[int, int]:
        return (self.layer, self.index)


class _RowModel:
    """Shared variable/row bookkeeping for neuron and query models.

    Every variable exists before the first row, so the rows live in one
    dense matrix, grown by doubling, next to their senses and right-hand
    sides: `to_lp` hands the filled rows to `LinearProgram` as they are.
    """

    def __init__(self, mode: str):
        if mode not in (BIGM, CAYLEY):
            raise InputError(f"mode must be '{BIGM}' or '{CAYLEY}'")
        self.mode = mode
        self.lower: list[float] = []
        self.upper: list[float] = []
        self._matrix = np.zeros((0, 0))
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.objective: np.ndarray | None = None
        self.neurons: dict[tuple[int, int], NeuronFormulation] = {}

    def _new_var(self, lo: float, hi: float) -> int:
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        return len(self.lower) - 1

    def _add_row(self, coeffs: np.ndarray, sense: str, rhs: float) -> None:
        m = len(self.rhs)
        if m == len(self._matrix):   # double the rows; the first row sets the width
            width = self.num_vars() - self._matrix.shape[1]
            self._matrix = np.pad(self._matrix, ((0, max(64, m)), (0, width)))
        self._matrix[m] = coeffs
        self.senses.append(sense)
        self.rhs.append(float(rhs))

    def num_vars(self) -> int:
        return len(self.lower)

    def _attach_neuron(self, nf: NeuronFormulation) -> None:
        self.neurons[nf.key] = nf
        f = nf.neuron.activation
        b = nf.neuron.bias
        simplex = np.zeros(self.num_vars())
        simplex[nf.z_vars] = 1.0
        self._add_row(simplex, EQUAL, 1.0)
        low = np.zeros(self.num_vars())
        low[nf.x_vars] = nf.neuron.weight
        high = low.copy()
        low[nf.z_vars] -= f.breakpoints[:-1]
        high[nf.z_vars] -= f.breakpoints[1:]
        self._add_row(low, GREATER, -b)
        self._add_row(high, LESS, -b)
        if self.mode == BIGM:
            self._add_bigm_rows(nf)
        else:
            self._add_seed_cuts(nf)

    def _add_bigm_rows(self, nf: NeuronFormulation) -> None:
        f = nf.neuron.activation
        w = nf.neuron.weight
        b = nf.neuron.bias
        if np.all(np.abs(f.slopes) <= 1e-12):
            # constant pieces never need the M constants
            row = np.zeros(self.num_vars())
            row[nf.y_var] = 1.0
            row[nf.z_vars] = -f.intercepts
            self._add_row(row, EQUAL, 0.0)
            return
        # corner values of f over the whole range; the M constants must bound
        # the difference y - (a_i t + d_i), not y itself
        corner_ts = np.concatenate([f.breakpoints[:-1], f.breakpoints[1:]])
        corner_fs = np.concatenate([f.slopes * f.breakpoints[:-1] + f.intercepts,
                                    f.slopes * f.breakpoints[1:] + f.intercepts])
        for i, z in enumerate(nf.z_vars):
            a_i = float(f.slopes[i])
            d_i = float(f.intercepts[i])
            diff = corner_fs - (a_i * corner_ts + d_i)
            m1, m2 = float(diff.min()), float(diff.max())
            up = np.zeros(self.num_vars())
            up[nf.x_vars] -= a_i * w
            up[nf.y_var] = 1.0
            low = up.copy()
            up[z] = m2
            low[z] = m1
            self._add_row(up, LESS, m2 + a_i * b + d_i)
            self._add_row(low, GREATER, m1 + a_i * b + d_i)

    def _seed_alphas(self, nf: NeuronFormulation) -> list[np.ndarray]:
        """alpha = 0 and alpha = a w for each distinct nonzero slope a: at
        z = e_i the pair of a_i holds y on piece i's line, so every integral
        point sits on its piece."""
        w = nf.neuron.weight
        return [np.zeros(w.size)] + [a * w for a in distinct_slopes(nf.neuron.activation.slopes)]

    def _add_seed_cuts(self, nf: NeuronFormulation) -> None:
        for alpha in self._seed_alphas(nf):
            for direction in (UPPER, LOWER):
                self.add_cut(nf, retrieve_cut(nf.neuron, alpha, direction))

    def add_cut(self, nf: NeuronFormulation, cut: Cut) -> bool:
        """Install a cut row unless an equal one (up to 1e-10) is pooled already."""
        key = cut.key()
        if key in nf.pool:
            return False
        row = np.zeros(self.num_vars())
        row[nf.x_vars] += cut.alpha
        row[nf.z_vars] += cut.zcoef
        row[nf.y_var] -= cut.y_coef
        sense = LESS if (cut.y_coef != 0.0 and cut.direction == LOWER) else GREATER
        self._add_row(row, sense, -cut.const)
        nf.pool.add(key)
        return True

    def neuron_point(self, x: np.ndarray, key: tuple[int, int]):
        nf = self.neurons[key]
        return x[nf.x_vars], float(x[nf.y_var]), x[nf.z_vars]

    def to_lp(self, upper: np.ndarray | None = None) -> LinearProgram:
        """The LP maximizing the objective, its rows a view of the model's (not
        to be written); `upper` replaces the variable upper bounds (a B&B node)."""
        return LinearProgram("max", self.objective.copy(), self._matrix[:len(self.rhs)],
                             self.senses, self.rhs, np.array(self.lower),
                             np.array(self.upper) if upper is None else upper)

    def activated_neurons(self) -> list[NeuronFormulation]:
        return [self.neurons[k] for k in sorted(self.neurons)]


class NeuronModel(_RowModel):
    """Standalone model of a single neuron over its input box."""

    def __init__(self, neuron: Neuron, mode: str):
        super().__init__(mode)
        n = neuron.dim
        xs = [self._new_var(neuron.box.lower[j], neuron.box.upper[j]) for j in range(n)]
        out_lo, out_hi = neuron.activation.output_range()
        y = self._new_var(out_lo, out_hi)
        zs = [self._new_var(0.0, 1.0) for _ in range(neuron.activation.num_pieces)]
        self.nf = NeuronFormulation(0, 0, neuron, xs, y, zs)
        self._attach_neuron(self.nf)
        self.objective = np.zeros(self.num_vars())


def build_bigm(neuron: Neuron) -> NeuronModel:
    """Big-M formulation of one neuron."""
    return NeuronModel(neuron, BIGM)


def build_cayley(neuron: Neuron) -> NeuronModel:
    """Seeded Cayley formulation of one neuron; the pool grows via separation."""
    return NeuronModel(neuron, CAYLEY)


class QueryModel(_RowModel):
    """Assembled LP/MIP over input, activation and piece-indicator variables.

    One model serves every target of its query: `set_target` changes only the
    objective, so rows and pooled cuts carry over from target to target. A
    query with a target gets its objective here.
    """

    def __init__(self, query: VerificationQuery, mode: str,
                 bounds: PreActBounds | None = None):
        super().__init__(mode)
        self.query = query
        net = query.network
        self.net = net
        self.region = query.input_region()
        self.bounds = bounds if bounds is not None else deeppoly_bounds(net, self.region)
        relaxed = self.bounds.relaxed_layers(net)

        self.layer_inputs: list[list[int]] = []
        self.y_vars: list[list[int]] = []
        activated: dict[tuple[int, int], NeuronFormulation] = {}
        current = [self._new_var(self.region.lower[j], self.region.upper[j])
                   for j in range(net.input_dim)]
        for li, layer in enumerate(net.layers):
            self.layer_inputs.append(current)
            in_lo = np.array([self.lower[v] for v in current])
            in_hi = np.array([self.upper[v] for v in current])
            ys = []
            for j in range(layer.out_dim):
                pre_lo, pre_hi = self.bounds.interval(li, j)
                f = relaxed[li].functions[j]
                if f is None:
                    ys.append(self._new_var(pre_lo, pre_hi))
                    continue
                out_lo, out_hi = f.output_range()
                y = self._new_var(out_lo, out_hi)
                zs = [self._new_var(0.0, 1.0) for _ in range(f.num_pieces)]
                nrn = Neuron(layer.weights[j], float(layer.bias[j]), f,
                             BoxDomain(in_lo, in_hi))
                activated[(li, j)] = NeuronFormulation(li, j, nrn, list(current), y, zs)
                ys.append(y)
            self.y_vars.append(ys)
            current = ys
        # rows only once every variable exists, in the order of a one-pass build
        for li, layer in enumerate(net.layers):
            for j, y in enumerate(self.y_vars[li]):
                if (li, j) in activated:
                    self._attach_neuron(activated[(li, j)])
                    continue
                row = np.zeros(self.num_vars())
                row[self.layer_inputs[li]] = layer.weights[j]
                row[y] -= 1.0
                self._add_row(row, EQUAL, -float(layer.bias[j]))
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
        """Full variable assignment induced by a forward trace (z one-hot)."""
        vals = np.zeros(self.num_vars())
        current = np.asarray(x_input, dtype=float)
        vals[:self.net.input_dim] = current
        for li, layer in enumerate(self.net.layers):
            pre = layer.weights @ current + layer.bias
            out = np.empty(layer.out_dim)
            for j in range(layer.out_dim):
                if (li, j) in self.neurons:
                    nf = self.neurons[(li, j)]
                    f = nf.neuron.activation
                    t = float(np.clip(pre[j], f.lo, f.hi))
                    piece = f.piece_index(t)
                    out[j] = f.piece_value(piece, t)
                    vals[nf.z_vars[piece]] = 1.0
                    vals[nf.y_var] = out[j]
                else:
                    out[j] = pre[j]
                    vals[self.y_vars[li][j]] = out[j]
            current = out
        return vals

    # -- independent pattern route (used by the exhaustive oracle) ------------

    def pattern_prefilter(self) -> list[list[int]]:
        """Per neuron, the pieces whose slab meets the reachable interval."""
        out = []
        for nf in self.activated_neurons():
            lo, hi = self.bounds.interval(nf.layer, nf.index)
            f = nf.neuron.activation
            keep = [i for i in range(f.num_pieces)
                    if f.breakpoints[i] <= hi + 1e-9 and f.breakpoints[i + 1] >= lo - 1e-9]
            out.append(keep or list(range(f.num_pieces)))
        return out

    def pattern_lp(self, pattern, margin: float = 0.0) -> LinearProgram:
        """One closure branch: every activated neuron pinned to one piece.

        Built from the network data directly (affine rows, slab pins, graph
        equalities) so the exhaustive oracle does not reuse the Big-M or
        Cayley rows it is meant to check. A positive `margin` pulls each
        interior slab edge in by margin * max(1, |rhs|): at an upper edge the
        network takes the next piece, and a point the LP puts on a lower edge
        may sit a rounding error below it.
        """
        neurons = self.activated_neurons()
        if len(pattern) != len(neurons):
            raise InputError("pattern length must match the activated neuron count")
        n = self.num_vars()
        unit = np.eye(n)
        rows: list[tuple[np.ndarray, str, float]] = []
        for li, layer in enumerate(self.net.layers):
            for j in range(layer.out_dim):
                if (li, j) in self.neurons:
                    continue
                row = np.zeros(n)
                row[self.layer_inputs[li]] = layer.weights[j]
                row[self.y_vars[li][j]] -= 1.0
                rows.append((row, EQUAL, -float(layer.bias[j])))
        for nf, piece in zip(neurons, pattern):
            f = nf.neuron.activation
            w = nf.neuron.weight
            b = nf.neuron.bias
            pre = np.zeros(n)
            pre[nf.x_vars] = w
            lower = float(f.breakpoints[piece]) - b
            upper = float(f.breakpoints[piece + 1]) - b
            if piece > 0:
                lower += margin * max(1.0, abs(lower))
            if piece + 1 < f.num_pieces:
                upper -= margin * max(1.0, abs(upper))
            rows += [(pre, GREATER, lower), (pre, LESS, upper)]
            graph = -float(f.slopes[piece]) * pre
            graph[nf.y_var] += 1.0
            rows.append((graph, EQUAL, float(f.slopes[piece]) * b + float(f.intercepts[piece])))
            rows += [(unit[z], EQUAL, float(i == piece)) for i, z in enumerate(nf.z_vars)]
        coeffs, senses, rhs = zip(*rows)
        return LinearProgram("max", self.objective.copy(), np.array(coeffs), senses, rhs,
                             np.array(self.lower), np.array(self.upper))


def build_query_model(query: VerificationQuery, mode: str,
                      bounds: PreActBounds | None = None) -> QueryModel:
    return QueryModel(query, mode, bounds)

