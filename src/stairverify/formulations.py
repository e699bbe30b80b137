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
from .lp import EQUAL, GREATER, LESS, LinearProgram
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

    def _add_row(self, cols: list[int], coeffs, sense: str, rhs: float) -> None:
        """Append the row with `coeffs` on the variables `cols`, zero elsewhere."""
        m = len(self.rhs)
        if m == len(self._matrix):   # double the rows; the first row sets the width
            width = self.num_vars() - self._matrix.shape[1]
            self._matrix = np.pad(self._matrix, ((0, max(64, m)), (0, width)))
        self._matrix[m][cols] = coeffs
        self.senses.append(sense)
        self.rhs.append(float(rhs))

    def num_vars(self) -> int:
        return len(self.lower)

    def _attach_neuron(self, nf: NeuronFormulation) -> None:
        """Simplex and slab rows, then the y rows: the formulations differ
        only on a neuron with two or more pieces and a nonzero slope."""
        self.neurons[nf.key] = nf
        f, w = nf.neuron.activation, nf.neuron.weight
        self._add_row(nf.z_vars, 1.0, EQUAL, 1.0)
        for ends, sense in ((f.breakpoints[:-1], GREATER), (f.breakpoints[1:], LESS)):
            self._add_row(nf.x_vars + nf.z_vars, np.concatenate([w, -ends]), sense,
                          -nf.neuron.bias)
        if np.all(np.abs(f.slopes) <= 1e-12):
            # flat: y = sum_i d_i z_i, which is also the alpha = 0 seed pair
            self._add_row(nf.z_vars + [nf.y_var], np.append(-f.intercepts, 1.0), EQUAL, 0.0)
        elif self.mode == BIGM or f.num_pieces == 1:
            # M constants bound y - (a_i t + d_i), 0 for one piece. No empty-slice
            # check: the slab rows make z_j = 1 infeasible for a slab off the box.
            lows, highs = slab_extremes(nf.neuron, f.slopes, check=False)
            dbar = nf.neuron.dbar()
            for i, z in enumerate(nf.z_vars):
                line = np.append(-f.slopes[i] * w, 1.0)
                for m, sense in ((highs[i].max() - dbar[i], LESS), (lows[i].min() - dbar[i], GREATER)):
                    self._add_row(nf.x_vars + [nf.y_var, z], np.append(line, m), sense, m + dbar[i])
        else:
            # the seeds: at z = e_i the pair of a_i holds y on piece i's line
            slopes = [0.0] + distinct_slopes(f.slopes)
            for a, low, high in zip(slopes, *slab_extremes(nf.neuron, slopes)):
                self.add_cut(nf, Cut(UPPER, a * w, high))
                self.add_cut(nf, Cut(LOWER, a * w, low))

    def add_cut(self, nf: NeuronFormulation, cut: Cut) -> bool:
        """Install a cut row unless an equal one (up to 1e-10) is pooled already."""
        key = cut.key()
        if key in nf.pool:
            return False
        sense = LESS if (cut.y_coef != 0.0 and cut.direction == LOWER) else GREATER
        self._add_row(nf.x_vars + nf.z_vars + [nf.y_var],
                      np.concatenate([cut.alpha, cut.zcoef, [-cut.y_coef]]), sense, -cut.const)
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
                self._add_row(self.layer_inputs[li] + [y], np.append(layer.weights[j], -1.0),
                              EQUAL, -float(layer.bias[j]))
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
        """Per neuron, every piece index: each activation is already clipped to
        the neuron's interval, so every piece's slab meets it."""
        return [list(range(len(nf.z_vars))) for nf in self.activated_neurons()]

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
        rows = _RowModel(self.mode)   # the row writer only: none of this model's rows
        rows.lower, rows.upper, rows.objective = self.lower, self.upper, self.objective
        for li, layer in enumerate(self.net.layers):
            for j, y in enumerate(self.y_vars[li]):
                if (li, j) not in self.neurons:
                    rows._add_row(self.layer_inputs[li] + [y], np.append(layer.weights[j], -1.0),
                                  EQUAL, -float(layer.bias[j]))
        for nf, piece in zip(neurons, pattern):
            f = nf.neuron.activation
            w = nf.neuron.weight
            b = nf.neuron.bias
            lower = float(f.breakpoints[piece]) - b
            upper = float(f.breakpoints[piece + 1]) - b
            if piece > 0:
                lower += margin * max(1.0, abs(lower))
            if piece + 1 < f.num_pieces:
                upper -= margin * max(1.0, abs(upper))
            rows._add_row(nf.x_vars, w, GREATER, lower)
            rows._add_row(nf.x_vars, w, LESS, upper)
            a = float(f.slopes[piece])
            rows._add_row(nf.x_vars + [nf.y_var], np.append(-a * w, 1.0), EQUAL,
                          a * b + float(f.intercepts[piece]))
            for i, z in enumerate(nf.z_vars):
                rows._add_row([z], 1.0, EQUAL, float(i == piece))
        return rows.to_lp()


def build_query_model(query: VerificationQuery, mode: str,
                      bounds: PreActBounds | None = None) -> QueryModel:
    return QueryModel(query, mode, bounds)

