"""Dense layered network model and its JSON wire format.

A network is an ordered list of dense layers. Each layer holds a weight
matrix (out x in), a bias vector and one activation per neuron; activation
``None`` means the neuron is affine-only (typical for the output layer).
Activations are stored on their full pre-activation range; bound propagation
clips them before any formulation is built.

File format::

    {"layers": [{"weights": [[...]], "bias": [...],
                 "activation": {"kind": "relu" | "dorefa" | "pwl" | "staircase",
                                ...params} | null}],
     "input_box": {"lower": [...], "upper": [...]}}

Numbers are IEEE-754 doubles in decimal text. For "dorefa" the params are
``bits``, ``lo``, ``hi``; for "pwl"/"staircase" they are ``breakpoints``,
``slopes``, ``intercepts`` (the declared domain must cover the interval
pre-activation range and is clipped to it on load).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pwl
from .errors import DomainError, InputError, ParameterError
from .pwl import PiecewiseLinear


@dataclass(frozen=True)
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ParameterError("box lower/upper must be 1-d and of equal length")
        if np.any(self.lower > self.upper + 1e-12):
            raise ParameterError("box must satisfy lower <= upper")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def clamp(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def around(self, x0, eps: float) -> "BoxDomain":
        """The part of this box within `eps` of `x0` in every coordinate."""
        lower = np.maximum(self.lower, x0 - eps)
        upper = np.minimum(self.upper, x0 + eps)
        if np.any(lower > upper + 1e-12):
            raise InputError("perturbation ball misses the network input box")
        return BoxDomain(lower, upper)

    def sample(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        shape = (self.dim,) if count is None else (count, self.dim)
        return rng.uniform(self.lower, self.upper, size=shape)


@dataclass(frozen=True)
class Neuron:
    """Affine map plus activation over a box of inputs.

    The activation domain [h_0, h_k] must equal the pre-activation range
    [L, U] over the box; `aligned` constructs that alignment. d-bar values
    (a_i * b + d_i) are always derived on the fly, never stored.
    """

    weight: np.ndarray
    bias: float
    activation: PiecewiseLinear
    box: BoxDomain

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=float))
        if self.weight.ndim != 1 or self.weight.size != self.box.dim:
            raise ParameterError("weight length must match the input box")

    @property
    def dim(self) -> int:
        return self.weight.size

    def preact_range(self) -> tuple[float, float]:
        lo = float(self.weight @ np.where(self.weight >= 0, self.box.lower, self.box.upper) + self.bias)
        hi = float(self.weight @ np.where(self.weight >= 0, self.box.upper, self.box.lower) + self.bias)
        return lo, hi

    @staticmethod
    def aligned(weight, bias, activation_factory, box: BoxDomain) -> "Neuron":
        """Build a neuron whose activation domain equals its pre-activation range."""
        n = Neuron(weight, float(bias), pwl.identity(0.0, 1.0), box)
        lo, hi = n.preact_range()
        return Neuron(weight, float(bias), activation_factory(lo, hi), box)

    def dbar(self) -> np.ndarray:
        return self.activation.slopes * self.bias + self.activation.intercepts


@dataclass(frozen=True)
class ActivationSpec:
    """Declarative activation, clipped to concrete pre-activation ranges by
    `_clip`, the one clip rule; the base function is built from `params` on
    first use, so keep them fixed."""

    kind: str  # relu | dorefa | pwl | staircase | identity (None in files)
    params: dict

    def instantiate(self, lo: float, hi: float) -> PiecewiseLinear:
        """The activation clipped to [lo, hi]: `functions` on one range."""
        return self.functions(np.array([lo], dtype=float), np.array([hi], dtype=float))[0]

    def functions(self, lo: np.ndarray, hi: np.ndarray) -> list[PiecewiseLinear]:
        """The activation clipped to [lo[j], hi[j]], one function per j."""
        bp, piece, start = self._pieces(lo, hi)
        slopes, intercepts = self._base.slopes[piece], self._base.intercepts[piece]
        ends = start.tolist()   # row j's pieces are [a, b), its breakpoints [a + j, b + j]
        return [PiecewiseLinear(bp[a + j:b + j + 1], slopes[a:b], intercepts[a:b])
                for j, (a, b) in enumerate(zip(ends, ends[1:]))]

    def output_ranges(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`instantiate(lo[j], hi[j]).output_range()` for every j, in arrays and
        without building a function: every clipped piece's value at both ends."""
        bp, piece, start = self._pieces(lo, hi)
        # each piece's left breakpoint in bp: row j's breakpoints are shifted by j
        left = np.arange(piece.size) + np.repeat(np.arange(start.size - 1), np.diff(start))
        slopes, intercepts = self._base.slopes[piece], self._base.intercepts[piece]
        low, high = (slopes * bp[e] + intercepts for e in (left, left + 1))
        return (np.minimum.reduceat(np.minimum(low, high), start[:-1]),
                np.maximum.reduceat(np.maximum(low, high), start[:-1]))

    def _pieces(self, lo: np.ndarray, hi: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_clip`'s functions in flat arrays: every row's breakpoints, every
        row's pieces as base piece indices (its first piece, then the one right
        of each kept breakpoint), and where each row's pieces start, count appended."""
        lo_c, hi_c, keep, first = self._clip(lo, hi)
        f, ends = self._base, np.ones((keep.shape[0], 1), dtype=bool)
        # kept columns only are read, so `keep *` leaves each kept entry as it is
        bp = np.concatenate((lo_c[:, None], keep * f.breakpoints[1:-1], hi_c[:, None]), axis=1)
        piece = np.concatenate((first[:, None], keep * np.arange(1, f.num_pieces)), axis=1)
        return (bp[np.concatenate((ends, keep, ends), axis=1)],
                piece[np.concatenate((ends, keep), axis=1)],
                np.concatenate(([0], np.cumsum(keep.sum(axis=1) + 1))))

    def _clip(self, lo: np.ndarray, hi: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The clip rule for every range [lo[j], hi[j]] at once.

        A range with hi <= lo is widened to [lo, lo + 1e-9]. dorefa, relu and
        identity widen `_base`'s outer pieces to the range; a pwl or staircase
        domain must cover it to 1e-9. The range is clipped to the domain, and
        interior breakpoints within the merge band (BREAKPOINT_MERGE_TOL times
        the domain's width, at least 1; none for relu and identity) of either
        end are dropped; a range no wider than the band becomes one thin piece
        [lo, lo + band]. Returns the clipped ends, a mask of the interior
        breakpoints each row keeps, and each row's first piece: the base piece
        at lo + band or the clipped hi, whichever is lower (at lo for a point
        range), so a dropped breakpoint moves only values within the band of
        it. On a range it rejects it raises, for the first such j.
        """
        if self.kind not in ("relu", "identity", "dorefa", "pwl", "staircase"):
            raise InputError(f"unknown activation kind {self.kind!r}")
        lo = np.asarray(lo, dtype=float)
        point = hi <= lo
        hi = np.where(point, lo + 1e-9, hi)
        f = self._base
        f_lo, f_hi = f.lo, f.hi
        if self.kind not in ("pwl", "staircase"):
            f_lo, f_hi = np.minimum(lo, f_lo), np.maximum(hi, f_hi)
        merge = 0.0 if self.kind in ("relu", "identity") else (
            pwl.BREAKPOINT_MERGE_TOL * np.fmax(f_hi - f_lo, 1.0))
        lo_c, hi_c = (np.minimum(np.maximum(e, f_lo), f_hi) for e in (lo, hi))
        start = np.where(point, lo_c, np.minimum(lo_c + merge, hi_c))
        hi_c = np.where(hi_c - lo_c <= merge, lo_c + merge, hi_c)
        outside = (lo < f_lo - 1e-9) | (hi > f_hi + 1e-9)
        bad = outside | ~(hi_c > lo_c) | ~(np.isfinite(lo_c) & np.isfinite(hi_c))
        if bad.any():
            j = bad.argmax()
            if outside[j]:
                raise InputError(
                    f"declared {self.kind} domain [{f.lo}, {f.hi}] does not cover "
                    f"the pre-activation range [{float(lo[j])}, {float(hi[j])}]")
            PiecewiseLinear([lo_c[j], hi_c[j]], [0.0], [0.0])   # raises: unordered or not finite
        inner = f.breakpoints[1:-1]
        keep = (inner > (lo_c + merge)[:, None]) & (inner < (hi_c - merge)[:, None])
        return lo_c, hi_c, keep, (inner <= start[:, None]).sum(axis=1)

    @cached_property
    def _base(self) -> PiecewiseLinear:
        """The dorefa quantizer or declared function on its own domain, built
        once; relu and identity on [-1, 1], of which `_clip` reads the pieces."""
        if self.kind in ("relu", "identity"):
            return pwl.relu(-1.0, 1.0) if self.kind == "relu" else pwl.identity(-1.0, 1.0)
        if self.kind == "dorefa":
            return pwl.dorefa(int(self.params["bits"]),
                              float(self.params["lo"]), float(self.params["hi"]))
        f = PiecewiseLinear(self.params["breakpoints"], self.params["slopes"],
                            self.params["intercepts"])
        if self.kind == "staircase" and pwl.staircase_slope(f) is None:
            raise ParameterError("function is not a staircase")
        return f


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activations: tuple[ActivationSpec | None, ...]  # one per output neuron

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=float))
        if self.weights.ndim != 2:
            raise ParameterError("layer weights must be a matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ParameterError("bias length must match the number of output neurons")
        if len(self.activations) != self.weights.shape[0]:
            raise ParameterError("need one activation entry per output neuron")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def spec_groups(self) -> tuple[tuple[ActivationSpec, np.ndarray], ...]:
        """The activated neurons grouped by equal kind and params (arrays by
        value): (spec, neuron indices) in order of first use."""
        groups: dict[tuple, tuple[ActivationSpec, list[int]]] = {}
        for j, spec in enumerate(self.activations):
            if spec is not None:
                key = spec.kind, json.dumps(spec.params, sort_keys=True,
                                            default=lambda v: np.asarray(v).tolist())
                groups.setdefault(key, (spec, []))[1].append(j)
        return tuple((spec, np.array(idx)) for spec, idx in groups.values())

    def functions(self, lo: np.ndarray, hi: np.ndarray) -> list[PiecewiseLinear | None]:
        """Each neuron's activation clipped to [lo[j], hi[j]] (None for an affine
        neuron): one `ActivationSpec.functions` call per `spec_groups` entry."""
        out: list[PiecewiseLinear | None] = [None] * self.out_dim
        for spec, idx in self.spec_groups:
            for j, f in zip(idx.tolist(), spec.functions(lo[idx], hi[idx])):
                out[j] = f
        return out

    @staticmethod
    def dense(weights, bias, activation: ActivationSpec | None) -> "Layer":
        w = np.asarray(weights, dtype=float)
        return Layer(w, bias, tuple([activation] * w.shape[0]))


@dataclass(frozen=True)
class Network:
    """Feed-forward dense network with a declared input box."""

    layers: tuple[Layer, ...]
    input_box: BoxDomain

    def __post_init__(self):
        dim = self.input_box.dim
        for idx, layer in enumerate(self.layers):
            if layer.in_dim != dim:
                raise ParameterError(f"layer {idx} expects {layer.in_dim} inputs, got {dim}")
            dim = layer.out_dim

    @property
    def input_dim(self) -> int:
        return self.input_box.dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x) -> np.ndarray:
        """Evaluate the network on one input (or a batch, rows = samples).

        Activations are clipped to interval pre-activation ranges. A
        pre-activation escaping its activation domain raises DomainError: that
        signals stale bounds rather than a numerical issue.
        """
        functions = self._functions   # raises, as `interval_bounds` would, before the box check
        x = np.asarray(x, dtype=float)
        batched = x.ndim == 2
        vals = x if batched else x[None, :]
        if not self.input_box.contains(vals.min(axis=0)) or not self.input_box.contains(vals.max(axis=0)):
            raise DomainError("input outside the declared input box")
        for li, (layer, fs) in enumerate(zip(self.layers, functions)):
            pre = vals @ layer.weights.T + layer.bias
            out = np.empty_like(pre)
            for j, f in enumerate(fs):
                if f is None:
                    out[:, j] = pre[:, j]
                    continue
                col = pre[:, j]
                if np.any(col < f.lo - 1e-7) or np.any(col > f.hi + 1e-7):
                    raise DomainError(f"pre-activation of neuron ({li},{j}) left [{f.lo}, {f.hi}]")
                out[:, j] = f.batch(np.clip(col, f.lo, f.hi))
            vals = out
        return vals if batched else vals[0]

    @cached_property
    def _functions(self) -> tuple[list[PiecewiseLinear | None], ...]:
        """Each layer's activations on its interval pre-activation ranges, built once."""
        from .bounds import interval_bounds  # local import to avoid a cycle
        pre = interval_bounds(self, self.input_box)
        return tuple(layer.functions(lo, hi)
                     for layer, lo, hi in zip(self.layers, pre.lower, pre.upper))

    def classify(self, x) -> int:
        return int(np.argmax(self.forward(x)))


def activation_to_json(spec: ActivationSpec | None):
    if spec is None:
        return None
    return {"kind": spec.kind, **spec.params}


def activation_from_json(obj) -> ActivationSpec | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("activation must be null or an object with a 'kind' field")
    params = {k: v for k, v in obj.items() if k != "kind"}
    kind = obj["kind"]
    if kind not in ("relu", "dorefa", "pwl", "staircase", "identity"):
        raise InputError(f"unknown activation kind {kind!r}")
    return ActivationSpec(kind, params)


def network_to_json(net: Network) -> dict:
    return {
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": activation_to_json(layer.activations[0])
                if len(set(map(str, layer.activations))) == 1
                else [activation_to_json(a) for a in layer.activations],
            }
            for layer in net.layers
        ],
        "input_box": {"lower": net.input_box.lower.tolist(),
                      "upper": net.input_box.upper.tolist()},
    }


def network_from_json(doc: dict) -> Network:
    try:
        box = BoxDomain(doc["input_box"]["lower"], doc["input_box"]["upper"])
        layers = []
        for entry in doc["layers"]:
            w = np.asarray(entry["weights"], dtype=float)
            act = entry.get("activation")
            if isinstance(act, list):
                acts = tuple(activation_from_json(a) for a in act)
            else:
                acts = tuple([activation_from_json(act)] * w.shape[0])
            layers.append(Layer(w, entry["bias"], acts))
        return Network(tuple(layers), box)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed network document: {exc}") from exc


def read_json(path: str):
    """The JSON document at `path`; an unreadable or malformed file raises InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_network(path: str) -> Network:
    return network_from_json(read_json(path))


def save_network(net: Network, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh, indent=1)
        fh.write("\n")
