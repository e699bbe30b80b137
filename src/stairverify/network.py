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
    """Declarative activation, instantiated on a concrete pre-activation range;
    the base function is built from `params` on first use, so keep them fixed."""

    kind: str  # relu | dorefa | pwl | staircase | identity (None in files)
    params: dict

    def instantiate(self, lo: float, hi: float) -> PiecewiseLinear:
        if hi <= lo:
            hi = lo + 1e-9
        if self.kind in ("identity", "relu"):
            return pwl.identity(lo, hi) if self.kind == "identity" else pwl.relu(lo, hi)
        if self.kind not in ("dorefa", "pwl", "staircase"):
            raise InputError(f"unknown activation kind {self.kind!r}")
        f = self._base
        bp = f.breakpoints
        if self.kind == "dorefa":
            if lo < bp[0] or hi > bp[-1]:  # extend the outer constant pieces
                bp = np.concatenate(([min(bp[0], lo)], bp[1:-1], [max(bp[-1], hi)]))
        elif lo < f.lo - 1e-9 or hi > f.hi + 1e-9:
            raise InputError(
                f"declared {self.kind} domain [{f.lo}, {f.hi}] does not cover "
                f"the pre-activation range [{lo}, {hi}]")
        # [lo, hi] now lies inside the domain, so `clip`'s checks are not needed
        return PiecewiseLinear(*pwl.clip_arrays(bp, f.slopes, f.intercepts, lo, hi))

    def output_ranges(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`instantiate(lo[j], hi[j]).output_range()` for every j, to the bit, in
        arrays and without building a function: every clipped piece's value at
        both ends, computed as slope * point + intercept. On a range that
        `instantiate` rejects it raises that error, for the first such j."""
        lo = np.asarray(lo, dtype=float)
        hi = np.where(hi <= lo, lo + 1e-9, hi)
        if self.kind in ("identity", "relu"):   # a strict kink at 0, or none (at -inf)
            self._raise_first(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)), lo, hi)
            kink = 0.0 if self.kind == "relu" else -np.inf
            return np.where(lo >= kink, lo, kink) + 0.0, np.where(hi > kink, hi, kink) + 0.0
        if self.kind not in ("dorefa", "pwl", "staircase"):
            raise InputError(f"unknown activation kind {self.kind!r}")
        f = self._base
        if self.kind == "dorefa":   # outer constant pieces widened to [lo, hi]
            f_lo, f_hi = np.where(lo < f.lo, lo, f.lo), np.where(hi > f.hi, hi, f.hi)
            outside = False
        else:
            f_lo, f_hi, outside = f.lo, f.hi, (lo < f.lo - 1e-9) | (hi > f.hi + 1e-9)
        # `pwl.clip_arrays` per neuron: clip, then merge breakpoints within `merge`
        lo_c, hi_c = np.where(f_lo > lo, f_lo, lo), np.where(f_hi < hi, f_hi, hi)
        merge = pwl.BREAKPOINT_MERGE_TOL * np.fmax(f_hi - f_lo, 1.0)
        thin = hi_c - lo_c <= merge
        self._raise_first(outside | (thin & (lo_c > f_hi)), lo, hi)
        hi_c = np.where(thin, lo_c + merge, hi_c)   # one thin piece [lo, lo + merge]
        inner = f.breakpoints[1:-1]
        keep = (inner > (lo_c + merge)[:, None]) & (inner < (hi_c - merge)[:, None])
        after = np.arange(1, f.num_pieces)   # the piece right of each interior breakpoint
        first = (inner <= lo_c[:, None]).sum(axis=1)   # right-continuous piece at lo
        last = np.maximum(first, (keep * after).max(axis=1, initial=0))
        # the piece left of each kept breakpoint (column 0 multiplies by 0)
        before = np.maximum(first[:, None], np.roll(keep, 1, axis=1) * (after - 1))
        # every clipped piece at both ends: lo, hi, and both sides of each kept breakpoint
        at_inner = np.broadcast_to(inner, keep.shape)
        at = np.concatenate((lo_c[:, None], hi_c[:, None], at_inner, at_inner), axis=1)
        piece = np.concatenate((first[:, None], last[:, None],
                                np.broadcast_to(after, keep.shape), before), axis=1)
        values = f.slopes[piece] * at + f.intercepts[piece]
        mask = np.concatenate((np.ones((lo.size, 2), bool), keep, keep), axis=1)
        return (values.min(axis=1, where=mask, initial=np.inf),
                values.max(axis=1, where=mask, initial=-np.inf))

    def _raise_first(self, bad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Raise what `instantiate` raises on the first range flagged in `bad`."""
        if bad.any():
            self.instantiate(float(lo[bad.argmax()]), float(hi[bad.argmax()]))

    @cached_property
    def _base(self) -> PiecewiseLinear:
        """The dorefa quantizer or declared function on its own domain, built once."""
        if self.kind == "dorefa":
            return pwl.dorefa(int(self.params["bits"]),
                              float(self.params["lo"]), float(self.params["hi"]))
        f = PiecewiseLinear(np.asarray(self.params["breakpoints"], dtype=float),
                            np.asarray(self.params["slopes"], dtype=float),
                            np.asarray(self.params["intercepts"], dtype=float))
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

        Activations are instantiated on interval pre-activation ranges. A
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
        return tuple([None if spec is None else spec.instantiate(*pre.interval(li, j))
                      for j, spec in enumerate(layer.activations)]
                     for li, layer in enumerate(self.layers))

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
