"""Pre-activation bound propagation: interval arithmetic and quantized DeepPoly.

Interval arithmetic handles a whole layer in arrays: the neurons of each
activation spec get their output ranges from one call, and affine neurons
pass their pre-activation interval through. DeepPoly clips a layer's
activations the same way, one `Layer.functions` call with one clip per
spec, sandwiches every activation between two linear functions of its
pre-activation and back-substitutes through the affine layers all the way
to the input box.
The final intervals are intersected with plain interval bounds, so they are
never looser than interval arithmetic. The same bounds feed the Big-M and
Cayley formulation builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError
from .network import BoxDomain, Network
from .pwl import PiecewiseLinear

UNIFORM_TOL = 1e-9
Line = tuple[float, float]   # (slope, const): the line slope * t + const


@dataclass
class PreActBounds:
    """Per-neuron pre-activation interval [L, U], one array pair per layer.

    `relaxation` holds, per layer, every neuron's activation clipped to these
    intervals and its DeepPoly sandwich there. `deeppoly_bounds` fills it and
    `interval_bounds` leaves it empty; `output_linear_bound`, `upper_corner`
    and `QueryModel` need it filled.
    """

    lower: list[np.ndarray] = field(default_factory=list)
    upper: list[np.ndarray] = field(default_factory=list)
    relaxation: list["_LayerRelax"] = field(default_factory=list)

    def relaxed_layers(self, net: Network) -> list["_LayerRelax"]:
        """`relaxation`, checked to cover every layer of `net`."""
        if len(self.relaxation) != len(net.layers):
            raise InputError("pre-activation bounds carry no relaxation; "
                             "build them with deeppoly_bounds")
        return self.relaxation

    def interval(self, layer: int, neuron: int) -> tuple[float, float]:
        return float(self.lower[layer][neuron]), float(self.upper[layer][neuron])

    def as_report(self) -> dict:
        out = {}
        for li in range(len(self.lower)):
            for j in range(self.lower[li].size):
                out[f"layer{li}/neuron{j}"] = [float(self.lower[li][j]), float(self.upper[li][j])]
        return out


def interval_bounds(net: Network, input_box: BoxDomain) -> PreActBounds:
    """Plain interval arithmetic layer by layer in arrays: one `output_ranges`
    call per `Layer.spec_groups` entry; affine neurons pass through."""
    if input_box.dim != net.input_dim:
        raise InputError(f"input box has {input_box.dim} dimensions, "
                         f"the network takes {net.input_dim}")
    out = PreActBounds()
    lo, hi = input_box.lower, input_box.upper
    for layer in net.layers:
        w_pos = np.maximum(layer.weights, 0.0)
        w_neg = np.minimum(layer.weights, 0.0)
        pre_lo = w_pos @ lo + w_neg @ hi + layer.bias
        pre_hi = w_pos @ hi + w_neg @ lo + layer.bias
        out.lower.append(pre_lo)
        out.upper.append(pre_hi)
        lo, hi = pre_lo.copy(), pre_hi.copy()
        for spec, idx in layer.spec_groups:
            lo[idx], hi[idx] = spec.output_ranges(pre_lo[idx], pre_hi[idx])
    return out


def _is_uniform(values, tol) -> bool:
    if values.size <= 1:
        return True
    return float(values.max() - values.min()) <= tol * max(1.0, float(np.abs(values).max()))


def deeppoly_activation_relax(f: PiecewiseLinear) -> tuple[Line, Line]:
    """Upper and lower (slope, const) lines of a uniform piecewise-constant staircase.

    The slope applies to the pre-activation value t in f's domain. Cases:
    k = 2 branches on the widths of the outer pieces; k > 2 branches on the
    first/last widths against the uniform interior step; a decreasing staircase
    takes its negation's lines, negated and swapped. Non-uniform steps, and
    levels that rise and fall, fall back to constant bounds.
    """
    if np.any(np.abs(f.slopes) > 1e-12):
        raise ParameterError("relaxation rules require a piecewise-constant staircase")
    levels = f.intercepts
    k = f.num_pieces
    if k == 1:
        c = float(levels[0])
        return (0.0, c), (0.0, c)
    steps = np.diff(levels)
    if np.any(steps < -1e-12) and np.all(steps <= 1e-12):
        (cu, bu), (cl, bl) = deeppoly_activation_relax(
            PiecewiseLinear(f.breakpoints, f.slopes, -levels))
        return (-cl, -bl), (-cu, -bu)

    h = f.breakpoints
    widths = np.diff(h)
    interior = widths[1:-1]
    if not (_is_uniform(interior, UNIFORM_TOL) and _is_uniform(steps, UNIFORM_TOL)
            and np.all(steps > 1e-12)):
        return (0.0, float(levels.max())), (0.0, float(levels.min()))

    first, last = float(widths[0]), float(widths[-1])
    if k == 2:
        rise = float(levels[1] - levels[0])
        if last >= first:  # ties take this branch (deterministic choice)
            cl = rise / last
            return (0.0, float(levels[1])), (cl, float(levels[0] - cl * h[1]))
        cu = rise / first
        return (cu, float(levels[1] - cu * h[1])), (0.0, float(levels[0]))

    step_h = float(interior[0])
    step_f = float(steps[0])
    if first > step_h:
        cu = float((levels[-1] - levels[0]) / (h[-2] - h[0]))
    else:
        cu = step_f / step_h
    upper = (cu, float(levels[-1] - cu * h[-2]))
    if last > step_h:
        cl = float((levels[-1] - levels[0]) / (h[-1] - h[1]))
    else:
        cl = step_f / step_h
    return upper, (cl, float(levels[0] - cl * h[1]))


def relax_activation(f: PiecewiseLinear) -> tuple[Line, Line]:
    """Upper and lower (slope, const) lines sandwiching any supported
    activation over its domain [f.lo, f.hi].

    Dispatch: exact lines for a single piece, triangle-style relaxation for
    continuous two-piece staircases (ReLU and friends), the quantizer rules
    for non-decreasing piecewise-constant functions, and a shifted-secant
    sandwich for everything else.
    """
    k = f.num_pieces
    if k == 1:
        a, d = float(f.slopes[0]), float(f.intercepts[0])
        return (a, d), (a, d)
    if np.all(np.abs(f.slopes) <= 1e-12):
        return deeppoly_activation_relax(f)
    if k == 2 and f.is_continuous():
        L, U = f.lo, f.hi
        a1, a2 = float(f.slopes[0]), float(f.slopes[1])
        h1 = float(f.breakpoints[1])
        yL, yU = f.piece_value(0, L), f.piece_value(1, U)
        sec = (yU - yL) / (U - L)
        sec_bound = (sec, yL - sec * L)
        # pick the piece line covering the wider side of the kink
        i = 1 if (U - h1) > (h1 - L) else 0
        line = (float(f.slopes[i]), float(f.intercepts[i]))
        if a2 > a1:  # convex kink: secant above, piece line below
            return sec_bound, line
        return line, sec_bound
    return _secant_sandwich(f)


def _secant_sandwich(f: PiecewiseLinear) -> tuple[Line, Line]:
    """Sound generic sandwich: secant slope shifted to clear every corner."""
    slope = (f.piece_value(f.num_pieces - 1, f.hi) - f.piece_value(0, f.lo)) / (f.hi - f.lo)
    lefts = f.slopes * f.breakpoints[:-1] + f.intercepts
    rights = f.slopes * f.breakpoints[1:] + f.intercepts
    gaps = np.concatenate([lefts - slope * f.breakpoints[:-1],
                           rights - slope * f.breakpoints[1:]])
    return (slope, float(gaps.max())), (slope, float(gaps.min()))


class _LayerRelax:
    """Back-substitution data: affine map plus each neuron's activation clipped
    to [pre_lo, pre_hi] (None for affine neurons), from one `Layer.functions`
    call, and its sandwich there, relaxed neuron by neuron."""

    def __init__(self, layer, pre_lo, pre_hi):
        self.weights = layer.weights
        self.bias = layer.bias
        self.functions = layer.functions(pre_lo, pre_hi)
        self.cu, self.bu, self.cl, self.bl = np.empty((4, layer.out_dim))
        for j, f in enumerate(self.functions):   # an affine neuron is its own line
            (self.cu[j], self.bu[j]), (self.cl[j], self.bl[j]) = (
                ((1.0, 0.0), (1.0, 0.0)) if f is None else relax_activation(f))


def _back_substitute(coeffs: np.ndarray, const: np.ndarray, relaxed: list[_LayerRelax],
                     input_box: BoxDomain) -> tuple[np.ndarray, np.ndarray]:
    """Tightest upper bound on each row of coeffs @ activations(layer len(relaxed)-1) + const.

    `coeffs` holds one row per bound; a lower bound is minus the upper bound
    of the negated row. Also returns the rows over the input: their signs pick
    the corner each bound is taken at.
    """
    for lr in reversed(relaxed):
        pos = np.maximum(coeffs, 0.0)
        neg = np.minimum(coeffs, 0.0)
        slope = pos * lr.cu + neg * lr.cl
        # pre-activation t = W v + b, so the expression drops one layer down
        const = const + (pos @ lr.bu + neg @ lr.bl) + slope @ lr.bias
        coeffs = slope @ lr.weights
    pos = np.maximum(coeffs, 0.0)
    neg = np.minimum(coeffs, 0.0)
    return const + (pos @ input_box.upper + neg @ input_box.lower), coeffs


def deeppoly_bounds(net: Network, input_box: BoxDomain) -> PreActBounds:
    """DeepPoly-style bounds via full back-substitution to the input box.

    Every neuron's [L, U] is intersected with the interval-arithmetic bound,
    so the result is at least as tight on both sides. Each layer is
    back-substituted at once, one row per neuron and side.
    """
    ivals = interval_bounds(net, input_box)
    out = PreActBounds()
    for li, layer in enumerate(net.layers):
        n = layer.out_dim
        upper, _ = _back_substitute(np.concatenate((layer.weights, -layer.weights)),
                                    np.concatenate((layer.bias, -layer.bias)),
                                    out.relaxation, input_box)
        pre_lo = np.maximum(-upper[n:], ivals.lower[li])
        pre_hi = np.minimum(upper[:n], ivals.upper[li])
        # float noise on a pinned neuron can cross its bounds: meet in the middle
        crossed = pre_lo > pre_hi
        mid = 0.5 * (pre_lo + pre_hi)
        pre_lo = np.where(crossed, mid, pre_lo)
        pre_hi = np.where(crossed, mid, pre_hi)
        out.lower.append(pre_lo)
        out.upper.append(pre_hi)
        out.relaxation.append(_LayerRelax(layer, pre_lo, pre_hi))
    return out


def output_linear_bound(net: Network, input_box: BoxDomain, c: np.ndarray,
                        preact: PreActBounds) -> float:
    """Upper bound on c . N(x) over the box, DeepPoly style (used as a verifier);
    `preact` is the `deeppoly_bounds` result for `net` on `input_box`."""
    row = np.asarray(c, dtype=float)[None, :]
    return float(_back_substitute(row, np.zeros(1), preact.relaxed_layers(net),
                                  input_box)[0][0])


def upper_corner(net: Network, input_box: BoxDomain, c: np.ndarray,
                 preact: PreActBounds) -> np.ndarray:
    """The input box corner at which DeepPoly takes its upper bound on c . N(x)."""
    _, coeffs = _back_substitute(np.atleast_2d(c), np.zeros(1), preact.relaxed_layers(net),
                                 input_box)
    return np.where(coeffs[0] > 0, input_box.upper, input_box.lower)
