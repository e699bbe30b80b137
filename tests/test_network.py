import json
import re

import numpy as np
import pytest

from stairverify import pwl
from stairverify.errors import DomainError, InputError, ParameterError
from stairverify.network import (ActivationSpec, BoxDomain, Layer, Network, Neuron,
                                 load_network, network_from_json, network_to_json,
                                 save_network)

from helpers import random_quantized_network


def test_identity_layer_forward_is_affine():
    W = np.array([[2.0, -1.0], [0.5, 0.5]])
    b = np.array([0.1, -0.2])
    net = Network((Layer.dense(W, b, None),), BoxDomain([-1, -1], [1, 1]))
    x = np.array([0.3, -0.7])
    assert np.allclose(net.forward(x), W @ x + b)


def test_single_relu_neuron_clamps():
    net = Network((Layer.dense([[1.0]], [0.0], ActivationSpec("relu", {})),),
                  BoxDomain([-3.0], [3.0]))
    assert net.forward(np.array([-2.0]))[0] == 0.0
    assert net.forward(np.array([2.0]))[0] == 2.0


def test_forward_matches_per_neuron_composition():
    rng = np.random.default_rng(4)
    net = random_quantized_network(rng, n_in=2, hidden=(2,), n_out=2, bits=2)
    from stairverify.bounds import interval_bounds

    ivals = interval_bounds(net, net.input_box)
    for _ in range(20):
        x = net.input_box.sample(rng)
        expect = x
        for li, layer in enumerate(net.layers):
            pre = layer.weights @ expect + layer.bias
            out = np.empty(layer.out_dim)
            for j in range(layer.out_dim):
                spec = layer.activations[j]
                if spec is None:
                    out[j] = pre[j]
                else:
                    lo, hi = ivals.interval(li, j)
                    f = spec.instantiate(lo, hi)
                    out[j] = f(float(np.clip(pre[j], f.lo, f.hi)))
            expect = out
        assert np.allclose(net.forward(x), expect)


def test_forward_rejects_out_of_box_input():
    net = Network((Layer.dense([[1.0]], [0.0], None),), BoxDomain([-1.0], [1.0]))
    with pytest.raises(DomainError):
        net.forward(np.array([2.0]))


def test_json_round_trip():
    rng = np.random.default_rng(5)
    net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=2, bits=2)
    doc = network_to_json(net)
    net2 = network_from_json(json.loads(json.dumps(doc)))
    for _ in range(10):
        x = net.input_box.sample(rng)
        assert np.allclose(net.forward(x), net2.forward(x))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    net = random_quantized_network(rng, n_in=2, hidden=(3,), n_out=2, bits=1)
    path = tmp_path / "net.json"
    save_network(net, str(path))
    net2 = load_network(str(path))
    x = np.array([0.25, -0.5])
    assert np.allclose(net.forward(x), net2.forward(x))


def test_malformed_document_reports_input_error():
    with pytest.raises(InputError):
        network_from_json({"layers": [{"weights": [[1.0]]}]})
    with pytest.raises(InputError):
        network_from_json({"layers": [{"weights": [[1.0]], "bias": [0.0],
                                       "activation": {"kind": "mystery"}}],
                           "input_box": {"lower": [0.0], "upper": [1.0]}})


def test_layer_dimension_chain_checked():
    with pytest.raises(ParameterError):
        Network((Layer.dense([[1.0, 2.0]], [0.0], None),), BoxDomain([0.0], [1.0]))


def test_declared_pwl_domain_must_cover_range():
    spec = ActivationSpec("pwl", {"breakpoints": [-0.5, 0.5],
                                  "slopes": [1.0], "intercepts": [0.0]})
    layer = Layer.dense([[1.0]], [0.0], spec)
    net = Network((layer,), BoxDomain([-1.0], [1.0]))
    with pytest.raises(InputError):
        net.forward(np.array([0.0]))


def test_neuron_dbar_derivation():
    box = BoxDomain([-1.0], [1.0])
    f = pwl.relu(-1.5, 2.5)
    neuron = Neuron(np.array([2.0]), 0.5, f, box)
    assert np.allclose(neuron.dbar(), f.slopes * 0.5 + f.intercepts)


def test_preact_range_alignment():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-2, 0, size=n)
        hi = lo + rng.uniform(0.1, 2, size=n)
        w = rng.normal(size=n)
        neuron = Neuron.aligned(w, rng.normal(), pwl.relu, BoxDomain(lo, hi))
        L, U = neuron.preact_range()
        assert abs(neuron.activation.lo - L) <= 1e-12
        assert abs(neuron.activation.hi - U) <= 1e-12


# -- instantiate against a copy of the original multi-object construction ------

def _reference_clip(f, lo, hi, point):
    if lo > hi:
        raise DomainError("empty clip interval")
    if lo < f.lo - 1e-9 or hi > f.hi + 1e-9:
        raise DomainError("clip interval must be inside the function's domain")
    lo = min(max(lo, f.lo), f.hi)
    hi = min(max(hi, f.lo), f.hi)
    merge = pwl.BREAKPOINT_MERGE_TOL * max(1.0, f.hi - f.lo)
    # the first piece is f's piece past the merge band at lo, or at hi if that
    # is nearer; a point range's is at lo
    first = f.piece_index(lo if point else min(lo + merge, hi))
    if hi - lo <= merge:
        width = max(merge, 1e-12)
        return pwl.PiecewiseLinear([lo, lo + width], [f.slopes[first]], [f.intercepts[first]])
    interior = [h for h in f.breakpoints[1:-1] if lo + merge < h < hi - merge]
    bp = np.array([lo] + interior + [hi])
    idx = [first] + [f.piece_index(b) for b in interior]
    return pwl.PiecewiseLinear(bp, f.slopes[idx], f.intercepts[idx])


def _reference_instantiate(spec, lo, hi):
    point = hi <= lo
    if point:
        hi = lo + 1e-9
    if spec.kind == "relu":
        return pwl.relu(lo, hi)
    if spec.kind == "identity":
        return pwl.identity(lo, hi)
    if spec.kind == "dorefa":
        f = pwl.dorefa(int(spec.params["bits"]),
                       float(spec.params["lo"]), float(spec.params["hi"]))
        bp = f.breakpoints.copy()
        if lo < bp[0]:
            bp[0] = lo
        if hi > bp[-1]:
            bp[-1] = hi
        widened = pwl.PiecewiseLinear(bp, f.slopes, f.intercepts)
        return _reference_clip(widened, lo, hi, point)
    f = pwl.PiecewiseLinear(spec.params["breakpoints"], spec.params["slopes"],
                            spec.params["intercepts"])
    if spec.kind == "staircase" and pwl.staircase_slope(f) is None:
        raise ParameterError("function is not a staircase")
    if lo < f.lo - 1e-9 or hi > f.hi + 1e-9:
        raise InputError("declared domain does not cover the pre-activation range")
    return _reference_clip(f, lo, hi, point)


_SPECS = [ActivationSpec("dorefa", {"bits": b, "lo": -1.0, "hi": 1.0}) for b in (1, 2, 3)] + [
    ActivationSpec("relu", {}),
    ActivationSpec("identity", {}),
    ActivationSpec("staircase", {"breakpoints": [-2.0, -0.5, 0.25, 1.5],
                                 "slopes": [0.0, 0.5, 0.0], "intercepts": [0.1, 0.4, 0.6]}),
    ActivationSpec("pwl", {"breakpoints": [-2.0, -0.5, 0.25, 1.5],
                           "slopes": [0.3, -1.0, 2.0], "intercepts": [0.0, 1.0, -0.2]}),
]


def _instantiate_grid(spec):
    if spec.kind == "dorefa":
        marks = list(np.linspace(-1.0, 1.0, 2 ** spec.params["bits"] + 1))
    elif spec.kind in ("relu", "identity"):
        marks = [-1.0, 0.0, 1.0]
    else:
        marks = list(spec.params["breakpoints"])
    # exactly on breakpoints, and within / just past the merge tolerance of them
    points = set(marks)
    for h in marks:
        for off in (0.4e-12, 0.9e-12, 1.5e-12, 3e-12, 1e-10):
            points.update((h - off, h + off))
    pairs = [(a, b) for a in sorted(points) for b in sorted(points)
             if a <= b and (a in marks or b in marks)]
    pairs += [(-0.3, 0.4), (-0.9, 0.95), (-2.5, 0.3), (-0.2, 3.0), (-5.0, 5.0),
              (2.0, 3.0), (-4.0, -2.0), (0.2, 0.2), (0.3, 0.1), (1.0, -1.0),
              (1.0, 1.0 + 5e-13), (-1.0 - 5e-13, -1.0), (1.5 + 3e-10, 1.5 + 6e-10)]
    # thin ranges just below and just above an interior breakpoint
    pairs += [p for h in marks[1:-1] for p in ((h - 1e-13, h - 5e-14), (h + 5e-14, h + 1e-13))]
    return pairs


def _outcome(fn, spec, lo, hi):
    try:
        f = fn(spec, lo, hi)
    except Exception as exc:  # the exception type must match too
        return type(exc)
    return (type(f), f.breakpoints.tobytes(), f.slopes.tobytes(), f.intercepts.tobytes(),
            f.breakpoints.dtype)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: f"{s.kind}{s.params.get('bits', '')}")
def test_instantiate_matches_reference_construction(spec):
    for lo, hi in _instantiate_grid(spec):
        new = _outcome(ActivationSpec.instantiate, spec, lo, hi)
        old = _outcome(_reference_instantiate, spec, lo, hi)
        assert new == old, (spec.kind, lo, hi)


def _declared(spec, t):
    """The declared activation at t: dorefa's outer levels extend past its domain."""
    if spec.kind in ("relu", "identity"):
        return max(t, 0.0) if spec.kind == "relu" else t
    f = spec._base
    return f(min(max(t, f.lo), f.hi))


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: f"{s.kind}{s.params.get('bits', '')}")
def test_clipped_functions_equal_the_declared_one_outside_the_merge_band(spec):
    # a range's clipped function may differ from the declared one only within
    # 2 * merge of a declared breakpoint, and nowhere inside the domain on a
    # range that holds no declared breakpoint past its lower end; a point range
    # is checked at its point
    bp = spec._base.breakpoints
    checked = 0
    for lo, hi in _instantiate_grid(spec):
        try:
            g = spec.instantiate(lo, hi)
        except InputError:
            continue
        merge = pwl.BREAKPOINT_MERGE_TOL * max(1.0, max(bp[-1], hi) - min(bp[0], lo))
        one_piece = not ((bp[1:-1] > lo) & (bp[1:-1] <= hi)).any()
        ts = [lo] if hi <= lo else np.linspace(g.lo, min(hi, g.hi), 41)
        for t in ts:
            if (one_piece and bp[0] <= t <= bp[-1]) or np.abs(bp - t).min() > 2 * merge:
                assert g(t) == _declared(spec, t), (lo, hi, t)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("kind", ["pwl", "staircase"])
def test_a_range_just_past_a_declared_domain_clips_to_a_thin_end_piece(kind):
    spec = ActivationSpec(kind, {"breakpoints": [-1.0, 0.0, 1.0], "slopes": [0.0, 0.0],
                                 "intercepts": [0.2, 0.7]})
    # inside the domain's 1e-9 tolerance: the last piece from the domain's end
    f = spec.instantiate(1.0 + 3e-10, 1.0 + 6e-10)
    assert f.breakpoints.tolist() == [1.0, 1.0 + 2e-12] and f.intercepts.tolist() == [0.7]
    f = spec.instantiate(-1.0 - 6e-10, -1.0 - 3e-10)
    assert f.breakpoints.tolist() == [-1.0, -1.0 + 2e-12] and f.intercepts.tolist() == [0.2]


@pytest.mark.parametrize("weight, bias, out_weights, out_bias", [
    # breakpoint 0 lies 1e-13 above the range's lower end; the quantizer is 1
    # at t = 0.5 - 1e-13
    (1.0, -1e-13, [[0.0], [1.0]], [0.5, 0.0]),
    # t lies in [-1e-13, -5e-14], within the band below breakpoint 0; the
    # quantizer is 0 at every t
    (5e-14, -1e-13, [[0.0], [-1.0]], [0.5, 1.0]),
], ids=["above-the-lower-end", "thin-range-below"])
def test_a_breakpoint_in_the_merge_band_keeps_the_declared_level(weight, bias, out_weights,
                                                                 out_bias):
    from stairverify.formulations import VerificationQuery
    from stairverify.verifier import MODES, VerifyConfig, verify

    dorefa = ActivationSpec("dorefa", {"bits": 1, "lo": -1.0, "hi": 1.0})
    net = Network((Layer.dense([[weight]], [bias], dorefa),
                   Layer.dense(out_weights, out_bias, None)), BoxDomain([0.0], [1.0]))
    # output 1 beats output 0 at every input of the box [0, 1]
    assert net.forward(np.array([0.5])).tolist() == [0.5, 1.0]
    for eps in (0.5, 0.4):
        query = VerificationQuery(net, np.array([0.5]), eps, 0, None)
        for mode in MODES:
            report = verify(query, VerifyConfig(mode=mode))
            assert report.verdict != "robust", (eps, mode)
            assert report.verdict == ("unknown" if mode == "deeppoly" else "falsified")


def _range_outcome(fn, spec, lo, hi):
    try:
        out = fn(spec, lo, hi)
    except Exception as exc:  # the exception type and message must match too
        return type(exc), str(exc)
    return np.array(out, dtype=float).tobytes()  # bitwise, so -0.0 != 0.0


def _scalar_range(spec, lo, hi):
    return spec.instantiate(lo, hi).output_range()


def _batch_ranges(spec, lo, hi):
    out_lo, out_hi = spec.output_ranges(np.array(lo, dtype=float), np.array(hi, dtype=float))
    return np.stack((out_lo, out_hi), axis=1).ravel()


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: f"{s.kind}{s.params.get('bits', '')}")
def test_output_range_matches_instantiated_range(spec):
    grid = _instantiate_grid(spec)
    outcomes = [_range_outcome(_scalar_range, spec, lo, hi) for lo, hi in grid]
    for (lo, hi), old in zip(grid, outcomes):   # pair by pair
        assert _range_outcome(_batch_ranges, spec, [lo], [hi]) == old, (spec.kind, lo, hi)
    # the whole grid in one batch raises what instantiate raises on its first failing pair
    failed = [o for o in outcomes if isinstance(o, tuple)]
    lows, highs = zip(*grid)
    assert _range_outcome(_batch_ranges, spec, lows, highs) == (
        failed[0] if failed else b"".join(outcomes))
    # and every pair instantiate accepts, as a single batch
    ok = [pair for pair, o in zip(grid, outcomes) if isinstance(o, bytes)]
    lows, highs = zip(*ok)
    assert _batch_ranges(spec, lows, highs).tobytes() == b"".join(
        o for o in outcomes if isinstance(o, bytes))
    # declared domains end at -2 and 1.5, so the grid also checks the error path
    assert any(o[0] is InputError for o in failed) == (spec.kind in ("pwl", "staircase"))


@pytest.mark.parametrize("spec", _SPECS[-2:], ids=lambda s: s.kind)
def test_output_ranges_name_the_first_range_a_declared_domain_misses(spec):
    lo, hi = np.array([-1.0, 0.0, -1.0, 1.0]), np.array([1.0, 1.4, 1.7, 1.9])
    with pytest.raises(InputError, match=r"pre-activation range \[-1.0, 1.7\]"):
        spec.output_ranges(lo, hi)
    spec.output_ranges(lo[:2], hi[:2])


def test_output_ranges_reject_an_unknown_kind():
    with pytest.raises(InputError, match="unknown activation kind 'tanh'"):
        ActivationSpec("tanh", {}).output_ranges(np.zeros(3), np.ones(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("end", [-np.inf, np.inf, np.nan])
@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: f"{s.kind}{s.params.get('bits', '')}")
def test_a_range_with_a_non_finite_end_is_rejected_by_name(spec, end):
    # rows 1 and 2 both fail; the message names row 1, before any arithmetic
    lo, hi = np.array([-0.5, -0.5, end, 0.0]), np.array([0.5, end, 0.5, 0.2])
    message = re.escape(f"pre-activation range [-0.5, {end}] must be finite")
    for clip in (spec.functions, spec.output_ranges):
        with pytest.raises(ParameterError, match=message):
            clip(lo, hi)
    with pytest.raises(ParameterError, match=re.escape(f"range [{end}, 0.5] must be finite")):
        spec.instantiate(end, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [1e999, -1e999, np.nan])
def test_box_bounds_must_be_finite(bad):
    for lower, upper in (([0.0, bad], [1.0, 1.0]), ([0.0, 0.0], [1.0, bad])):
        with pytest.raises(ParameterError, match="box bounds must be finite"):
            BoxDomain(lower, upper)
    net = random_quantized_network(np.random.default_rng(3), n_in=2, hidden=(2,), n_out=2)
    doc = network_to_json(net)
    doc["input_box"]["upper"][1] = bad
    with pytest.raises(ParameterError, match="box bounds must be finite"):
        network_from_json(doc)


@pytest.mark.parametrize("kind", ["pwl", "staircase"])
def test_slope_within_staircase_tolerance_of_zero_instantiates(kind):
    # 5e-10 is flat to staircase_slope's 1e-9, so both kinds read as s = 1
    spec = ActivationSpec(kind, {"breakpoints": [0.0, 1.0, 2.0], "slopes": [5e-10, 1.0],
                                 "intercepts": [0.0, 0.0]})
    f = spec.instantiate(0.0, 2.0)
    assert pwl.staircase_slope(f) == 1.0 and np.array_equal(f.slopes, [5e-10, 1.0])
