import numpy as np
import pytest

from stairverify import pwl
from stairverify.bounds import (PreActBounds, _LayerRelax, deeppoly_activation_relax,
                                deeppoly_bounds, interval_bounds, output_linear_bound,
                                relax_activation, upper_corner)
from stairverify.errors import InputError, ParameterError
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, network_from_json

from helpers import random_quantized_network, tanh_staircase_pair
from test_model_layout import KINDS, _mixed_query


def test_interval_two_inputs():
    net = Network((Layer.dense([[1.0, -1.0]], [0.0], None),),
                  BoxDomain([0, 0], [1, 1]))
    b = interval_bounds(net, net.input_box)
    assert b.interval(0, 0) == (-1.0, 1.0)


def test_interval_single_neuron_shift():
    net = Network((Layer.dense([[2.0]], [1.0], None),), BoxDomain([0.0], [1.0]))
    b = interval_bounds(net, net.input_box)
    assert b.interval(0, 0) == (1.0, 3.0)


def test_interval_monte_carlo_containment():
    rng = np.random.default_rng(20)
    net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=2, bits=2)
    b = interval_bounds(net, net.input_box)
    xs = net.input_box.sample(rng, 10000)
    vals = xs
    for li, layer in enumerate(net.layers):
        pre = vals @ layer.weights.T + layer.bias
        for j in range(layer.out_dim):
            lo, hi = b.interval(li, j)
            assert pre[:, j].min() >= lo - 1e-9
            assert pre[:, j].max() <= hi + 1e-9
        out = np.empty_like(pre)
        for j in range(layer.out_dim):
            spec = layer.activations[j]
            if spec is None:
                out[:, j] = pre[:, j]
            else:
                lo, hi = b.interval(li, j)
                f = spec.instantiate(lo, hi)
                out[:, j] = f.batch(np.clip(pre[:, j], f.lo, f.hi))
        vals = out


def test_quantizer_relax_k2_wide_last_piece():
    # pieces [0, .3), [.3, 1]: last width > first -> flat upper, sloped lower
    f = pwl.PiecewiseLinear([0.0, 0.3, 1.0], [0.0, 0.0], [0.0, 1.0])
    ub, lb = deeppoly_activation_relax(f)
    assert ub[0] == 0.0 and ub[1] == 1.0
    rise_over_last = 1.0 / 0.7
    assert abs(lb[0] - rise_over_last) <= 1e-12
    assert abs(lb[1] - (0.0 - rise_over_last * 0.3)) <= 1e-12


def test_quantizer_relax_k_gt2_wide_first_piece():
    # interior step 0.5, first width 1.0 > step: upper is the corner secant
    f = pwl.PiecewiseLinear([-1.0, 0.0, 0.5, 1.0], np.zeros(3), [0.0, 1.0, 2.0])
    ub, lb = deeppoly_activation_relax(f)
    expect = (2.0 - 0.0) / (0.5 - (-1.0))
    assert abs(ub[0] - expect) <= 1e-12
    # last width 0.5 == step: lower uses the level/step slope
    assert abs(lb[0] - (1.0 / 0.5)) <= 1e-12


def test_relax_sandwich_grid_oracle():
    rng = np.random.default_rng(21)
    cases = [pwl.dorefa(2, -1.0, 1.0), pwl.dorefa(3, -0.7, 1.3),
             pwl.dorefa(1, 0.0, 1.0), pwl.relu(-1.0, 2.0), pwl.relu(-2.0, 0.5),
             tanh_staircase_pair(),
             pwl.PiecewiseLinear([0.0, 0.4, 1.0], [0.0, 0.0], [0.0, 0.8])]
    for _ in range(10):
        k = int(rng.integers(1, 6))
        bp = np.sort(rng.uniform(-1, 1, size=k - 1))
        bp = np.concatenate([[-1.5], bp, [1.5]])
        cases.append(pwl.PiecewiseLinear(bp, rng.normal(size=k), rng.normal(size=k)))
    for f in cases:
        ub, lb = relax_activation(f)
        ts = np.linspace(f.lo, f.hi, 1000)
        vals = f.batch(ts)
        assert np.all(ub[0] * ts + ub[1] >= vals - 1e-9)
        assert np.all(lb[0] * ts + lb[1] <= vals + 1e-9)


def test_nonuniform_quantizer_falls_back_to_constants():
    f = pwl.PiecewiseLinear([0.0, 0.2, 0.9, 1.0], np.zeros(3), [0.0, 0.3, 1.0])
    ub, lb = deeppoly_activation_relax(f)
    assert ub[0] == 0.0 and ub[1] == 1.0
    assert lb[0] == 0.0 and lb[1] == 0.0


def test_decreasing_quantizer_mirrors_the_increasing_rules():
    # a non-increasing staircase takes the lines of its negation, negated and
    # swapped; levels that rise and fall take constant lines at their extremes
    f = pwl.PiecewiseLinear([0.0, 0.5, 1.0], np.zeros(2), [1.0, 0.0])
    assert deeppoly_activation_relax(f) == ((-2.0, 2.0), (0.0, 0.0))
    rng = np.random.default_rng(29)
    cases = [f, pwl.PiecewiseLinear([-10.0, -0.5, 0.5, 10.0], np.zeros(3), [1.0, 0.0, -1.0])]
    for uniform in [True, False] * 15:   # uniform steps, where the sloped rules apply
        k = int(rng.integers(2, 6))
        inner = (np.arange(k - 1) * rng.uniform(0.1, 1.0) if uniform
                 else np.sort(rng.uniform(0.0, 2.0, size=k - 1)))
        bp = np.concatenate(([-rng.uniform(0.05, 2.0)], inner, [inner[-1] + rng.uniform(0.05, 2.0)]))
        drops = np.full(k, rng.uniform(0.2, 1.0)) if uniform else rng.uniform(0.2, 1.0, size=k)
        cases.append(pwl.PiecewiseLinear(bp, np.zeros(k), -np.cumsum(drops)))
    for f in cases:
        upper, lower = deeppoly_activation_relax(f)
        mirrored = pwl.PiecewiseLinear(f.breakpoints, f.slopes, -f.intercepts)
        (mu, mb), (ml, mlb) = deeppoly_activation_relax(mirrored)
        assert upper == (-ml, -mlb) and lower == (-mu, -mb)
        # sound at sampled points and at both ends of every piece
        ts = np.concatenate((rng.uniform(f.lo, f.hi, size=200), f.breakpoints[:-1],
                             f.breakpoints[1:]))
        ys = np.concatenate((f.batch(ts[:200]), f.intercepts, f.intercepts))
        scale = 1e-9 * max(1.0, float(np.abs(f.breakpoints).max()))
        assert np.all(upper[0] * ts + upper[1] >= ys - scale)
        assert np.all(lower[0] * ts + lower[1] <= ys + scale)
    rise_and_fall = pwl.PiecewiseLinear([0.0, 1.0, 2.0, 3.0], np.zeros(3), [0.0, 1.0, 0.5])
    assert deeppoly_activation_relax(rise_and_fall) == ((0.0, 1.0), (0.0, 0.0))


def test_deeppoly_equals_interval_on_single_affine_layer():
    rng = np.random.default_rng(22)
    net = Network((Layer.dense(rng.normal(size=(3, 2)), rng.normal(size=3), None),),
                  BoxDomain([-1, -1], [1, 1]))
    iv = interval_bounds(net, net.input_box)
    dp = deeppoly_bounds(net, net.input_box)
    for j in range(3):
        assert dp.interval(0, j) == pytest.approx(iv.interval(0, j), abs=1e-12)


def test_deeppoly_relu_back_substitution_by_hand():
    # one hidden ReLU layer, weights picked so the triangle relaxation binds
    W1 = np.array([[1.0, 1.0], [1.0, -1.0]])
    W2 = np.array([[1.0, 1.0]])
    net = Network((Layer.dense(W1, [0.0, 0.0], ActivationSpec("relu", {})),
                   Layer.dense(W2, [0.0], None)),
                  BoxDomain([-1, -1], [1, 1]))
    dp = deeppoly_bounds(net, net.input_box)
    # hidden pre-activations span [-2, 2]; relu relaxation: upper (t+2)/2,
    # lower the flat line (tie on the kink picks the first piece). Output
    # = y1 + y2 with positive coefficients:
    # upper = (t1+2)/2 + (t2+2)/2 = (t1+t2)/2 + 2 = x1 + 2 over the box -> 3,
    # tighter than the interval bound 4; lower = 0 + 0 = 0.
    lo, hi = dp.interval(1, 0)
    assert abs(hi - 3.0) <= 1e-9
    assert abs(lo - 0.0) <= 1e-9


def test_deeppoly_never_looser_than_interval():
    rng = np.random.default_rng(23)
    for _ in range(100):
        layout = (int(rng.integers(2, 5)),) if rng.random() < 0.6 else \
            (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        net = random_quantized_network(
            rng, n_in=int(rng.integers(2, 4)), hidden=layout, n_out=2,
            bits=int(rng.integers(1, 3)),
            activation="dorefa" if rng.random() < 0.6 else "relu")
        iv = interval_bounds(net, net.input_box)
        dp = deeppoly_bounds(net, net.input_box)
        for li in range(len(net.layers)):
            for j in range(net.layers[li].out_dim):
                ilo, ihi = iv.interval(li, j)
                dlo, dhi = dp.interval(li, j)
                assert dlo >= ilo - 1e-9
                assert dhi <= ihi + 1e-9


def test_deeppoly_monte_carlo_soundness():
    rng = np.random.default_rng(24)
    for _ in range(10):
        net = random_quantized_network(rng, n_in=2, hidden=(3,), n_out=2,
                                       bits=2)
        dp = deeppoly_bounds(net, net.input_box)
        xs = net.input_box.sample(rng, 2000)
        vals = xs
        for li, layer in enumerate(net.layers):
            pre = vals @ layer.weights.T + layer.bias
            for j in range(layer.out_dim):
                lo, hi = dp.interval(li, j)
                assert pre[:, j].min() >= lo - 1e-9
                assert pre[:, j].max() <= hi + 1e-9
            out = np.empty_like(pre)
            for j in range(layer.out_dim):
                spec = layer.activations[j]
                if spec is None:
                    out[:, j] = pre[:, j]
                else:
                    lo, hi = dp.interval(li, j)
                    f = spec.instantiate(lo, hi)
                    out[:, j] = f.batch(np.clip(pre[:, j], f.lo, f.hi))
            vals = out


def test_shrinking_box_never_widens_bounds():
    rng = np.random.default_rng(25)
    for _ in range(25):
        net = random_quantized_network(rng, n_in=3, hidden=(4,), n_out=2, bits=2)
        center = net.input_box.sample(rng)
        wide = BoxDomain(np.maximum(center - 0.4, net.input_box.lower),
                         np.minimum(center + 0.4, net.input_box.upper))
        narrow = BoxDomain(np.maximum(center - 0.1, net.input_box.lower),
                           np.minimum(center + 0.1, net.input_box.upper))
        for fn in (interval_bounds, deeppoly_bounds):
            bw = fn(net, wide)
            bn = fn(net, narrow)
            for li in range(len(net.layers)):
                assert np.all(bn.lower[li] >= bw.lower[li] - 1e-9)
                assert np.all(bn.upper[li] <= bw.upper[li] + 1e-9)


def test_output_linear_bound_dominates_samples():
    rng = np.random.default_rng(26)
    net = random_quantized_network(rng, n_in=2, hidden=(3,), n_out=2, bits=2)
    c = np.array([1.0, -1.0])
    bound = output_linear_bound(net, net.input_box, c, deeppoly_bounds(net, net.input_box))
    xs = net.input_box.sample(rng, 3000)
    vals = net.forward(xs) @ c
    assert vals.max() <= bound + 1e-9


@pytest.mark.parametrize("activation", ["dorefa", "relu"])
def test_output_bound_shares_the_deeppoly_relaxation(activation, monkeypatch):
    rng = np.random.default_rng(27)
    net = random_quantized_network(rng, n_in=3, hidden=(5, 4), n_out=3, bits=2,
                                   activation=activation)
    dp = deeppoly_bounds(net, net.input_box)
    assert len(dp.relaxation) == len(net.layers)
    assert interval_bounds(net, net.input_box).relaxation == []
    cs = [rng.normal(size=3) for _ in range(5)]
    fresh = PreActBounds(dp.lower, dp.upper, [_LayerRelax(layer, lo, hi) for layer, lo, hi
                                              in zip(net.layers, dp.lower, dp.upper)])
    rebuilt = [output_linear_bound(net, net.input_box, c, fresh) for c in cs]

    def fail(*args):
        raise AssertionError("output_linear_bound rebuilt the deeppoly relaxation")

    monkeypatch.setattr(ActivationSpec, "_clip", fail)
    assert [output_linear_bound(net, net.input_box, c, dp) for c in cs] == rebuilt


# -- whole-layer back-substitution against the per-neuron loop it replaced ------

def _reference_back_substitute(coeffs, const, relaxed, input_box, sense):
    for lr in reversed(relaxed):
        pos = np.maximum(coeffs, 0.0)
        neg = np.minimum(coeffs, 0.0)
        if sense == "upper":
            slope = pos * lr.cu + neg * lr.cl
            const += float(pos @ lr.bu + neg @ lr.bl)
        else:
            slope = pos * lr.cl + neg * lr.cu
            const += float(pos @ lr.bl + neg @ lr.bu)
        const += float(slope @ lr.bias)
        coeffs = slope @ lr.weights
    pos = np.maximum(coeffs, 0.0)
    neg = np.minimum(coeffs, 0.0)
    if sense == "upper":
        return const + float(pos @ input_box.upper + neg @ input_box.lower)
    return const + float(pos @ input_box.lower + neg @ input_box.upper)


def _reference_interval_bounds(net, input_box):
    lowers, uppers = [], []
    lo, hi = input_box.lower, input_box.upper
    for layer in net.layers:
        w_pos = np.maximum(layer.weights, 0.0)
        w_neg = np.minimum(layer.weights, 0.0)
        pre_lo = w_pos @ lo + w_neg @ hi + layer.bias
        pre_hi = w_pos @ hi + w_neg @ lo + layer.bias
        lowers.append(pre_lo)
        uppers.append(pre_hi)
        lo, hi = np.empty(layer.out_dim), np.empty(layer.out_dim)
        for j, spec in enumerate(layer.activations):
            if spec is None:
                lo[j], hi[j] = pre_lo[j], pre_hi[j]
            else:
                lo[j], hi[j] = spec.instantiate(pre_lo[j], pre_hi[j]).output_range()
    return lowers, uppers


def _reference_deeppoly(net, input_box):
    lowers, uppers = _reference_interval_bounds(net, input_box)
    out_lo, out_hi, relaxed = [], [], []
    for li, layer in enumerate(net.layers):
        pre_lo = np.empty(layer.out_dim)
        pre_hi = np.empty(layer.out_dim)
        for j in range(layer.out_dim):
            w, b = layer.weights[j], float(layer.bias[j])
            lo = _reference_back_substitute(w, b, relaxed, input_box, "lower")
            hi = _reference_back_substitute(w, b, relaxed, input_box, "upper")
            pre_lo[j] = max(lo, float(lowers[li][j]))
            pre_hi[j] = min(hi, float(uppers[li][j]))
            if pre_lo[j] > pre_hi[j]:
                pre_lo[j] = pre_hi[j] = 0.5 * (pre_lo[j] + pre_hi[j])
        out_lo.append(pre_lo)
        out_hi.append(pre_hi)
        relaxed.append(_LayerRelax(layer, pre_lo, pre_hi))
    return out_lo, out_hi, relaxed


def _matrix_form_nets(rng):
    """Criterion-9-style nets, some wider ones and one declared-pwl net."""
    for i in range(60):
        hidden = (int(rng.integers(2, 5)),) if rng.random() < 0.7 else \
            (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        if i % 6 == 0:
            hidden = (int(rng.integers(8, 24)), int(rng.integers(8, 24)))
        net = random_quantized_network(
            rng, n_in=int(rng.integers(2, 9)), hidden=hidden, n_out=3,
            bits=int(rng.integers(1, 3)),
            activation="dorefa" if rng.random() < 0.7 else "relu")
        yield net, net.input_box
    spec = ActivationSpec("pwl", {"breakpoints": [-20.0, -1.0, 0.5, 20.0],
                                  "slopes": [0.5, 2.0, 0.0], "intercepts": [0.0, 1.5, 2.5]})
    net = Network((Layer.dense(rng.normal(size=(5, 3)), rng.normal(size=5) * 0.3, spec),
                   Layer.dense(rng.normal(size=(4, 5)), rng.normal(size=4) * 0.3, spec),
                   Layer.dense(rng.normal(size=(3, 4)), np.zeros(3), None)),
                  BoxDomain(-np.ones(3), np.ones(3)))
    yield net, BoxDomain(-0.5 * np.ones(3), 0.5 * np.ones(3))


def test_matrix_deeppoly_matches_per_neuron_form():
    rng = np.random.default_rng(9)

    def close(new, old):
        return np.all(np.abs(new - old) <= 1e-12 * np.maximum(1.0, np.abs(old)))

    for net, box in _matrix_form_nets(rng):
        iv = interval_bounds(net, box)
        ref_lo, ref_hi = _reference_interval_bounds(net, box)
        for new, old in zip(iv.lower + iv.upper, ref_lo + ref_hi):
            assert new.tobytes() == old.tobytes()
        dp = deeppoly_bounds(net, box)
        ref_lo, ref_hi, relaxed = _reference_deeppoly(net, box)
        for new, old in zip(dp.lower + dp.upper, ref_lo + ref_hi):
            assert close(new, old)
        for _ in range(3):
            c = rng.normal(size=net.output_dim)
            old = _reference_back_substitute(c, 0.0, relaxed, box, "upper")
            assert close(output_linear_bound(net, box, c, dp), old)


_DOREFA = {"kind": "dorefa", "bits": 2, "lo": -1.0, "hi": 1.0}
_DECLARED = {"kind": "pwl", "breakpoints": [-30.0, -0.5, 0.0, 0.7, 30.0],
             "slopes": [0.0, 1.5, -0.5, 0.2], "intercepts": [0.2, 0.95, 0.95, 0.6]}


def _mixed_layer_nets():
    """Layers where activations of several specs and affine neurons meet."""
    for kind in KINDS:
        for eps in (0.0, 1e-10, 0.3):
            query = _mixed_query(kind, eps)
            yield query.network, query.input_region()
    rng = np.random.default_rng(17)
    acts = ([dict(_DOREFA) for _ in range(3)] + [None] + [dict(_DOREFA, bits=1)],
            [_DOREFA, {"kind": "relu"}, _DECLARED, None, {"kind": "relu"}, _DECLARED, _DOREFA],
            None)
    dims = (4, 5, 7, 3)
    net = network_from_json({
        "layers": [{"weights": rng.normal(size=(n_out, n_in)).tolist(),
                    "bias": rng.normal(size=n_out).tolist(), "activation": act}
                   for n_in, n_out, act in zip(dims, dims[1:], acts)],
        "input_box": {"lower": [-2.0] * 4, "upper": [2.0] * 4}})
    yield net, net.input_box
    yield net, BoxDomain(np.full(4, 0.3), np.full(4, 0.3))


def test_interval_bounds_equal_the_per_neuron_loop_on_mixed_layers():
    for net, box in _mixed_layer_nets():
        iv = interval_bounds(net, box)
        ref_lo, ref_hi = _reference_interval_bounds(net, box)
        for new, old in zip(iv.lower + iv.upper, ref_lo + ref_hi):
            assert new.tobytes() == old.tobytes()
    # the equal dorefa specs the file loader built apart share one group
    first, second = net.layers[0], net.layers[1]
    assert first.activations[0] == first.activations[1] is not first.activations[0]
    assert [idx.tolist() for _, idx in first.spec_groups] == [[0, 1, 2], [4]]
    assert [(spec.kind, idx.tolist()) for spec, idx in second.spec_groups] == [
        ("dorefa", [0, 6]), ("relu", [1, 4]), ("pwl", [2, 5])]


def _function_bytes(f):
    return None if f is None else (f.breakpoints.tobytes(), f.slopes.tobytes(),
                                   f.intercepts.tobytes())


def test_layer_functions_equal_per_neuron_instantiate_on_mixed_layers():
    for net, box in _mixed_layer_nets():
        for bounds in (interval_bounds(net, box), deeppoly_bounds(net, box)):
            for layer, lo, hi in zip(net.layers, bounds.lower, bounds.upper):
                ref = [None if spec is None else spec.instantiate(lo[j], hi[j])
                       for j, spec in enumerate(layer.activations)]
                assert list(map(_function_bytes, layer.functions(lo, hi))) == list(
                    map(_function_bytes, ref))


def test_deeppoly_clips_once_per_spec_group_and_layer(monkeypatch):
    calls = []
    clip = ActivationSpec._clip

    def counted(self, lo, hi):
        calls.append(self)
        return clip(self, lo, hi)

    def fail(*args):
        raise AssertionError("a neuron was clipped on its own")

    monkeypatch.setattr(ActivationSpec, "_clip", counted)
    monkeypatch.setattr(ActivationSpec, "instantiate", fail)
    for net, box in _mixed_layer_nets():
        calls.clear()
        dp = deeppoly_bounds(net, box)
        groups = [spec for layer in net.layers for spec, _ in layer.spec_groups]
        # every layer's interval ranges, then every layer's clipped functions
        assert list(map(id, calls)) == list(map(id, groups + groups))
        assert [f is not None for lr in dp.relaxation for f in lr.functions] == [
            spec is not None for layer in net.layers for spec in layer.activations]


_DECLARED_SPEC = ActivationSpec("pwl", {"breakpoints": [-1.0, 0.0, 1.0], "slopes": [0.0, 1.0],
                                        "intercepts": [0.0, 0.0]})


@pytest.mark.parametrize("spec, lo, hi, error, message", [
    (_DECLARED_SPEC, -1.5, 0.5, InputError, "does not cover"),
    (_DECLARED_SPEC, 0.5, 1.0 + 2e-9, InputError, "does not cover"),
    (_DECLARED_SPEC, np.nan, 0.5, ParameterError, "strictly increasing"),
    (ActivationSpec("relu", {}), -np.inf, 0.5, ParameterError, "finite"),
    (ActivationSpec("relu", {}), 1e300, 1e300, ParameterError, "strictly increasing")],
    ids=["below", "above", "nan", "infinite", "point-lost"])
def test_a_layer_with_one_failing_neuron_raises_what_instantiate_raises(spec, lo, hi, error,
                                                                        message):
    layer = Layer.dense(np.ones((4, 1)), np.zeros(4), spec)
    lows, highs = np.array([-0.5, 0.0, lo, 0.2]), np.array([0.5, 0.1, hi, 0.9])
    with pytest.raises(error, match=message) as single:
        spec.instantiate(lo, hi)
    with pytest.raises(error) as whole:
        layer.functions(lows, highs)
    assert str(whole.value) == str(single.value)
    with pytest.raises(error) as ranges:
        spec.output_ranges(lows, highs)
    assert str(ranges.value) == str(single.value)


def test_bounds_reject_a_box_of_the_wrong_dimension():
    net = random_quantized_network(np.random.default_rng(30), n_in=2, hidden=(3,), n_out=2)
    box = BoxDomain(-np.ones(3), np.ones(3))
    for bound in (interval_bounds, deeppoly_bounds):
        with pytest.raises(InputError, match="input box has 3 dimensions, the network takes 2"):
            bound(net, box)


def test_output_bound_rejects_bounds_without_relaxation():
    net = random_quantized_network(np.random.default_rng(28), n_in=3, hidden=(3,), n_out=3)
    with pytest.raises(InputError, match="deeppoly_bounds"):
        output_linear_bound(net, net.input_box, np.ones(3), interval_bounds(net, net.input_box))


@pytest.mark.parametrize("n_out", [2, 3])
def test_upper_corner_rejects_bounds_without_relaxation(n_out):
    # with no layer to back-substitute through, the output objective would be
    # read as input coefficients: a wrong corner at n_out = n_in, a shape
    # error otherwise
    net = random_quantized_network(np.random.default_rng(29), n_in=2, hidden=(3,), n_out=n_out)
    c = np.ones(n_out)
    with pytest.raises(InputError, match="deeppoly_bounds"):
        upper_corner(net, net.input_box, c, interval_bounds(net, net.input_box))
    corner = upper_corner(net, net.input_box, c, deeppoly_bounds(net, net.input_box))
    assert set(np.abs(corner)) == {1.0}
