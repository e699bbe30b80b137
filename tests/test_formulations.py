import numpy as np
import pytest

from stairverify import pwl
from stairverify.bounds import deeppoly_bounds, interval_bounds
from stairverify.errors import InputError
from stairverify.formulations import (BIGM, CAYLEY, VerificationQuery, attack_objective,
                                      build_bigm, build_cayley, build_query_model)
from stairverify.lp import INF, solve
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, Neuron
from stairverify.oracles import enumerate_cayley_vertices
from stairverify.separation import UPPER, is_pinned, separate_pwl

from helpers import (clip, dense_query, random_neuron, random_quantized_network,
                     recipe_query, wide_tanh_query, with_rows)


def _row_holds(coeffs, lo, hi, vals, tol=1e-8):
    return lo - tol <= float(coeffs @ vals) <= hi + tol


def _vertex_assignment(model, nf, x, y, piece):
    vals = np.zeros(model.num_vars())
    for p, v in enumerate(nf.x_vars):
        vals[v] = x[p]
    vals[nf.y_var] = y
    vals[nf.z_vars[piece]] = 1.0
    return vals


def test_bigm_relu_is_textbook():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1.0], [1.0]))
    model = build_bigm(neuron)
    lp = model.to_lp()
    # rows: simplex, two slab couplings, and two M rows per piece
    assert len(lp.rows) == 3 + 2 * 2
    verts = enumerate_cayley_vertices(neuron)
    for i in range(len(verts)):
        vals = _vertex_assignment(model, model.nf, verts.xs[i], verts.ys[i],
                                  int(verts.pieces[i]))
        for coeffs, lo, hi in zip(lp.rows, lp.row_lower, lp.row_upper):
            assert _row_holds(coeffs, lo, hi, vals, tol=1e-9)


def _corner_m_constants(f):
    """Referee: min and max over every piece's breakpoint corners of
    y - (a_i t + d_i), per piece i, as Big-M computed its M constants once."""
    corner_ts = np.concatenate([f.breakpoints[:-1], f.breakpoints[1:]])
    corner_fs = np.concatenate([f.slopes * f.breakpoints[:-1] + f.intercepts,
                                f.slopes * f.breakpoints[1:] + f.intercepts])
    diffs = [corner_fs - (a_i * corner_ts + d_i) for a_i, d_i in zip(f.slopes, f.intercepts)]
    return np.array([d.min() for d in diffs]), np.array([d.max() for d in diffs])


def test_bigm_m_constants_match_the_corner_formula():
    rng = np.random.default_rng(52)
    for trial in range(60):
        neuron = random_neuron(rng, int(rng.integers(1, 5)), int(rng.integers(2, 6)),
                               s=[1.0, -0.4, 2.0][trial % 3], pwl_activation=trial % 2 == 0)
        f = neuron.activation
        if np.all(np.abs(f.slopes) <= 1e-12):
            continue
        model = build_bigm(neuron)
        nf = model.nf
        lp = model.to_lp()
        # piece i's two M rows, in piece order: its upper one is open below,
        # its lower one open above
        m_rows = {"upper": [], "lower": []}
        for coeffs, lo, hi in zip(lp.rows, lp.row_lower, lp.row_upper):
            if coeffs[nf.y_var] == 1.0:
                assert (lo == -INF) != (hi == INF)
                side = "upper" if lo == -INF else "lower"
                m_rows[side].append((coeffs, hi if side == "upper" else lo))
        ref_low, ref_high = _corner_m_constants(f)
        dbar = neuron.dbar()
        for side, ref in (("lower", ref_low), ("upper", ref_high)):
            assert len(m_rows[side]) == f.num_pieces
            for i, (coeffs, bound) in enumerate(m_rows[side]):
                m = coeffs[nf.z_vars[i]]
                assert abs(m - ref[i]) <= 1e-12 * max(1.0, abs(ref[i])), (trial, side, i)
                assert bound == pytest.approx(ref[i] + dbar[i], rel=1e-12, abs=1e-12)


def test_bigm_constant_pieces_drop_m_rows():
    neuron = Neuron.aligned(np.array([1.0, -1.0]), 0.0,
                            lambda lo, hi: pwl.dorefa(2, lo, hi),
                            BoxDomain([-1, -1], [1, 1]))
    model = build_bigm(neuron)
    lp = model.to_lp()
    # simplex + two slabs + the single y = sum d_i z_i equality
    assert len(lp.rows) == 4
    eq_rows = [r for r in zip(lp.rows, lp.row_lower, lp.row_upper)
               if r[1] == r[2] and r[0][model.nf.y_var] != 0.0]
    assert len(eq_rows) == 1
    coeffs = eq_rows[0][0]
    f = neuron.activation
    for i, z in enumerate(model.nf.z_vars):
        assert coeffs[z] == pytest.approx(-float(f.intercepts[i]))


def test_vertices_feasible_in_both_formulations():
    rng = np.random.default_rng(50)
    for _ in range(25):
        neuron = random_neuron(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                               pwl_activation=rng.random() < 0.3)
        verts = enumerate_cayley_vertices(neuron)
        for builder in (build_bigm, build_cayley):
            model = builder(neuron)
            lp = model.to_lp()
            for i in range(len(verts)):
                vals = _vertex_assignment(model, model.nf, verts.xs[i],
                                          verts.ys[i], int(verts.pieces[i]))
                for coeffs, lo, hi in zip(lp.rows, lp.row_lower, lp.row_upper):
                    assert _row_holds(coeffs, lo, hi, vals, tol=1e-9)


def test_cayley_alpha_zero_seed_caps_y():
    # the upper alpha = 0 seed: -y + sum c_i z_i >= 0 with c_i = max over
    # the slice of a_i w.x plus dbar_i; on a flat neuron its pair is Big-M's
    # equality y - sum c_i z_i = 0, the neuron's only y row
    from stairverify.separation import retrieve_cut

    flat = random_neuron(np.random.default_rng(51), 2, 3, s=1.0)
    assert np.all(flat.activation.slopes == 0.0)   # the draw: slopes [0, 0, 0]
    ramp = Neuron(np.array([1.0, 0.5]), 0.0, pwl.relu(-1.5, 1.5),
                  BoxDomain([-1.0, -1.0], [1.0, 1.0]))   # slopes {0, 1}
    # an equality (0 = row = 0) on the flat one, 0 <= row <= INF on the ramp
    for neuron, y_coef, upper in ((flat, 1.0, 0.0), (ramp, -1.0, INF)):
        model = build_cayley(neuron)
        nf = model.nf
        seed = retrieve_cut(neuron, np.zeros(2), UPPER)
        found = False
        lp = model.to_lp()
        for coeffs, lo, hi in zip(lp.rows, lp.row_lower, lp.row_upper):
            if coeffs[nf.y_var] == y_coef and hi == upper:
                zc = y_coef * -coeffs[nf.z_vars]
                if np.allclose(zc, seed.zcoef) and np.all(coeffs[nf.x_vars] == 0.0):
                    found = lo == 0.0
        assert found, upper
        if neuron is flat:
            assert np.count_nonzero(lp.rows[:, nf.y_var]) == 1 and not nf.pool
            big = build_bigm(neuron).to_lp()
            assert np.array_equal(lp.rows, big.rows)
            assert np.array_equal(lp.row_lower, big.row_lower)
            assert np.array_equal(lp.row_upper, big.row_upper)


def test_cayley_seeds_pin_every_integral_point_to_its_piece():
    # three distinct slopes, one of them flat to staircase_slope: with z = e_i
    # the seeded LP holds y on piece i's line, y - (a_i t + d_i) = 0
    f = pwl.PiecewiseLinear([-1.0, 0.0, 0.5, 1.0], [1.0, 5e-10, 2.0], [0.0, 0.0, 0.0])
    w, b = 0.5, 0.0
    neuron = Neuron(np.array([w]), b, f, BoxDomain([-2.0], [2.0]))
    model = build_cayley(neuron)
    nf = model.nf
    assert len(nf.pool) == 8   # alpha = a w for a in {0, 1, 5e-10, 2}, both directions
    for i, z in enumerate(nf.z_vars):
        upper = np.array(model.upper)
        upper[[v for v in nf.z_vars if v != z]] = 0.0
        offset = float(f.slopes[i]) * b + float(f.intercepts[i])
        for sign in (1.0, -1.0):   # the LP max and min of y - (a_i t + d_i)
            model.objective = np.zeros(model.num_vars())
            model.objective[nf.y_var] = sign
            model.objective[nf.x_vars] = -sign * float(f.slopes[i]) * w
            sol = solve(model.to_lp(upper))
            assert sol.status == "optimal"
            assert sign * sol.objective - offset == pytest.approx(0.0, abs=1e-9), (i, sign)


def _same_lp(a, b) -> bool:
    return (np.array_equal(a.rows, b.rows) and np.array_equal(a.row_lower, b.row_lower)
            and np.array_equal(a.row_upper, b.row_upper) and np.array_equal(a.lower, b.lower)
            and np.array_equal(a.upper, b.upper))


def test_one_piece_cayley_neuron_has_bigm_rows():
    # an active ReLU: one piece of slope 1, whose hull is its graph
    neuron = Neuron.aligned(np.array([1.0, -0.5]), 1.0, pwl.relu,
                            BoxDomain([-0.5, -0.5], [1.0, 1.0]))
    assert neuron.activation.num_pieces == 1 and neuron.activation.slopes[0] == 1.0
    cay = build_cayley(neuron)
    assert _same_lp(cay.to_lp(), build_bigm(neuron).to_lp()) and not cay.nf.pool


def test_cayley_dorefa_query_model_is_the_bigm_model():
    spec = ActivationSpec("dorefa", {"bits": 2, "lo": -1.0, "hi": 1.0})
    for j in range(4):
        q = dense_query(j, spec, eps=0.1)
        q = q.with_target(q.targets()[0])
        cay = build_query_model(q, CAYLEY)
        assert _same_lp(cay.to_lp(), build_query_model(q, BIGM).to_lp()), j
        assert cay.activated_neurons() and not any(nf.pool for nf in cay.activated_neurons())


@pytest.mark.parametrize("recipe", ["relu", "tanh-style"])
def test_cayley_seeds_only_neurons_with_pieces_and_a_slope(recipe):
    q = recipe_query(recipe, 1, 0.1)
    model = build_query_model(q.with_target(q.targets()[0]), CAYLEY)
    kinds = set()
    for nf in model.activated_neurons():
        f = nf.neuron.activation
        differs = f.num_pieces >= 2 and bool(np.any(np.abs(f.slopes) > 1e-12))
        assert bool(nf.pool) == differs, nf.key
        kinds.add((f.num_pieces >= 2, differs))
    assert (True, True) in kinds and (False, False) in kinds


def test_relu_single_neuron_cayley_lp_is_exact_hull():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1.0], [1.0]))
    model = build_cayley(neuron)
    obj = np.zeros(model.num_vars())
    obj[model.nf.y_var] = 1.0
    model.objective = obj
    for xfix, expect in ((0.25, 0.625), (-0.5, 0.25), (1.0, 1.0)):
        row = np.zeros(model.num_vars())
        row[model.nf.x_vars[0]] = 1.0
        sol = solve(with_rows(model.to_lp(), row, xfix, xfix))
        assert sol.objective == pytest.approx(expect, abs=1e-9)


def test_cayley_with_cutting_no_looser_than_bigm_single_neuron():
    rng = np.random.default_rng(52)
    for _ in range(100):
        neuron = random_neuron(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        cay = build_cayley(neuron)
        big = build_bigm(neuron)
        obj_dir = rng.normal(size=neuron.dim + 1)
        for model in (cay, big):
            obj = np.zeros(model.num_vars())
            for p, v in enumerate(model.nf.x_vars):
                obj[v] = obj_dir[p]
            obj[model.nf.y_var] = obj_dir[-1]
            model.objective = obj
        big_val = solve(big.to_lp()).objective
        # cut until converged (the full cutting loop)
        for _ in range(30):
            sol = solve(cay.to_lp())
            xin, yv, zv = cay.neuron_point(sol.x, (0, 0))
            zv = np.maximum(zv, 0)
            zv /= zv.sum()
            added = False
            for direction in ("upper", "lower"):
                cut = separate_pwl(neuron, neuron.box.clamp(xin), yv, zv, direction)
                if cut is not None and cut.violation(xin, yv, zv) > 1e-7:
                    added |= cay.add_cut(cay.nf, cut)
            if not added:
                break
        cay_val = solve(cay.to_lp()).objective
        assert cay_val <= big_val + 1e-7


def test_query_lp_eps_zero_is_point_evaluation():
    rng = np.random.default_rng(53)
    net = random_quantized_network(rng, n_in=2, hidden=(3,), n_out=2, bits=2)
    x0 = net.input_box.sample(rng)
    out = net.forward(x0)
    label = int(np.argmax(out))
    target = 1 - label
    q = VerificationQuery(net, x0, 0.0, label, target)
    for mode in (BIGM, CAYLEY):
        sol = solve(build_query_model(q, mode).to_lp())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(float(out[target] - out[label]),
                                              abs=1e-7)


def test_query_lp_upper_bounds_sampled_attacks():
    rng = np.random.default_rng(54)
    net = random_quantized_network(rng, n_in=3, hidden=(4,), n_out=2, bits=2)
    x0 = net.input_box.clamp(net.input_box.sample(rng) * 0.5)
    label = int(np.argmax(net.forward(x0)))
    q = VerificationQuery(net, x0, 0.1, label, 1 - label)
    region = q.input_region()
    c = attack_objective(net.output_dim, label, 1 - label)
    samples = region.sample(rng, 1000)
    truth = (net.forward(samples) @ c).max()
    for mode in (BIGM, CAYLEY):
        sol = solve(build_query_model(q, mode).to_lp())
        assert sol.objective >= truth - 1e-9


def test_forward_traces_feasible_in_query_models():
    rng = np.random.default_rng(55)
    for _ in range(5):
        net = random_quantized_network(rng, n_in=2, hidden=(3, 2), n_out=2,
                                       bits=2, activation="dorefa"
                                       if rng.random() < 0.5 else "relu")
        x0 = net.input_box.sample(rng)
        q = VerificationQuery(net, x0, 0.2, 0, 1)
        for mode in (BIGM, CAYLEY):
            model = build_query_model(q, mode)
            lp = model.to_lp()
            for _ in range(50):
                x = model.region.sample(rng)
                vals = model.trace_assignment(x)
                assert np.all(vals >= np.array(model.lower) - 1e-8)
                assert np.all(vals <= np.array(model.upper) + 1e-8)
                for coeffs, lo, hi in zip(lp.rows, lp.row_lower, lp.row_upper):
                    assert _row_holds(coeffs, lo, hi, vals)


def test_integral_z_recovers_graph():
    rng = np.random.default_rng(56)
    neuron = random_neuron(rng, 2, 3)
    verts = enumerate_cayley_vertices(neuron)
    for builder in (build_bigm, build_cayley):
        model = builder(neuron)
        for piece in range(neuron.activation.num_pieces):
            # fix z = e_piece and maximize/minimize y at a fixed x
            for i in np.flatnonzero(verts.pieces == piece)[:2]:
                x = verts.xs[i]
                n = model.num_vars()
                upper = np.array(model.upper)
                upper[[z for k, z in enumerate(model.nf.z_vars) if k != piece]] = 0.0
                rows = np.zeros((len(x), n))
                rows[np.arange(len(x)), model.nf.x_vars] = 1.0
                lp = with_rows(model.to_lp(upper), rows, x, x)
                obj = np.zeros(n)
                obj[model.nf.y_var] = 1.0
                lp.objective = obj
                hi = solve(lp)
                lp.sense = "min"
                lo = solve(lp)
                t = float(neuron.weight @ x + neuron.bias)
                expect = neuron.activation.piece_value(piece, t)
                assert hi.objective == pytest.approx(expect, abs=1e-7)
                assert lo.objective == pytest.approx(expect, abs=1e-7)


def test_empty_perturbation_region_rejected():
    net = Network((Layer.dense([[1.0]], [0.0], None),), BoxDomain([0.0], [1.0]))
    with pytest.raises(InputError):
        VerificationQuery(net, np.array([5.0]), 0.1, 0, None).input_region()


@pytest.mark.parametrize("eps, x0, message", [
    (float("nan"), [0.5], "eps"), (-0.1, [0.5], "eps"), (-np.inf, [0.5], "eps"),
    (0.1, [np.nan], "finite"), (0.1, [np.inf], "finite"), (0.1, [0.5], "xi")])
def test_query_rejects_bad_eps_and_anchor_when_built(eps, x0, message):
    # the "xi" case is a NaN threshold, under which every bound would read robust
    net = Network((Layer.dense([[1.0]], [0.0], None),), BoxDomain([0.0], [1.0]))
    xi = np.nan if message == "xi" else 0.0
    with pytest.raises(InputError, match=message):
        VerificationQuery(net, np.array(x0), eps, 0, None, xi)
    for inf in (np.inf, -np.inf):   # an infinite threshold stays allowed
        VerificationQuery(net, np.array([0.5]), 0.1, 0, None, inf)


def test_infinite_eps_covers_the_network_box():
    net = Network((Layer.dense([[1.0, -1.0]], [0.0], None),), BoxDomain([0.0, -1.0], [1.0, 2.0]))
    region = VerificationQuery(net, np.array([0.5, 0.5]), np.inf, 0, None).input_region()
    assert np.array_equal(region.lower, [0.0, -1.0]) and np.array_equal(region.upper, [1.0, 2.0])


def test_builders_clip_to_explicit_bounds():
    rng = np.random.default_rng(58)
    neuron = random_neuron(rng, 2, 4, s=0.0)
    f = neuron.activation
    L = float(f.breakpoints[1])
    U = float(f.breakpoints[-2])
    for builder in (build_bigm, build_cayley):
        model = builder(Neuron(neuron.weight, neuron.bias, clip(f, L, U), neuron.box))
        clipped = model.nf.neuron.activation
        assert clipped.lo == pytest.approx(L)
        assert clipped.hi == pytest.approx(U)
        assert clipped.num_pieces == f.num_pieces - 2


def test_query_model_takes_clipped_functions_from_the_bounds(monkeypatch):
    rng = np.random.default_rng(57)
    net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=3)
    q = VerificationQuery(net, np.array([0.1, -0.2, 0.3]), 0.2, 0, 2)
    dp = deeppoly_bounds(net, q.input_region())

    def fail(*args):
        raise AssertionError("QueryModel rebuilt an activation")

    monkeypatch.setattr(ActivationSpec, "_clip", fail)
    for mode in (BIGM, CAYLEY):
        model = build_query_model(q, mode, dp)
        for nf in model.activated_neurons():
            assert nf.neuron.activation is dp.relaxation[nf.layer].functions[nf.index]


def test_query_model_rejects_bounds_without_relaxation():
    rng = np.random.default_rng(57)
    net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=3)
    q = VerificationQuery(net, np.array([0.1, -0.2, 0.3]), 0.2, 0, 2)
    for mode in (BIGM, CAYLEY):
        with pytest.raises(InputError, match="deeppoly_bounds"):
            build_query_model(q, mode, interval_bounds(net, q.input_region()))


# a pre-activation interval inside one flat piece of each activation kind
FLAT_BIAS = {"dorefa": 5.0, "relu": -5.0, "tanh-style": 10.0}


def _pinned_case_query(kind: str, case: str, seed: int) -> VerificationQuery:
    """A 4-6-6-3 net of `kind` with pinned neurons: every input pinned by
    eps = 0 (anchor inside the box or on its edge), or a first layer of
    flat-stable neurons (small weights, a bias deep in a flat piece) whose
    constant outputs pin every input of the second layer."""
    spec = {"dorefa": ActivationSpec("dorefa", {"bits": 2, "lo": -1.0, "hi": 1.0}),
            "relu": ActivationSpec("relu", {}),
            "tanh-style": wide_tanh_query(0).network.layers[0].activations[0]}[kind]
    rng = np.random.default_rng(seed)
    w1, b1 = rng.normal(size=(6, 4)), rng.normal(size=6)
    if case == "flat layer":
        w1, b1 = 0.1 * w1, np.full(6, FLAT_BIAS[kind])
    net = Network((Layer.dense(w1, b1, spec),
                   Layer.dense(rng.normal(size=(6, 6)), rng.normal(size=6), spec),
                   Layer.dense(rng.normal(size=(3, 6)), rng.normal(size=3), None)),
                  BoxDomain(-np.ones(4), np.ones(4)))
    x0 = rng.choice([-1.0, 1.0], size=4) if case == "box edge" else rng.uniform(-0.8, 0.8, 4)
    eps = 0.3 if case == "flat layer" else 0.0
    return VerificationQuery(net, x0, eps, int(np.argmax(net.forward(x0))))


@pytest.mark.parametrize("case", ["eps 0", "box edge", "flat layer"])
@pytest.mark.parametrize("kind", ["dorefa", "relu", "tanh-style"])
def test_pinned_neurons_have_one_piece(kind, case):
    # the verifier's cut round skips one-piece neurons in place of pinned ones,
    # which covers the pinned ones only when the clip leaves them one piece
    seen = 0
    for seed in range(5):
        model = build_query_model(_pinned_case_query(kind, case, seed), CAYLEY)
        pinned = [nf for nf in model.activated_neurons() if is_pinned(nf.neuron)]
        # at eps = 0 every first-layer neuron; past a flat layer every second-layer one
        assert sum(nf.layer == (1 if case == "flat layer" else 0) for nf in pinned) == 6
        assert all(len(nf.z_vars) == 1 for nf in pinned)
        seen += len(pinned)
    assert seen > 0


def test_a_row_with_a_non_finite_entry_raises_when_written():
    # a model's LPs take its rows unchecked: `_write` checks each one
    from stairverify.errors import ParameterError
    from stairverify.separation import Cut

    model = build_query_model(recipe_query("relu", 0), CAYLEY)
    nf = max(model.activated_neurons(), key=lambda nf: len(nf.z_vars))
    before, pool = model.to_lp(), set(nf.pool)
    dim, k = nf.neuron.weight.size, len(nf.z_vars)
    for cut in (Cut(UPPER, np.full(dim, np.nan), np.zeros(k)),
                Cut(UPPER, np.zeros(dim), np.array([np.inf] + [0.0] * (k - 1))),
                Cut(UPPER, np.zeros(dim), np.zeros(k), const=-np.inf)):
        with pytest.raises(ParameterError, match="must be finite"):
            model.add_cut(nf, cut)
    after = model.to_lp()
    assert nf.pool == pool and after.stacked is before.stacked
    assert np.array_equal(after.rows, before.rows)
    assert np.array_equal(after.row_lower, before.row_lower)
    assert np.array_equal(after.row_upper, before.row_upper)
    assert solve(after).status == "optimal"
