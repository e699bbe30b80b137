import numpy as np
import pytest

from stairverify import pwl
from stairverify.bounds import deeppoly_bounds, interval_bounds
from stairverify.errors import InputError
from stairverify.formulations import (BIGM, CAYLEY, VerificationQuery, attack_objective,
                                      build_bigm, build_cayley, build_query_model)
from stairverify.lp import EQUAL, GREATER, LESS, solve
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, Neuron
from stairverify.oracles import enumerate_cayley_vertices
from stairverify.separation import UPPER, separate_pwl

from helpers import random_neuron, random_quantized_network


def _row_holds(coeffs, sense, rhs, vals, tol=1e-8):
    lhs = float(coeffs @ vals)
    if sense == LESS:
        return lhs <= rhs + tol
    if sense == GREATER:
        return lhs >= rhs - tol
    return abs(lhs - rhs) <= tol


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
        for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
            assert _row_holds(coeffs, sense, rhs, vals, tol=1e-9)


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
        m_rows = {LESS: [], GREATER: []}   # piece i's two M rows, in piece order
        for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
            if coeffs[nf.y_var] == 1.0:
                m_rows[sense].append((coeffs, rhs))
        ref_low, ref_high = _corner_m_constants(f)
        dbar = neuron.dbar()
        for sense, ref in ((GREATER, ref_low), (LESS, ref_high)):
            assert len(m_rows[sense]) == f.num_pieces
            for i, (coeffs, rhs) in enumerate(m_rows[sense]):
                m = coeffs[nf.z_vars[i]]
                assert abs(m - ref[i]) <= 1e-12 * max(1.0, abs(ref[i])), (trial, sense, i)
                assert rhs == pytest.approx(ref[i] + dbar[i], rel=1e-12, abs=1e-12)


def test_bigm_constant_pieces_drop_m_rows():
    neuron = Neuron.aligned(np.array([1.0, -1.0]), 0.0,
                            lambda lo, hi: pwl.dorefa(2, lo, hi),
                            BoxDomain([-1, -1], [1, 1]))
    model = build_bigm(neuron)
    lp = model.to_lp()
    # simplex + two slabs + the single y = sum d_i z_i equality
    assert len(lp.rows) == 4
    eq_rows = [r for r in zip(lp.rows, lp.senses, lp.rhs)
               if r[1] == EQUAL and r[0][model.nf.y_var] != 0.0]
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
                for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
                    assert _row_holds(coeffs, sense, rhs, vals, tol=1e-9)


def test_cayley_alpha_zero_seed_caps_y():
    rng = np.random.default_rng(51)
    neuron = random_neuron(rng, 2, 3, s=1.0)
    model = build_cayley(neuron)
    f = neuron.activation
    dbar = neuron.dbar()
    # find the upper alpha=0 seed row: -y + sum c_i z_i >= 0 with
    # c_i = max over the slice of a_i w.x plus dbar_i
    from stairverify.separation import retrieve_cut

    seed = retrieve_cut(neuron, np.zeros(2), UPPER)
    found = False
    lp = model.to_lp()
    for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
        if coeffs[model.nf.y_var] == -1.0 and sense == GREATER:
            zc = coeffs[model.nf.z_vars]
            if np.allclose(zc, seed.zcoef) and np.all(coeffs[model.nf.x_vars] == 0.0):
                found = True
    assert found


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


def test_relu_single_neuron_cayley_lp_is_exact_hull():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1.0], [1.0]))
    model = build_cayley(neuron)
    obj = np.zeros(model.num_vars())
    obj[model.nf.y_var] = 1.0
    model.objective = obj
    for xfix, expect in ((0.25, 0.625), (-0.5, 0.25), (1.0, 1.0)):
        lp = model.to_lp()
        row = np.zeros(model.num_vars())
        row[model.nf.x_vars[0]] = 1.0
        lp.add_row(row, EQUAL, xfix)
        sol = solve(lp)
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
                for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
                    assert _row_holds(coeffs, sense, rhs, vals)


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
                lp = model.to_lp(upper)
                for p, v in enumerate(model.nf.x_vars):
                    row = np.zeros(n)
                    row[v] = 1.0
                    lp.add_row(row, EQUAL, float(x[p]))
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
    (0.1, [np.nan], "finite"), (0.1, [np.inf], "finite")])
def test_query_rejects_bad_eps_and_anchor_when_built(eps, x0, message):
    net = Network((Layer.dense([[1.0]], [0.0], None),), BoxDomain([0.0], [1.0]))
    with pytest.raises(InputError, match=message):
        VerificationQuery(net, np.array(x0), eps, 0, None)


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
        model = builder(Neuron(neuron.weight, neuron.bias, pwl.clip(f, L, U), neuron.box))
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

    monkeypatch.setattr(ActivationSpec, "instantiate", fail)
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
