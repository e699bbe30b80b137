import numpy as np
import pytest

from stairverify import pwl
from stairverify.errors import DomainError, FormulationError, InputError, ParameterError
from stairverify.lp import solve
from stairverify.network import ActivationSpec, BoxDomain, Neuron
from stairverify.oracles import (brute_min_psi, enumerate_cayley_vertices,
                                 hull_envelope)
from stairverify.separation import (LOWER, THETA2_ZERO, UPPER, PsiInstance, SweepResult,
                                    _candidates, _canonicalize, _check_candidate, _oracle,
                                    _reconstruct, minimize_psi_c, retrieve_cut,
                                    round_fractional, separate_pwl, separate_with_certificate,
                                    slab_extremes)

from helpers import random_neuron, random_pwl, random_query_point, separation_lp, wide_tanh_query


def build_psi(neuron, xhat, zhat, orientation=THETA2_ZERO, direction=UPPER):
    """Scaled ray-family psi data for a staircase neuron at (xhat, zhat)."""
    return _canonicalize(neuron, xhat, zhat, direction).instance(orientation, "ray")


def check_every_candidate(canon):
    """Run `_check_candidate` on each candidate the oracle compares."""
    for cand in _candidates(canon):
        _check_candidate(canon, cand, _reconstruct(canon, cand))


def make_psi(xbar, delta, zhat, hbar):
    return PsiInstance(np.asarray(delta, dtype=float), np.asarray(xbar, dtype=float),
                       np.asarray(hbar, dtype=float), np.asarray(zhat, dtype=float),
                       THETA2_ZERO, np.ones(len(zhat), dtype=bool))


# -- build_psi --------------------------------------------------------------


def test_build_psi_xbar_zero_at_bound():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1.0], [1.0]))
    inst = build_psi(neuron, np.array([1.0]), np.array([0.5, 0.5]))
    assert inst.xbar[0] == pytest.approx(0.0)


def test_build_psi_mixed_signs():
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    w = np.array([1.0, -1.0])
    f = pwl.relu(-1.0, 1.0)
    neuron = Neuron(w, 0.0, f, box)
    inst = build_psi(neuron, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert np.allclose(inst.delta, [1.0, 1.0])
    assert np.allclose(inst.xbar, [0.5, 0.5])


def test_build_psi_hbar_symbolic():
    # hbar_i = h_i - b - sum_{w>0} u|w| + sum_{w<0} l|w| for the first orientation
    box = BoxDomain([-1.0, 0.0], [2.0, 1.0])
    w = np.array([2.0, -3.0])
    b = 0.25
    probe = Neuron(w, b, pwl.identity(0.0, 1.0), box)
    L, U = probe.preact_range()
    f = pwl.PiecewiseLinear([L, 0.5 * (L + U), U], [0.0, 1.0], [0.0, -0.3])
    neuron = Neuron(w, b, f, box)
    inst = build_psi(neuron, np.array([0.0, 0.5]), np.array([0.3, 0.7]))
    expected = np.array([f.breakpoints[1], f.breakpoints[2]]) - b \
        - 2.0 * 2.0 + (-3.0 < 0) * 0.0 * 3.0
    assert np.allclose(inst.hbar, expected)


def test_build_psi_rejects_zero_weight():
    neuron = Neuron(np.zeros(2), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1, -1], [1, 1]))
    with pytest.raises(DomainError):
        build_psi(neuron, np.zeros(2), np.array([0.5, 0.5]))


def test_separate_rejects_bad_simplex_weights():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1.0], [1.0]))
    with pytest.raises(InputError):
        separate_pwl(neuron, np.array([0.0]), 0.0, np.array([0.7, 0.7]), UPPER)


def test_oracle_rejects_a_wrong_length_xhat():
    neuron = Neuron(np.array([1.0, -0.5]), 0.0, pwl.relu(-1.5, 1.5),
                    BoxDomain([-1.0, -1.0], [1.0, 1.0]))
    zhat = np.array([0.5, 0.5])
    for xhat in (np.array([0.5]), np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(InputError, match="xhat length"):
            separate_pwl(neuron, xhat, 0.0, zhat, UPPER)
        with pytest.raises(InputError, match="xhat length"):
            separate_with_certificate(neuron, xhat, 0.0, zhat, LOWER)


# -- psi minimization --------------------------------------------------------


def test_psi_nonnegative_instance_returns_zero():
    inst = make_psi(xbar=[1.0, 2.0], delta=[1.0, 1.0], zhat=[0.5, 0.5],
                    hbar=[0.3, 0.1])
    res = minimize_psi_c(inst)
    assert res.psi_star == pytest.approx(0.0)
    assert res.K.size == 0 and res.frac_piece == -1


def test_psi_single_piece_crafted_minimum():
    # psi_c(q) = -q + min(q, 0.5): minimum -0.5 at q = 1
    inst = make_psi(xbar=[0.5], delta=[1.0], zhat=[1.0], hbar=[-1.0])
    res = minimize_psi_c(inst)
    assert res.psi_star == pytest.approx(-0.5)
    K, val = round_fractional(res, inst)
    assert list(K) == [0] and val == pytest.approx(-0.5)


def test_psi_matches_subset_enumeration():
    rng = np.random.default_rng(30)
    for _ in range(300):
        k = int(rng.integers(1, 11))
        n = int(rng.integers(1, 7))
        inst = make_psi(xbar=rng.uniform(0, 2, size=n),
                        delta=rng.uniform(0.05, 2, size=n),
                        zhat=rng.dirichlet(np.ones(k)),
                        hbar=rng.normal(size=k) * 2)
        res = minimize_psi_c(inst)
        K, val = round_fractional(res, inst)
        _, brute = brute_min_psi(inst)
        assert val == pytest.approx(brute, abs=1e-9)
        assert (val < 0) == (brute < -1e-12) or abs(brute) <= 1e-12


def test_psi_masked_minimization():
    # the "grow" family restricts the sweep through `free`
    rng = np.random.default_rng(31)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        inst = make_psi(xbar=rng.uniform(0, 2, size=n),
                        delta=rng.uniform(0.05, 2, size=n),
                        zhat=rng.dirichlet(np.ones(k)),
                        hbar=rng.normal(size=k) * 2)
        allowed = rng.choice(k, size=max(1, k // 2), replace=False)
        inst.free = np.isin(np.arange(k), allowed)
        res = minimize_psi_c(inst)
        K, val = round_fractional(res, inst)
        assert set(K) <= set(int(a) for a in allowed)
        _, brute = brute_min_psi(inst)
        assert val == pytest.approx(brute, abs=1e-9)


def test_round_fractional_binary_passthrough():
    inst = make_psi(xbar=[1.0], delta=[1.0], zhat=[0.6, 0.4], hbar=[-2.0, 1.0])
    res = minimize_psi_c(inst)
    if res.frac_piece == -1:
        K, val = round_fractional(res, inst)
        assert val == pytest.approx(inst.psi(K))


def test_global_sweep_minimum_is_integral():
    # minima of the sweep objective sit where the knapsack cost steps up,
    # i.e. at full-item prefixes, so the full sweep never ends fractional
    rng = np.random.default_rng(32)
    for _ in range(500):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        inst = make_psi(xbar=rng.uniform(0, 2, size=n),
                        delta=rng.uniform(0.05, 2, size=n),
                        zhat=rng.dirichlet(np.ones(k)),
                        hbar=rng.normal(size=k) * 2)
        res = minimize_psi_c(inst)
        assert res.frac_piece == -1


def test_round_fractional_picks_cheaper_neighbor():
    # a sweep result with one piece taken by a fraction q: rounding must keep
    # a negative certificate and pick the better side
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(2000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        inst = make_psi(xbar=rng.uniform(0, 2, size=n),
                        delta=rng.uniform(0.05, 2, size=n),
                        zhat=rng.dirichlet(np.ones(k)),
                        hbar=rng.normal(size=k) * 2)
        K = np.flatnonzero(rng.random(k) < 0.5)
        frac = int(rng.integers(k))
        q = rng.uniform(0.05, 0.95)
        if frac in K:
            continue
        mass = inst.zhat[K].sum() + q * inst.zhat[frac]
        psi_c = (inst.zhat[K] @ inst.hbar[K] + q * inst.zhat[frac] * inst.hbar[frac]
                 + np.minimum(mass * inst.delta, inst.xbar).sum())
        if psi_c >= -1e-9:
            continue
        checked += 1
        _, val = round_fractional(SweepResult(psi_c, K, frac), inst)
        lo = inst.psi(K)
        hi = inst.psi(np.append(K, frac))
        assert val == pytest.approx(min(lo, hi))
        # concavity along the fractional coordinate: no worse than psi_c
        assert val <= psi_c + 1e-12 and val < 0
    assert checked >= 20


# -- oracle vs LP ------------------------------------------------------------


def test_oracle_matches_separation_lp():
    rng = np.random.default_rng(34)
    unbounded = bounded = 0
    for _ in range(250):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        s = float(rng.choice([0.0, 1.0, 0.6, 2.0]))
        neuron = random_neuron(rng, n, k, s=s)
        xhat, zhat = random_query_point(rng, neuron)
        canon = _canonicalize(neuron, xhat, zhat, UPPER)
        out = _oracle(canon)
        check_every_candidate(canon)
        sol = solve(separation_lp(canon))
        if sol.status == "unbounded":
            unbounded += 1
            assert not out.bounded
        else:
            bounded += 1
            assert out.bounded
            assert out.lp_value == pytest.approx(sol.objective,
                                                 abs=1e-6, rel=1e-6)
    assert unbounded > 20 and bounded > 20


def test_vertices_are_never_separated(monkeypatch):
    oracle = _oracle_only(monkeypatch)
    rng = np.random.default_rng(35)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        neuron = random_neuron(rng, n, k)
        verts = enumerate_cayley_vertices(neuron)
        idx = rng.integers(len(verts))
        z = np.zeros(k)
        z[verts.pieces[idx]] = 1.0
        for direction in (UPPER, LOWER):
            cut = oracle(neuron, verts.xs[idx], float(verts.ys[idx]), z, direction)
            assert cut is None


def test_hull_midpoints_are_never_separated(monkeypatch):
    oracle = _oracle_only(monkeypatch)
    rng = np.random.default_rng(36)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        neuron = random_neuron(rng, n, k)
        verts = enumerate_cayley_vertices(neuron)
        i, j = rng.choice(len(verts), size=2, replace=False)
        lam = rng.uniform(0.2, 0.8)
        x = lam * verts.xs[i] + (1 - lam) * verts.xs[j]
        y = lam * verts.ys[i] + (1 - lam) * verts.ys[j]
        z = np.zeros(k)
        z[verts.pieces[i]] += lam
        z[verts.pieces[j]] += 1 - lam
        for direction in (UPPER, LOWER):
            assert oracle(neuron, x, float(y), z, direction) is None


def test_relu_verdicts_match_membership_lp():
    rng = np.random.default_rng(37)
    agree = 0
    for _ in range(150):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, size=n)
        hi = lo + rng.uniform(0.5, 2.5, size=n)
        box = BoxDomain(lo, hi)
        w = rng.normal(size=n)
        w[np.abs(w) < 0.05] = 0.5
        neuron = Neuron.aligned(w, float(rng.normal()), pwl.relu, box)
        k = neuron.activation.num_pieces
        xhat, zhat = random_query_point(rng, neuron)
        verts = enumerate_cayley_vertices(neuron)
        env_up = hull_envelope(verts, xhat, zhat, k, "upper")
        yhat = (env_up if np.isfinite(env_up) else 0.0) + rng.normal() * 0.3
        cut = separate_pwl(neuron, xhat, float(yhat), zhat, UPPER)
        inside_true = np.isfinite(env_up) and yhat <= env_up + 1e-9
        if cut is None:
            assert inside_true or abs(yhat - env_up) <= 1e-6
        else:
            assert (not inside_true) or abs(yhat - env_up) <= 1e-6
        agree += 1
    assert agree == 150


def test_fast_path_duals_are_sign_vectors():
    rng = np.random.default_rng(38)
    for _ in range(100):
        neuron = random_neuron(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        xhat, zhat = random_query_point(rng, neuron)
        canon = _canonicalize(neuron, xhat, zhat, UPPER if rng.random() < 0.5 else LOWER)
        check_every_candidate(canon)
        dual = _oracle(canon).dual()
        dual.check_structure()
        comps = dual.components()
        assert np.all(np.isin(np.round(comps, 9), (-1.0, 0.0, 1.0)))


def _dense_dual_objective(canon, dual):
    """Scaled separation-dual objective of an expanded solution, and its term size."""
    zh = canon.zhat[:, None]
    terms = [zh * canon.m1 * dual.beta, -zh * canon.m2 * dual.gamma,
             zh[:, 0] * dual.theta1 * (canon.h[1:] - canon.b),
             -zh[:, 0] * dual.theta2 * (canon.h[:-1] - canon.b),
             canon.xhat * canon.absw * dual.alpha_scaled]
    return sum(t.sum() for t in terms), sum(np.abs(t).sum() for t in terms)


def test_grouped_value_matches_dense_dual_objective_on_wide_neurons():
    """`_evaluate`'s O(n + k) grouped value equals the dense objective of the
    beta, gamma, theta and alpha that `_reconstruct` expands, for every
    candidate family and for random (m, c) patterns mixing all alpha signs."""
    from stairverify.separation import _Candidate, _evaluate
    rng = np.random.default_rng(44)
    families = set()
    for n, k in ((256, 64), (256, 8), (128, 33), (16, 64), (64, 16)):
        for s in (1.0, -1.0, 2.0, -0.4, 0.0):
            neuron = random_neuron(rng, n, k, s=s)
            xhat, zhat = random_query_point(rng, neuron)
            for direction in (UPPER, LOWER):
                canon = _canonicalize(neuron, xhat, zhat, direction)
                m = np.where(canon.a1_mask, rng.integers(0, 3, size=k),
                             rng.integers(-1, 2, size=k)).astype(float)
                c = rng.integers(-1, 2, size=canon.active.size).astype(float)
                for cand in list(_candidates(canon)) + [
                        _Candidate("random", m, c, False, np.nan),
                        _Candidate("random_ray", np.clip(m, -1, 1), c, True, np.nan)]:
                    value = _evaluate(canon, cand)
                    dense, size = _dense_dual_objective(canon, _reconstruct(canon, cand))
                    assert value == pytest.approx(dense, rel=0, abs=1e-13 * max(1.0, size))
                    families.add(cand.family)
    assert families == {"ray_theta2", "ray_theta1", "grow", "drop", "mixed_zero",
                        "alpha_wbar", "zero", "random", "random_ray"}


def _pattern_candidate_loop(canon, alpha_is_wbar):
    """Per-piece reference for `_pattern_candidate`: (pattern m, psi value)."""
    h, b, zh = canon.h, canon.b, canon.zhat
    cplus, cminus = float(canon.cost_plus.sum()), float(canon.cost_minus.sum())
    m, total = np.zeros(canon.k), 0.0
    for i in range(canon.k):
        if not alpha_is_wbar:
            if canon.a1_mask[i]:
                opts = {0.0: h[i + 1] - b, 1.0: cplus}
            else:
                opts = {0.0: 0.0, 1.0: (b - h[i]) + cplus, -1.0: (h[i + 1] - b) + cminus}
        elif canon.a1_mask[i]:
            opts = {1.0: 0.0, 2.0: (b - h[i]) + cplus, 0.0: (h[i + 1] - b) + cminus}
        else:
            opts = {1.0: b - h[i], 0.0: cminus}
        m[i], cost = min(opts.items(), key=lambda kv: (kv[1], kv[0]))
        total += zh[i] * cost
    if alpha_is_wbar:
        total += float((canon.xhat * canon.absw) @ canon.wbar)
    return m, total


def test_pattern_candidate_matches_the_per_piece_loop():
    from stairverify.separation import _pattern_candidate
    rng = np.random.default_rng(45)
    for _ in range(300):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        neuron = random_neuron(rng, n, k, s=float(rng.choice([1.0, -1.0, 0.6, -0.4, 2.0])))
        xhat, zhat = random_query_point(rng, neuron)
        canon = _canonicalize(neuron, xhat, zhat, UPPER if rng.random() < 0.5 else LOWER)
        for alpha_is_wbar in (False, True):
            cand = _pattern_candidate(canon, alpha_is_wbar)
            m, total = _pattern_candidate_loop(canon, alpha_is_wbar)
            assert np.array_equal(cand.m, m)
            assert np.all(cand.c == float(alpha_is_wbar))
            assert cand.psi_value == pytest.approx(total, rel=1e-12, abs=1e-12)


# -- retrieve_cut ------------------------------------------------------------


def test_retrieve_cut_single_piece_identity():
    box = BoxDomain([-1.0, 0.0], [1.0, 2.0])
    w = np.array([1.5, -0.5])
    neuron = Neuron.aligned(w, 0.3, pwl.identity, box)
    a1 = float(neuron.activation.slopes[0])
    alpha = a1 * w
    cut = retrieve_cut(neuron, alpha, UPPER)
    assert cut.zcoef[0] == pytest.approx(float(neuron.dbar()[0]))
    assert np.allclose(cut.alpha, alpha)


def test_retrieve_cut_unit_square_walk():
    # objective (1,1) over the unit square cut into 4 parallel slices:
    # the box optimum sits in the top slice and the walk pins lower edges
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    w = np.array([1.0, 1.0])
    f = pwl.PiecewiseLinear(np.linspace(0.0, 2.0, 5), np.zeros(4), np.arange(4.0))
    neuron = Neuron(w, 0.0, f, box)
    cut = retrieve_cut(neuron, np.array([-1.0, -1.0]), UPPER)
    # c = (1,1): slice optima are 2, 0.5+? ... max over w.x = h_i pins:
    # slice 4 ([1.5, 2]) holds (1,1) -> 2 + d4; others pin w.x at upper edge
    expect_raw = [0.5, 1.0, 1.5, 2.0]
    assert np.allclose(cut.zcoef - neuron.dbar(), expect_raw)


def test_retrieve_cut_matches_slice_lp():
    # random neurons, then `_table_neuron`s (a pinned coordinate, a zero weight);
    # every third one also gets a ray cut: no activation part, a max in either direction
    from stairverify.lp import GREATER, LESS, LinearProgram
    rng = np.random.default_rng(40)
    for trial in range(200):
        if trial < 120:
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            neuron = random_neuron(rng, n, k, pwl_activation=rng.random() < 0.4)
        else:
            neuron = _table_neuron(rng, ("relu", "dorefa", "tanh-style", "3-slope")[trial % 4])
        alpha = rng.normal(size=neuron.dim)
        direction = UPPER if rng.random() < 0.5 else LOWER
        f = neuron.activation
        for ray in (False, True)[:1 + (trial % 3 == 2)]:
            cut = retrieve_cut(neuron, alpha, direction, y_coef=0.0 if ray else 1.0)
            dbar = np.zeros(f.num_pieces) if ray else neuron.dbar()
            for i in range(f.num_pieces):
                c_vec = (0.0 if ray else f.slopes[i]) * neuron.weight - alpha
                sense = "max" if ray or direction == UPPER else "min"
                lp = LinearProgram(sense, c_vec, lower=neuron.box.lower, upper=neuron.box.upper)
                lp.add_row(neuron.weight, GREATER, float(f.breakpoints[i]) - neuron.bias)
                lp.add_row(neuron.weight, LESS, float(f.breakpoints[i + 1]) - neuron.bias)
                ref = solve(lp)
                assert ref.status == "optimal"
                assert cut.zcoef[i] == pytest.approx(ref.objective + dbar[i], abs=1e-8)


@pytest.mark.parametrize("alpha, direction", [
    ([1.0, 0.5], "sideways"),       # read as LOWER by `Cut.slack`
    (0.5, UPPER),                   # a scalar: the cut's `key()` raised TypeError
    ([np.nan, 0.5], LOWER),         # NaN z-coefficients
    ([1.0, 0.5, 0.0], UPPER),       # a bare numpy broadcasting error
], ids=["direction", "scalar", "nan", "length"])
def test_retrieve_cut_rejects_bad_inputs(alpha, direction):
    neuron = Neuron.aligned(np.array([1.5, -0.5]), 0.3, pwl.identity,
                            BoxDomain([-1.0, 0.0], [1.0, 2.0]))
    with pytest.raises(InputError):
        retrieve_cut(neuron, alpha, direction)


def _table_neuron(rng, kind: str) -> Neuron:
    """A random 4-input neuron of `kind`; coordinate 1 may be pinned and
    coordinate 2 may have a zero weight."""
    lo = rng.uniform(-2.0, 0.0, size=4)
    hi = lo + rng.uniform(0.3, 2.5, size=4)
    if rng.random() < 0.5:
        hi[1] = lo[1]
    w = rng.normal(size=4)
    if rng.random() < 0.5:
        w[2] = 0.0
    factory = {
        "relu": ActivationSpec("relu", {}).instantiate,
        "dorefa": ActivationSpec("dorefa", {"bits": 2, "lo": -1.0, "hi": 1.0}).instantiate,
        "tanh-style": wide_tanh_query(0).network.layers[0].activations[0].instantiate,
        "3-slope": lambda L, U: random_pwl(rng, 5, L, U, slope_pool=[-1.0, 0.5, 2.0]),
    }[kind]
    return Neuron.aligned(w, float(rng.normal()), factory, BoxDomain(lo, hi))


@pytest.mark.parametrize("kind", ["relu", "dorefa", "tanh-style", "3-slope"])
def test_slab_extremes_match_retrieve_cut(kind):
    rng = np.random.default_rng(43)
    for _ in range(40):
        neuron = _table_neuron(rng, kind)
        slopes = [0.0] + pwl.distinct_slopes(neuron.activation.slopes) + [float(rng.normal())]
        lows, highs = slab_extremes(neuron, slopes)
        for a, low, high in zip(slopes, lows, highs):
            assert np.array_equal(slab_extremes(neuron, a)[1], high)
            for ext, direction in ((high, UPPER), (low, LOWER)):
                ref = retrieve_cut(neuron, a * neuron.weight, direction).zcoef
                assert np.all(np.abs(ext - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), \
                    (kind, a, direction)


def test_empty_slice_check_stays_on_retrieve_cut_only():
    # the box reaches w.x in [0, 1] only, so the slab of piece 0 ([-3, -1]) is empty
    from stairverify.formulations import build_bigm, build_cayley
    f = pwl.PiecewiseLinear([-3.0, -1.0, 2.0], [0.0, 1.0], [0.0, 1.0])
    neuron = Neuron(np.array([1.0]), 0.0, f, BoxDomain([0.0], [1.0]))
    with pytest.raises(FormulationError):
        retrieve_cut(neuron, np.zeros(1), UPPER)
    # both models build, the Cayley seeds from the unchecked slab table, and
    # their slab rows alone make the empty piece's z = 1 infeasible
    for model in (build_bigm(neuron), build_cayley(neuron)):
        lp = model.to_lp()
        assert solve(lp).status == "optimal"
        lp.lower[model.nf.z_vars[0]] = 1.0
        assert solve(lp).status == "infeasible"


# -- separate_pwl ------------------------------------------------------------


def test_separate_pwl_on_staircase_defers():
    rng = np.random.default_rng(41)
    neuron = random_neuron(rng, 2, 3, s=1.0)
    xhat, zhat = random_query_point(rng, neuron)
    y_in = separate_with_certificate(neuron, xhat, 0.0, zhat, UPPER)[1] - 0.1
    assert separate_pwl(neuron, xhat, y_in, zhat, UPPER) is None
    cut_a = separate_pwl(neuron, xhat, y_in + 0.2, zhat, UPPER)
    cut_b = separate_with_certificate(neuron, xhat, y_in + 0.2, zhat, UPPER)[0]
    if cut_a is None:
        assert cut_b is None
    else:
        assert np.allclose(cut_a.alpha, cut_b.alpha)


def test_near_staircase_is_a_pwl_of_two_components(monkeypatch):
    """Slopes 1 and 1.000009 do not lie in {0, s}: a declared staircase with
    them is rejected, and the same arrays declared as a pwl separate through
    two staircase components."""
    import stairverify.separation as sep

    params = {"breakpoints": [-1.0, 0.0, 1.0], "slopes": [1.0, 1.000009],
              "intercepts": [0.0, 0.0]}
    with pytest.raises(ParameterError, match="not a staircase"):
        ActivationSpec("staircase", params).instantiate(-1.0, 1.0)
    f = ActivationSpec("pwl", params).instantiate(-1.0, 1.0)
    neuron = Neuron(np.array([1.0]), 0.0, f, BoxDomain([-1.0], [1.0]))
    with pytest.raises(ParameterError, match="not a staircase"):
        _canonicalize(neuron, np.array([0.5]), np.array([0.5, 0.5]), UPPER)
    calls = []
    monkeypatch.setattr(sep, "_oracle", lambda canon: calls.append(1) or _oracle(canon))
    xhat, zhat = np.array([0.5]), np.array([0.5, 0.5])
    # the upper envelope at (xhat, zhat) is f(0) / 2 + f(1) / 2 = 0.5000045
    assert separate_pwl(neuron, xhat, 0.5, zhat, UPPER) is None
    cut = separate_pwl(neuron, xhat, 0.6, zhat, UPPER)
    assert cut is not None and cut.violation(xhat, 0.6, zhat) > 0
    for t in np.linspace(-1.0, 1.0, 41):  # valid on the lifted graph
        assert cut.slack(np.array([t]), f(t), np.eye(2)[f.piece_index(t)]) >= -1e-9
    assert len(calls) == 4
    assert separate_with_certificate(neuron, xhat, 0.5, zhat, UPPER)[1] == pytest.approx(0.5000045)


def test_separate_pwl_verdicts_and_validity():
    rng = np.random.default_rng(42)
    cuts = inside = 0
    for _ in range(150):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        neuron = random_neuron(rng, n, k, pwl_activation=True)
        xhat, zhat = random_query_point(rng, neuron)
        direction = UPPER if rng.random() < 0.5 else LOWER
        cert = separate_with_certificate(neuron, xhat, 0.0, zhat, direction)[1]
        verts = enumerate_cayley_vertices(neuron)
        if np.isfinite(cert):
            yhat = cert + rng.normal() * 0.4
        else:
            yhat = float(rng.normal())
        cut = separate_pwl(neuron, xhat, float(yhat), zhat, direction)
        sign = 1.0 if direction == UPPER else -1.0
        if cut is None:
            inside += 1
            # certificate is one-sided exact for the decomposition hull
            assert np.isfinite(cert) and sign * yhat <= sign * cert + 1e-6
        else:
            cuts += 1
            z = np.zeros((len(verts), k))
            z[np.arange(len(verts)), verts.pieces] = 1.0
            slack = min(cut.slack(verts.xs[i], verts.ys[i], z[i])
                        for i in range(len(verts)))
            assert slack >= -1e-7
            assert cut.violation(xhat, yhat, zhat) >= 1e-9
            # a violated valid cut proves the point is outside the true hull
            env = hull_envelope(verts, xhat, zhat, k, direction)
            outside_true = (not np.isfinite(env)) or sign * yhat > sign * env - 1e-6
            assert outside_true
    assert cuts >= 30 and inside >= 15


def test_lower_direction_mirrors_upper_on_negated_activation():
    rng = np.random.default_rng(43)
    for _ in range(50):
        neuron = random_neuron(rng, 2, 3)
        xhat, zhat = random_query_point(rng, neuron)
        yhat = float(rng.normal())
        lo_cut = separate_pwl(neuron, xhat, yhat, zhat, LOWER)
        f = neuron.activation
        neg = Neuron(neuron.weight, neuron.bias,
                     pwl.PiecewiseLinear(f.breakpoints, -f.slopes, -f.intercepts), neuron.box)
        up_cut = separate_pwl(neg, xhat, -yhat, zhat, UPPER)
        assert (lo_cut is None) == (up_cut is None)
        if lo_cut is not None and lo_cut.y_coef and up_cut.y_coef:
            assert np.allclose(lo_cut.alpha, -up_cut.alpha)
            assert np.allclose(lo_cut.zcoef, -up_cut.zcoef)


# -- vertex screen -------------------------------------------------------------


def _oracle_only(monkeypatch):
    """separate_pwl with the vertex screen switched off."""
    import stairverify.separation as sep
    monkeypatch.setattr(sep, "on_vertex_graph", lambda *a, **k: False)
    return sep.separate_pwl


def _point_at(neuron, x, t_target):
    """x moved along its largest-weight coordinate so that w.x + b = t_target."""
    j = int(np.argmax(np.abs(neuron.weight)))
    x = x.copy()
    rest = float(neuron.weight @ x + neuron.bias) - neuron.weight[j] * x[j]
    x[j] = np.clip((t_target - rest) / neuron.weight[j],
                   neuron.box.lower[j], neuron.box.upper[j])
    return x


def _screen_cases(rng, neuron):
    """(x, y, z, kind) at one-hot graph points and at 1e-12..1e-6 perturbations."""
    f = neuron.activation
    k = f.num_pieces
    x = neuron.box.sample(rng)
    if rng.random() < 0.4:
        x = _point_at(neuron, x, float(f.breakpoints[rng.integers(k + 1)]))
    t = float(neuron.weight @ x + neuron.bias)
    i = f.piece_index(t)
    if i > 0 and t == f.breakpoints[i] and rng.random() < 0.5:
        i -= 1  # closure side of a breakpoint
    z = np.zeros(k)
    z[i] = 1.0
    y = float(f.slopes[i] * t + f.intercepts[i])
    cases = [(x, y, z, "graph")]
    for delta in (1e-12, 1e-10, 1e-8, 1e-7, 1e-6):
        for sign in (1.0, -1.0):
            cases.append((x, y + sign * delta, z, "off graph"))
        edge = float(f.breakpoints[i + 1] if rng.random() < 0.5 else f.breakpoints[i])
        out = edge + (delta if edge == f.breakpoints[i + 1] else -delta)
        xs = _point_at(neuron, x, out)
        ts = float(neuron.weight @ xs + neuron.bias)
        cases.append((xs, float(f.slopes[i] * ts + f.intercepts[i]), z, "off slab"))
        if k > 1:
            zs = z * (1.0 - delta)
            zs[(i + 1) % k] = delta
            cases.append((x, y, zs, "off vertex"))
    return cases


@pytest.mark.parametrize("general", [False, True])
def test_vertex_screen_never_skips_a_cut(general, monkeypatch):
    rng = np.random.default_rng(91 if general else 90)
    from stairverify.separation import on_vertex_graph
    oracle = _oracle_only(monkeypatch)
    screened = {"graph": 0, "off graph": 0, "off slab": 0, "off vertex": 0}
    for _ in range(60):
        neuron = random_neuron(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                               pwl_activation=general)
        for x, y, z, kind in _screen_cases(rng, neuron):
            for direction in (UPPER, LOWER):
                for tol in (1e-7, 1e-6):
                    if on_vertex_graph(neuron, x, y, z, direction, tol):
                        screened[kind] += 1
                        assert oracle(neuron, x, y, z, direction, tol=tol) is None, kind
    # every exact graph point is screened, one-hot or not never wrongly
    assert screened["graph"] == 60 * 2 * 2
    assert screened["off vertex"] == 0
    assert screened["off graph"] > 0 and screened["off slab"] > 0


def test_vertex_screen_margin_is_half_the_tolerance():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0), BoxDomain([-1.0], [1.0]))
    x, z = np.array([0.5]), np.array([0.0, 1.0])
    from stairverify.separation import on_vertex_graph
    assert on_vertex_graph(neuron, x, 0.5 + 0.4e-6, z, UPPER, tol=1e-6)
    assert not on_vertex_graph(neuron, x, 0.5 + 0.6e-6, z, UPPER, tol=1e-6)
    assert on_vertex_graph(neuron, x, 0.5 - 1.0, z, UPPER, tol=1e-6)
    assert not on_vertex_graph(neuron, x, 0.5 - 1.0, z, LOWER, tol=1e-6)
    assert not on_vertex_graph(neuron, x, 0.5, np.array([1e-300, 1.0]), UPPER)
    assert not on_vertex_graph(neuron, x, 0.5, np.array([0.0, 1.0 - 1e-16]), UPPER)
    assert not on_vertex_graph(neuron, np.array([1.0 + 1e-15]), 1.0, z, UPPER)


def test_vertex_screen_leaves_invalid_inputs_to_the_oracle():
    flat = Neuron(np.zeros(2), 0.0, pwl.relu(-1.0, 1.0), BoxDomain([-1, -1], [1, 1]))
    with pytest.raises(DomainError):
        separate_pwl(flat, np.zeros(2), 0.0, np.array([1.0, 0.0]), UPPER)
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0), BoxDomain([-1.0], [1.0]))
    with pytest.raises(InputError):
        separate_pwl(neuron, np.array([0.5]), 0.5, np.array([0.0, 1.0]), "sideways")
    with pytest.raises(InputError):
        separate_pwl(neuron, np.array([0.5]), 0.5, np.array([0.0, 1.0, 0.0]), UPPER)


def test_pinned_neuron_on_its_graph_reaches_the_oracle_error():
    # the screen does not look at the neuron, so it passes this graph point;
    # the separation entry points still hand a pinned neuron to the oracle
    from stairverify.separation import on_vertex_graph, separate_with_certificate
    pinned = Neuron(np.array([1.0, 2.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([0.5, -0.1], [0.5, -0.1]))
    x, z = np.array([0.5, -0.1]), np.array([0.0, 1.0])
    assert on_vertex_graph(pinned, x, 0.3, z, UPPER)
    with pytest.raises(DomainError):
        separate_pwl(pinned, x, 0.3, z, UPPER)
    with pytest.raises(DomainError):
        separate_with_certificate(pinned, x, 0.3, z, LOWER)
