"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and reported strict-improvement counts.
"""

import time

import numpy as np

from stairverify import pwl
from stairverify.formulations import BIGM, VerificationQuery, build_query_model
from stairverify.lp import solve
from stairverify.network import BoxDomain, Neuron
from stairverify.oracles import (brute_min_psi, enumerate_cayley_vertices,
                                 exhaustive_verify, sample_tu_check)
from stairverify.separation import (LOWER, THETA2_ZERO, UPPER, PsiInstance,
                                    _canonicalize, _oracle, minimize_psi_c,
                                    round_fractional, separate_pwl,
                                    separate_staircase)
from stairverify.verifier import VerifyConfig, verify

from helpers import (random_neuron, random_pwl, random_quantized_network,
                     random_query_point, scaled_dual_lp, separation_lp, tanh_staircase_pair)


def _report(name: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _emitted_cut(neuron, xhat, yhat, zhat, direction):
    f = neuron.activation
    if pwl.staircase_slope(f) is not None:
        return separate_staircase(neuron, xhat, yhat, zhat, direction)
    return separate_pwl(neuron, xhat, yhat, zhat, direction)


def _check_cut(neuron, cut, xhat, yhat, zhat, check_vertices):
    k = neuron.activation.num_pieces
    assert cut.violation(xhat, yhat, zhat) >= 1e-9, "cut not violated"
    if check_vertices:
        verts = enumerate_cayley_vertices(neuron)
        z = np.zeros((len(verts), k))
        z[np.arange(len(verts)), verts.pieces] = 1.0
        slack = min(cut.slack(verts.xs[i], verts.ys[i], z[i])
                    for i in range(len(verts)))
        assert slack >= -1e-7, f"cut invalid at a vertex, slack {slack}"


def test_criterion_1_and_2_oracle_equivalence_and_cut_quality():
    """Criteria 1 + 2: oracle vs simplex on 1000 staircase instances; every
    emitted cut (plus 500 general-PWL instances) is valid and violated."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    disagreements = 0
    cuts_checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        s = float(rng.choice([0.0, 1.0, 0.6, 2.0, -1.0]))
        neuron = random_neuron(rng, n, k, s=s)
        xhat, zhat = random_query_point(rng, neuron)
        canon = _canonicalize(neuron, xhat, zhat, UPPER)
        outcome = _oracle(canon)
        sol = solve(separation_lp(canon))
        if sol.status == "unbounded":
            if outcome.bounded:
                disagreements += 1
        else:
            if not outcome.bounded:
                disagreements += 1
            elif abs(outcome.lp_value - sol.objective) > 1e-6 * max(1.0, abs(sol.objective)):
                disagreements += 1
        # criterion 2 on the same instance: query just above the envelope so
        # a cut is usually emitted, then check it
        yhat = (outcome.envelope if outcome.bounded else 0.0) \
            + abs(rng.normal()) * 0.3 + 1e-4
        cut = separate_staircase(neuron, xhat, float(yhat), zhat, UPPER)
        if cut is not None:
            _check_cut(neuron, cut, xhat, float(yhat), zhat, check_vertices=n <= 4)
            cuts_checked += 1
    elapsed = time.time() - t0
    _report("criterion 1: separation-oracle equivalence (1000 instances)",
            disagreements == 0 and elapsed < 60.0,
            f"0 disagreements required, got {disagreements}; {elapsed:.1f}s")

    pwl_cuts = 0
    for trial in range(500):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        # two distinct nonzero slopes plus flats keep the decomposition at
        # m <= 2 staircases plus at most one jump part
        a, b = rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 2.0], size=2, replace=False)
        lo = rng.uniform(-2.0, 0.0, size=n)
        hi = lo + rng.uniform(0.3, 2.5, size=n)
        box = BoxDomain(lo, hi)
        w = rng.normal(size=n)
        w[np.abs(w) < 0.05] = 0.3
        bias = float(rng.normal())
        L, U = Neuron(w, bias, pwl.identity(0.0, 1.0), box).preact_range()
        f = random_pwl(rng, k, L, U, slope_pool=np.array([0.0, a, b]),
                       discont_prob=0.4)
        neuron = Neuron(w, bias, f, box)
        xhat, zhat = random_query_point(rng, neuron)
        direction = UPPER if rng.random() < 0.5 else LOWER
        yhat = float(rng.normal()) * 2.0
        cut = _emitted_cut(neuron, xhat, yhat, zhat, direction)
        if cut is not None:
            _check_cut(neuron, cut, xhat, yhat, zhat, check_vertices=True)
            pwl_cuts += 1
    _report("criterion 2: cut soundness + effectiveness",
            cuts_checked > 100 and pwl_cuts > 100,
            f"{cuts_checked} staircase cuts, {pwl_cuts} pwl cuts checked")


def test_criterion_3_psi_machinery():
    """Criterion 3: sweep + rounding equals the exhaustive subset minimum."""
    rng = np.random.default_rng(3033)
    t0 = time.time()
    worst = 0.0
    for trial in range(10000):
        k = int(rng.integers(1, 13))
        n = int(rng.integers(1, 7))
        inst = PsiInstance(rng.uniform(0.02, 2.0, size=n),
                           rng.uniform(0.0, 2.0, size=n),
                           rng.normal(size=k) * 2.0,
                           rng.dirichlet(np.ones(k)), THETA2_ZERO,
                           np.ones(k, dtype=bool))
        res = minimize_psi_c(inst)
        K, val = round_fractional(res, inst)
        _, brute = brute_min_psi(inst)
        worst = max(worst, abs(val - brute))
        if abs(val - brute) > 1e-9:
            _report("criterion 3: psi machinery", False,
                    f"trial {trial}: sweep {val} vs brute {brute}")
    _report("criterion 3: psi machinery (10000 instances)", worst <= 1e-9,
            f"max |sweep - brute| = {worst:.2e}; {time.time() - t0:.1f}s")


def test_criterion_4_integrality_and_tu():
    """Criterion 4: {0,+-1} optimal vertices of the scaled dual; sampled TU."""
    rng = np.random.default_rng(4044)
    bad = 0
    solved = 0
    while solved < 500:
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        s = float(rng.choice([1.0, 0.7, 2.0]))
        neuron = random_neuron(rng, n, k, s=s)
        verts = enumerate_cayley_vertices(neuron)
        lam = rng.dirichlet(np.ones(len(verts)))
        pts = verts.as_points(neuron.activation.num_pieces)
        combo = lam @ pts
        xhat = neuron.box.clamp(combo[:n])
        zhat = np.maximum(combo[n + 1:], 0.0)
        zhat /= zhat.sum()
        canon = _canonicalize(neuron, xhat, zhat, UPPER)
        sol = solve(scaled_dual_lp(canon))
        if sol.status != "optimal":
            continue
        solved += 1
        dist = np.abs(sol.x - np.round(sol.x))
        magnitude = np.abs(np.round(sol.x))
        if dist.max() > 1e-7 or magnitude.max() > 1.0 + 1e-7:
            bad += 1
    _report("criterion 4a: {0,+-1} vertices on 500 scaled-dual solves",
            bad == 0, f"{bad} non-sign-vector optima")

    trials_per = (4000, 3000, 3000)
    shapes = ((2, 2), (3, 3), (4, 3))
    ok_all = True
    for (n, k), trials in zip(shapes, trials_per):
        ok, witness = sample_tu_check(n, min(k, 3), trials=trials, seed=n * 10 + k)
        ok_all &= ok
    _report("criterion 4b: sampled total unimodularity (10^4 trials)",
            ok_all, "all determinants in {0,+-1}")


def test_criterion_5_oracle_complexity():
    """Criterion 5: near-linear scaling of the oracle in n and k."""
    rng = np.random.default_rng(5055)

    def one_call(n, k):
        lo = rng.uniform(-2.0, 0.0, size=n)
        hi = lo + rng.uniform(0.3, 2.0, size=n)
        w = rng.normal(size=n)
        w[np.abs(w) < 1e-3] = 0.5
        box = BoxDomain(lo, hi)
        probe = Neuron(w, 0.0, pwl.identity(0.0, 1.0), box)
        L, U = probe.preact_range()
        bp = np.linspace(L, U, k + 1)
        slopes = rng.choice([0.0, 1.0], size=k)
        f = pwl.PiecewiseLinear(bp, slopes, rng.normal(size=k))
        neuron = Neuron(w, 0.0, f, box)
        xhat = box.sample(rng)
        zhat = rng.dirichlet(np.ones(k))
        t0 = time.perf_counter()
        _oracle(_canonicalize(neuron, xhat, zhat, UPPER))
        return time.perf_counter() - t0

    def median_ratios(n, k, trials=100):
        """n-doubling and k-doubling ratios of the median call times. Every
        round times the base, n-doubled and k-doubled sizes once, so load
        from other processes falls on all three sizes alike."""
        times = [[one_call(n, k), one_call(2 * n, k), one_call(n, 2 * k)]
                 for _ in range(trials)]
        base, n2, k2 = np.median(times, axis=0)
        return n2 / base, k2 / base

    t_start = time.time()
    rn_lo, rk_lo = median_ratios(256, 256)
    rn_hi, rk_hi = median_ratios(2048, 2048)
    total = time.time() - t_start
    rn = max(rn_lo, rn_hi)
    rk = max(rk_lo, rk_hi)
    _report("criterion 5: oracle complexity scaling",
            rn <= 2.6 and rk <= 2.4 and total < 300.0,
            f"n-doubling x{rn:.2f} (<=2.6), k-doubling x{rk:.2f} (<=2.4), "
            f"benchmark {total:.0f}s")


def test_criterion_6_exact_verifier_ground_truth():
    """Criterion 6: both exact modes equal the exhaustive oracle on 200 nets."""
    rng = np.random.default_rng(6066)
    t0 = time.time()
    layouts = [((2,), 4), ((3,), 4), ((2, 2), 3), ((4,), 3), ((6,), 2),
               ((3, 2), 3), ((5,), 2), ((2, 3), 2)]
    worst = 0.0
    for trial in range(200):
        hidden, kmax = layouts[trial % len(layouts)]
        bits = 1 if kmax <= 2 else 2
        q0 = None
        net = random_quantized_network(
            rng, n_in=int(rng.integers(2, 4)), hidden=hidden, n_out=2,
            bits=bits, activation="dorefa" if rng.random() < 0.7 else "relu")
        x0 = net.input_box.clamp(rng.uniform(-0.7, 0.7, size=net.input_dim))
        label = int(np.argmax(net.forward(x0)))
        q = VerificationQuery(net, x0, float(rng.uniform(0.05, 0.2)), label,
                              1 - label)
        truth = exhaustive_verify(build_query_model(q, BIGM))
        for mode in ("bigm-exact", "cayley-exact"):
            rep = verify(q, VerifyConfig(mode=mode, timeout=60))
            got = rep.target_bounds[1 - label]
            worst = max(worst, abs(got - truth))
            if abs(got - truth) > 1e-6 * max(1.0, abs(truth)):
                _report("criterion 6: exact-verifier ground truth", False,
                        f"net {trial} {mode}: {got} vs {truth}")
    elapsed = time.time() - t0
    _report("criterion 6: exact-verifier ground truth (200 nets x 2 modes)",
            elapsed < 600.0, f"max deviation {worst:.2e}; {elapsed:.0f}s")


def test_criterion_7_relaxation_ordering():
    """Criterion 7: #verified(deeppoly) <= #verified(bigm-lp) <= #verified(cayley-lp)
    and cayley bound <= bigm bound per query."""
    rng = np.random.default_rng(7077)
    eps_values = (0.04, 0.08, 0.14)
    nets = []
    for _ in range(50):
        net = random_quantized_network(rng, n_in=int(rng.integers(3, 5)),
                                       hidden=(int(rng.integers(3, 6)),),
                                       n_out=2, bits=2)
        x0 = net.input_box.clamp(rng.uniform(-0.6, 0.6, size=net.input_dim))
        label = int(np.argmax(net.forward(x0)))
        nets.append((net, x0, label))
    strict = 0
    t0 = time.time()
    for eps in eps_values:
        counts = {"deeppoly": 0, "bigm-lp": 0, "cayley-lp": 0}
        for net, x0, label in nets:
            q = VerificationQuery(net, x0, eps, label, 1 - label)
            bounds = {}
            for mode in counts:
                rep = verify(q, VerifyConfig(mode=mode))
                bounds[mode] = rep.target_bounds.get(1 - label, np.inf)
                if rep.verdict == "robust":
                    counts[mode] += 1
            assert bounds["cayley-lp"] <= bounds["bigm-lp"] + 1e-7
            assert bounds["bigm-lp"] <= bounds["deeppoly"] + 1e-7
            if bounds["cayley-lp"] < bounds["bigm-lp"] - 1e-7:
                strict += 1
        ok = counts["deeppoly"] <= counts["bigm-lp"] <= counts["cayley-lp"]
        _report(f"criterion 7: ordering at eps={eps}", ok,
                f"verified dp/bigm/cayley = {counts['deeppoly']}/"
                f"{counts['bigm-lp']}/{counts['cayley-lp']}")
    print(f"[INFO] criterion 7: strict cayley-over-bigm improvements on "
          f"{strict} of {50 * len(eps_values)} queries; {time.time() - t0:.0f}s")


def test_criterion_8_decomposition():
    """Criterion 8: pointwise reconstruction on 500 PWLs; tanh fixture -> 2."""
    rng = np.random.default_rng(8088)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 9))
        f = random_pwl(rng, k, -2.0, 2.0,
                       discont_prob=0.5 if rng.random() < 0.5 else 0.0)
        f0, parts = pwl.decompose_staircase(f)
        ts = np.linspace(f.lo, f.hi, 1000)
        total = sum(p.batch(ts) for p in parts)
        if f0 is not None:
            total = total + f0.batch(ts)
        worst = max(worst, float(np.max(np.abs(total - f.batch(ts)))))
    tanh = tanh_staircase_pair()
    f0, parts = pwl.decompose_staircase(tanh)
    _report("criterion 8: staircase decomposition",
            worst <= 1e-9 and f0 is None and len(parts) == 2
            and tanh.num_pieces == 7,
            f"max reconstruction error {worst:.2e}; tanh fixture m={len(parts)}")


def test_criterion_9_bound_soundness():
    """Criterion 9: DeepPoly and interval bounds contain 10^4 samples per net."""
    from stairverify.bounds import deeppoly_bounds, interval_bounds

    rng = np.random.default_rng(9099)
    violations = 0
    for _ in range(100):
        layers = (int(rng.integers(2, 5)),) if rng.random() < 0.7 else \
            (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        net = random_quantized_network(
            rng, n_in=int(rng.integers(2, 4)), hidden=layers, n_out=2,
            bits=int(rng.integers(1, 3)),
            activation="dorefa" if rng.random() < 0.7 else "relu")
        iv = interval_bounds(net, net.input_box)
        dp = deeppoly_bounds(net, net.input_box)
        xs = net.input_box.sample(rng, 10000)
        vals = xs
        for li, layer in enumerate(net.layers):
            pre = vals @ layer.weights.T + layer.bias
            for j in range(layer.out_dim):
                for b in (iv, dp):
                    lo, hi = b.interval(li, j)
                    if pre[:, j].min() < lo - 1e-9 or pre[:, j].max() > hi + 1e-9:
                        violations += 1
            out = np.empty_like(pre)
            for j in range(layer.out_dim):
                spec = layer.activations[j]
                if spec is None:
                    out[:, j] = pre[:, j]
                else:
                    lo, hi = iv.interval(li, j)
                    f = spec.instantiate(lo, hi)
                    out[:, j] = f.batch(np.clip(pre[:, j], f.lo, f.hi))
            vals = out
    _report("criterion 9: bound soundness (100 nets x 10^4 samples)",
            violations == 0, f"{violations} violations")
