import itertools

import numpy as np
import pytest

from stairverify import bounds, formulations, pwl
from stairverify.errors import InputError
from stairverify.formulations import BIGM, VerificationQuery, build_query_model
from stairverify.lp import solve
from stairverify.network import BoxDomain, Layer, Network
from stairverify.oracles import exhaustive_verify
from stairverify.separation import LOWER, UPPER, is_pinned
from stairverify.verifier import (VerifyConfig, VerifyReport, _counterexample, _cut_round,
                                  _solve_with_cuts, verify)

from helpers import activation_spec, random_quantized_network, recipe_query, wide_tanh_query


def _tiny_query(rng, hidden=(3,), bits=2, eps=0.12, activation="dorefa",
                weight_scale=1.0):
    net = random_quantized_network(rng, n_in=int(rng.integers(2, 4)),
                                   hidden=hidden, n_out=2, bits=bits,
                                   activation=activation,
                                   weight_scale=weight_scale)
    x0 = net.input_box.clamp(rng.uniform(-0.7, 0.7, size=net.input_dim))
    label = int(np.argmax(net.forward(x0)))
    return VerificationQuery(net, x0, eps, label)


def test_eps_zero_verdict_matches_classification():
    rng = np.random.default_rng(60)
    for mode in ("deeppoly", "bigm-lp", "cayley-lp", "bigm-exact"):
        q = _tiny_query(rng, eps=0.0)
        report = verify(q, VerifyConfig(mode=mode, timeout=30))
        assert report.verdict == "robust"


def test_mode_validation():
    with pytest.raises(InputError):
        VerifyConfig(mode="magic")


@pytest.mark.parametrize("name, value", [
    ("timeout", float("nan")), ("timeout", 0.0), ("timeout", -1.0),
    ("cut_tol", float("nan")), ("cut_tol", 0.0),
    ("max_cut_rounds", -1), ("node_limit", 0)])
def test_config_rejects_limits_that_never_bind(name, value):
    # a NaN timeout would never expire and a NaN cut_tol would never add a cut
    with pytest.raises(InputError, match=name):
        VerifyConfig(**{name: value})


def test_single_neuron_exact_equals_best_slice():
    # one hidden neuron: the optimum is the max over its piece LPs
    rng = np.random.default_rng(62)
    q = _tiny_query(rng, hidden=(1,), bits=2, eps=0.2)
    model = build_query_model(q.with_target(q.targets()[0]), BIGM)
    per_piece = []
    options = model.pattern_prefilter()[0]
    for piece in options:
        sol = solve(model.pattern_lp((piece,)))
        if sol.status == "optimal":
            per_piece.append(sol.objective)
    report = verify(q.with_target(q.targets()[0]),
                    VerifyConfig(mode="bigm-exact", timeout=30))
    assert report.target_bounds[q.targets()[0]] == pytest.approx(max(per_piece),
                                                                 abs=1e-7)


def test_exact_modes_agree_with_exhaustive_oracle():
    rng = np.random.default_rng(63)
    for trial in range(12):
        q = _tiny_query(rng, hidden=(int(rng.integers(2, 4)),),
                        bits=int(rng.integers(1, 3)), eps=0.15,
                        activation="dorefa" if rng.random() < 0.6 else "relu")
        target = q.targets()[0]
        tq = q.with_target(target)
        truth = exhaustive_verify(build_query_model(tq, BIGM))
        for mode in ("bigm-exact", "cayley-exact"):
            report = verify(tq, VerifyConfig(mode=mode, timeout=60))
            assert report.target_bounds[target] == pytest.approx(truth, abs=1e-6)


def test_cutting_loop_monotone_and_deduplicated():
    rng = np.random.default_rng(64)
    q = _tiny_query(rng, hidden=(4,), bits=2, eps=0.25, weight_scale=1.5)
    target = q.targets()[0]
    model = build_query_model(q.with_target(target), "cayley")
    values = []
    pool_keys = set()
    for _ in range(12):
        sol = solve(model.to_lp())
        assert sol.status == "optimal"
        values.append(sol.objective)
        added = _cut_round(model, sol.x, 1e-6, VerifyReport("robust"))
        for nf in model.activated_neurons():
            for key in nf.pool:
                assert (nf.key, key) not in pool_keys or True
        new_keys = {(nf.key, key) for nf in model.activated_neurons()
                    for key in nf.pool}
        assert len(new_keys) == len(set(new_keys))
        pool_keys = new_keys
        if added == 0:
            break
    assert all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))


def test_relaxed_bounds_dominate_exact():
    rng = np.random.default_rng(65)
    for _ in range(8):
        q = _tiny_query(rng, hidden=(3,), bits=2, eps=0.15)
        target = q.targets()[0]
        tq = q.with_target(target)
        truth = exhaustive_verify(build_query_model(tq, BIGM))
        bounds = {}
        for mode in ("deeppoly", "bigm-lp", "cayley-lp"):
            rep = verify(tq, VerifyConfig(mode=mode))
            bounds[mode] = rep.target_bounds.get(target)
        for mode, bnd in bounds.items():
            if bnd is not None:
                assert bnd >= truth - 1e-7, mode
        if bounds["cayley-lp"] is not None and bounds["bigm-lp"] is not None:
            assert bounds["cayley-lp"] <= bounds["bigm-lp"] + 1e-7


def test_falsified_reports_carry_replayable_counterexamples():
    rng = np.random.default_rng(66)
    seen = 0
    for _ in range(25):
        q = _tiny_query(rng, hidden=(3,), bits=1, eps=0.6, weight_scale=2.0)
        for mode in ("bigm-exact", "cayley-lp"):
            rep = verify(q, VerifyConfig(mode=mode, timeout=30))
            if rep.verdict == "falsified":
                seen += 1
                assert rep.counterexample is not None
                out = q.network.forward(rep.counterexample)
                assert int(np.argmax(out)) != q.label
    assert seen >= 3


def test_exact_node_limit_reports_unknown_with_gap():
    rng = np.random.default_rng(67)
    q = _tiny_query(rng, hidden=(4,), bits=2, eps=0.3, weight_scale=1.5)
    rep = verify(q, VerifyConfig(mode="bigm-exact", node_limit=1, timeout=30))
    if rep.verdict == "unknown":
        assert "limit" in rep.diagnostic
    # with generous limits the verdict resolves
    rep2 = verify(q, VerifyConfig(mode="bigm-exact", timeout=60))
    assert rep2.verdict in ("robust", "falsified", "unknown")


def test_report_serialization_round_trip():
    rng = np.random.default_rng(68)
    q = _tiny_query(rng)
    rep = verify(q, VerifyConfig(mode="cayley-lp"))
    doc = rep.as_dict()
    assert doc["verdict"] == rep.verdict
    assert set(doc) >= {"verdict", "target_bounds", "cuts_added", "nodes",
                        "gap_percent", "solve_time", "separation_time"}


def test_timeout_is_honored():
    rng = np.random.default_rng(69)
    q = _tiny_query(rng, hidden=(4, 3), bits=2, eps=0.3, weight_scale=1.5)
    t0 = __import__("time").monotonic()
    rep = verify(q, VerifyConfig(mode="cayley-exact", timeout=0.02))
    elapsed = __import__("time").monotonic() - t0
    assert elapsed < 10.0
    if rep.verdict == "unknown":
        assert "timeout" in rep.diagnostic


def test_zero_weight_neuron_tolerated():
    from stairverify.network import ActivationSpec, BoxDomain, Layer, Network

    W1 = np.array([[0.0, 0.0], [1.0, -0.5]])
    net = Network((Layer.dense(W1, [0.2, 0.0], ActivationSpec("relu", {})),
                   Layer.dense([[1.0, 1.0], [-1.0, 0.5]], [0.0, 0.0], None)),
                  BoxDomain([-1, -1], [1, 1]))
    x0 = np.array([0.1, 0.2])
    label = int(np.argmax(net.forward(x0)))
    q = VerificationQuery(net, x0, 0.1, label)
    truth = exhaustive_verify(build_query_model(q.with_target(q.targets()[0]), BIGM))
    for mode in ("cayley-lp", "bigm-exact", "cayley-exact"):
        rep = verify(q, VerifyConfig(mode=mode, timeout=30))
        bound = rep.target_bounds.get(q.targets()[0])
        if bound is not None:
            assert bound >= truth - 1e-7


def test_pinned_neurons_are_skipped_and_oracle_errors_counted(monkeypatch):
    from stairverify import verifier
    from stairverify.errors import DomainError
    from stairverify.network import ActivationSpec, BoxDomain, Layer, Network

    W1 = np.array([[0.0, 0.0], [1.0, -0.5], [0.7, 0.4]])
    net = Network((Layer.dense(W1, [0.2, 0.0, 0.1], ActivationSpec("relu", {})),
                   Layer.dense([[1.0, 1.0, -0.3], [-1.0, 0.5, 0.2]], [0.0, 0.0], None)),
                  BoxDomain([-1, -1], [1, 1]))
    q = VerificationQuery(net, np.array([0.1, 0.2]), 0.5, 0)
    model = build_query_model(q.with_target(1), "cayley")
    # the pinned neuron has one piece, which the cut round skips
    shape = {nf.key: (is_pinned(nf.neuron), len(nf.z_vars)) for nf in model.activated_neurons()}
    assert shape == {(0, 0): (True, 1), (0, 1): (False, 2), (0, 2): (False, 2)}
    rep = verify(q, VerifyConfig(mode="cayley-lp"))
    assert rep.separation_failures == 0
    assert rep.as_dict()["separation_failures"] == 0

    calls = []

    def failing(neuron, *args, **kwargs):
        calls.append(neuron)
        raise DomainError("injected")

    monkeypatch.setattr(verifier, "separate_pwl", failing)
    monkeypatch.setattr(verifier, "on_vertex_graph", lambda *a, **k: False)
    sol = solve(model.to_lp())
    report = verifier.VerifyReport(verdict="robust")
    assert _cut_round(model, sol.x, 1e-6, report) == 0
    assert report.separation_failures == 4   # two free neurons, both directions
    assert all(neuron is not model.neurons[(0, 0)].neuron for neuron in calls)


@pytest.mark.parametrize("mode", ["cayley-lp", "cayley-exact"])
@pytest.mark.parametrize("recipe", ["relu", "tanh-style"])
def test_cut_rounds_check_only_neurons_with_pieces_to_choose_between(recipe, mode, monkeypatch):
    from stairverify import verifier
    q = recipe_query(recipe, 1, 0.1)
    model = build_query_model(q.with_target(q.targets()[0]), "cayley")
    assert any(len(nf.z_vars) == 1 for nf in model.activated_neurons())
    checked = []

    def spy(real):
        def wrapped(neuron, *args, **kwargs):
            checked.append(neuron.activation.num_pieces)
            return real(neuron, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(verifier, "on_vertex_graph", spy(verifier.on_vertex_graph))
    monkeypatch.setattr(verifier, "separate_pwl", spy(verifier.separate_pwl))
    verify(q, VerifyConfig(mode=mode, timeout=60))
    if mode == "cayley-exact":   # branch-and-bound separates nowhere
        assert checked == []
    else:
        assert checked and min(checked) > 1


def test_declared_pwl_activation_end_to_end():
    from stairverify.network import ActivationSpec, BoxDomain, Layer, Network

    spec = ActivationSpec("pwl", {"breakpoints": [-4.0, -1.0, 0.5, 4.0],
                                  "slopes": [0.5, 2.0, 0.0],
                                  "intercepts": [0.0, 1.5, 2.5]})
    net = Network((Layer.dense([[1.0, 0.8], [-0.7, 1.1]], [0.0, 0.1], spec),
                   Layer.dense([[1.0, -1.0], [-0.5, 0.3]], [0.0, 0.0], None)),
                  BoxDomain([-1, -1], [1, 1]))
    x0 = np.array([0.2, -0.1])
    label = int(np.argmax(net.forward(x0)))
    q = VerificationQuery(net, x0, 0.15, label, 1 - label)
    truth = exhaustive_verify(build_query_model(q, BIGM))
    for mode in ("bigm-exact", "cayley-exact"):
        rep = verify(q, VerifyConfig(mode=mode, timeout=60))
        assert rep.target_bounds[1 - label] == pytest.approx(truth, abs=1e-6)
    relax = verify(q, VerifyConfig(mode="cayley-lp"))
    assert relax.target_bounds[1 - label] >= truth - 1e-7


def test_negative_slope_staircase_end_to_end():
    from stairverify.network import ActivationSpec, BoxDomain, Layer, Network

    # decreasing staircase: slopes in {0, -1.5} on a declared wide domain
    spec = ActivationSpec("staircase", {
        "breakpoints": [-5.0, -1.0, 0.5, 5.0],
        "slopes": [0.0, -1.5, 0.0],
        "intercepts": [1.0, -0.5, -1.25]})
    net = Network((Layer.dense([[1.2, -0.4], [0.3, 1.0]], [0.1, -0.2], spec),
                   Layer.dense([[1.0, -0.6], [-0.8, 1.0]], [0.0, 0.0], None)),
                  BoxDomain([-1, -1], [1, 1]))
    x0 = np.array([0.3, -0.2])
    label = int(np.argmax(net.forward(x0)))
    q = VerificationQuery(net, x0, 0.2, label, 1 - label)
    truth = exhaustive_verify(build_query_model(q, BIGM))
    for mode in ("bigm-exact", "cayley-exact"):
        rep = verify(q, VerifyConfig(mode=mode, timeout=60))
        assert rep.target_bounds[1 - label] == pytest.approx(truth, abs=1e-6)
    relax = verify(q, VerifyConfig(mode="cayley-lp"))
    assert relax.target_bounds[1 - label] >= truth - 1e-7


def test_falling_staircases_end_to_end():
    # flat staircases whose levels fall, and whose levels rise and fall: every
    # mode answers, the exact modes reach the exhaustive optimum, and the
    # relaxed and DeepPoly bounds stay above it
    from stairverify.network import ActivationSpec

    bp = [-10.0, -0.5, 0.5, 10.0]
    specs = [ActivationSpec("staircase", {"breakpoints": bp, "slopes": [0.0] * 3,
                                          "intercepts": levels})
             for levels in ([1.0, 0.0, -1.0], [0.0, 1.0, -0.5])]
    searched = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = Network((Layer.dense(rng.normal(size=(4, 3)), rng.normal(size=4) * 0.3,
                                   specs[seed % 2]),
                       Layer.dense(rng.normal(size=(2, 4)), rng.normal(size=2) * 0.3, None)),
                      BoxDomain(-np.ones(3), np.ones(3)))
        x0 = rng.uniform(-0.5, 0.5, size=3)
        label = int(np.argmax(net.forward(x0)))
        q = VerificationQuery(net, x0, 0.3, label, 1 - label)
        truth = exhaustive_verify(build_query_model(q, BIGM))
        for mode in ("deeppoly", "bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact"):
            rep = verify(q, VerifyConfig(mode=mode, timeout=60))
            bound = rep.target_bounds[1 - label]
            if mode.endswith("exact"):
                assert rep.verdict == ("robust" if truth <= 1e-9 else "falsified"), (seed, mode)
                assert bound == pytest.approx(truth, rel=1e-9, abs=1e-9), (seed, mode)
                searched += rep.nodes > 1
            else:
                assert bound >= truth - 1e-7, (seed, mode)
    assert searched >= 10


@pytest.mark.parametrize("mode", ["bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact"])
def test_each_query_builds_its_bounds_once(mode, monkeypatch):
    rng = np.random.default_rng(73)
    net = random_quantized_network(rng, n_in=3, hidden=(3,), n_out=3)
    q = VerificationQuery(net, np.zeros(3), 0.05, int(np.argmax(net.forward(np.zeros(3)))),
                          xi=1e9)
    calls = []
    original = bounds.deeppoly_bounds

    def counted(*args):
        calls.append(args)
        return original(*args)

    for owner in (bounds, formulations):
        monkeypatch.setattr(owner, "deeppoly_bounds", counted)
    report = verify(q, VerifyConfig(mode=mode, timeout=60))
    assert report.verdict == "robust" and len(report.target_bounds) == 2
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["bigm-lp", "cayley-lp"])
def test_relaxed_timeout_reports_the_limit(mode):
    rng = np.random.default_rng(74)
    net = random_quantized_network(rng, n_in=3, hidden=(4,), n_out=4)
    q = VerificationQuery(net, np.zeros(3), 0.3, 0, xi=1e9)
    assert verify(q, VerifyConfig(mode=mode)).verdict == "robust"
    report = verify(q, VerifyConfig(mode=mode, timeout=1e-6))
    assert report.verdict == "unknown"
    assert report.diagnostic == "timeout limit reached"


@pytest.mark.parametrize("mode, message", [
    ("bigm-lp", "relaxation bound above threshold; no counterexample found"),
    ("cayley-lp", "relaxation bound above threshold; no counterexample found"),
    ("bigm-exact", "optimum above threshold but replay failed"),
    ("cayley-exact", "optimum above threshold but replay failed")])
def test_unknown_without_counterexample_names_the_bound(mode, message, monkeypatch):
    from stairverify import verifier
    rng = np.random.default_rng(74)
    net = random_quantized_network(rng, n_in=3, hidden=(4,), n_out=4)
    q = VerificationQuery(net, np.zeros(3), 0.3, 0, xi=-1e9)
    monkeypatch.setattr(verifier, "_counterexample", lambda *args: None)
    report = verify(q, VerifyConfig(mode=mode))
    assert (report.verdict, report.diagnostic) == ("unknown", message)


def test_cut_loop_stops_at_the_deadline():
    rng = np.random.default_rng(64)
    q = _tiny_query(rng, hidden=(4,), bits=2, eps=0.25, weight_scale=1.5)
    tq = q.with_target(q.targets()[0])
    late, full = VerifyReport("robust"), VerifyReport("robust")
    value, sol, diag = _solve_with_cuts(build_query_model(tq, "cayley"), VerifyConfig(), late,
                                        deadline=-np.inf)
    assert (diag, late.rounds) == ("timeout limit reached", 0) and sol.x is not None
    tight, _, diag = _solve_with_cuts(build_query_model(tq, "cayley"), VerifyConfig(), full,
                                      deadline=np.inf)
    assert diag == "" and full.rounds > 0 and tight < value - 1e-6


def _counter_query(kind: str) -> VerificationQuery:
    """An all-DoReFa query (flat staircases) or a ReLU one, robust through xi."""
    if kind == "relu":
        q = recipe_query("relu", 7, 0.05)
        return VerificationQuery(q.network, q.x0, q.eps, q.label, xi=1e9)
    rng = np.random.default_rng(75)
    net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=3, weight_scale=1.5)
    return VerificationQuery(net, np.zeros(3), 0.25, int(np.argmax(net.forward(np.zeros(3)))),
                             xi=1e9)


@pytest.mark.parametrize("mode, kind", [
    pytest.param(mode, kind, id=mode if kind == "dorefa" else f"{mode}-{kind}")
    for kind in ("dorefa", "relu")
    for mode in ("bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact")])
def test_report_counters_agree(mode, kind, monkeypatch):
    from stairverify import verifier
    q = _counter_query(kind)
    sols, warm_given, oracle_calls, adding_rounds, points, doubled = [], [], [], [], [], []
    screens = []
    solve_, separate_, cut_round_ = verifier.solve, verifier.separate_pwl, verifier._cut_round
    screen_ = verifier.on_vertex_graph

    def spy_solve(lp, warm=None, *args):
        sols.append(solve_(lp, warm, *args))
        warm_given.append(warm is not None)
        return sols[-1]

    def spy_separate(*args, **kwargs):
        oracle_calls.append(args)
        return separate_(*args, **kwargs)

    def spy_screen(*args):
        screens.append(screen_(*args))
        return screens[-1]

    def spy_cut_round(model, *args):
        # a flat staircase is checked once per point, any other neuron with
        # more than one piece twice, a one-piece neuron never
        counts = [1 if pwl.staircase_slope(nf.neuron.activation) == 0.0 else 2
                  for nf in model.activated_neurons() if len(nf.z_vars) > 1]
        points.append(sum(counts))
        doubled.append(2 in counts)
        added = cut_round_(model, *args)
        adding_rounds.extend([added] if added else [])
        return added

    monkeypatch.setattr(verifier, "solve", spy_solve)
    monkeypatch.setattr(verifier, "separate_pwl", spy_separate)
    monkeypatch.setattr(verifier, "on_vertex_graph", spy_screen)
    monkeypatch.setattr(verifier, "_cut_round", spy_cut_round)
    report = verify(q, VerifyConfig(mode=mode, timeout=60))
    assert report.verdict == "robust"
    assert report.lp_phase2_iterations == sum(s.iterations for s in sols)
    assert report.lp_dual_iterations == sum(s.dual_iterations for s in sols)
    assert report.warm_solves == sum(s.warm_used for s in sols)
    assert report.lp_refactorizations == sum(s.refactorizations for s in sols)
    # the slack basis and an unchanged warm basis start without an inversion
    assert report.lp_refactorizations < 2 * len(sols)
    # every solve after the first of a target or node starts warm, and is taken
    assert report.warm_solves == sum(warm_given) > 0 or mode == "bigm-lp"
    assert report.separation_calls - report.separation_screened == len(oracle_calls)
    assert report.separation_calls == sum(points)
    # the ReLU query reaches the count of 2 per point (a sloped neuron); only
    # cayley-lp runs cut rounds
    assert any(doubled) == (kind == "relu" and mode == "cayley-lp")
    assert report.separation_calls == len(screens)
    assert report.separation_screened == sum(screens)
    # the all-DoReFa query has points on a vertex's graph; the ReLU query need not
    if kind == "dorefa":
        assert (report.separation_screened > 0) == (mode == "cayley-lp")
    # a round counts when it adds cuts, and its LP is re-solved warm
    assert report.rounds == len(adding_rounds)
    assert report.cuts_added == sum(adding_rounds)
    if mode == "cayley-lp":
        assert report.warm_solves >= report.rounds > 0
    else:
        assert report.rounds == report.cuts_added == report.separation_calls == 0
    doc = report.as_dict()
    for key in ("lp_phase2_iterations", "lp_dual_iterations",
                "warm_solves", "lp_refactorizations", "separation_calls",
                "separation_screened"):
        assert doc[key] == getattr(report, key)


# (network seed, anchor, label) of exact-bnb benchmark queries whose exact
# optimum did not replay to a label flip before the breakpoint repair
BREAKPOINT_QUERIES = {
    # the optimum sits on a breakpoint where the network takes the next piece
    # (seed-1 item 368)
    "upper edge": (9, [-0.19720264479103006, 0.2349863331638753, -0.1046941740848592,
                       -0.5877786438832409, 0.06660058535860947], 2),
    # the branch LP puts a pre-activation a rounding error below its slab
    # (seed-1 item 87)
    "lower edge": (11, [-0.5072114215411193, 0.5202306060432432, 0.542082957379637,
                        -0.016605341983228383, -0.5358687162200043], 2),
    # only the lower-edge margin lifts the recorded cayley-exact optimum into its
    # slab; the bigm-exact optimum replays directly (seed-101 item 54)
    "lower margin": (5, [0.36664354928418497, -0.06567838251315428, -0.1417965210565873,
                         -0.5377315753371203, 0.23779373187575725], 1),
}


def _breakpoint_query(case="upper edge"):
    seed, x0, label = BREAKPOINT_QUERIES[case]
    net = random_quantized_network(np.random.default_rng(seed), n_in=5, hidden=(6, 6), n_out=3)
    return VerificationQuery(net, np.array(x0), 0.02, label)


# the input and piece pattern of exact optima that branch-and-bound has
# ended on, whose input does not flip the label: in the "lower edge" query
# (both exact modes) a pre-activation sits a rounding error below its slab;
# in the "lower margin" query (cayley-exact) only the lower-edge margin
# lifts the input back into its slab
RECORDED_OPTIMA = {
    "lower edge": ([-0.5060168736490511, 0.5002306060432432, 0.522082957379637,
                    -0.03660534198322839, -0.5376021053119766],
                   [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    "lower margin": ([0.3466435492841838, -0.045678382513154675, -0.1617965210565873,
                      -0.5285616353602117, 0.25206940981218245],
                     [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]),
}


def _pattern_point(model, x_input, pattern):
    """A model point with input `x_input` and one-hot z on `pattern`."""
    point = np.zeros(model.num_vars())
    point[:len(x_input)] = x_input
    for nf, piece in zip(model.activated_neurons(), pattern):
        point[nf.z_vars[piece]] = 1.0
    return point


@pytest.mark.parametrize("case", ["lower edge", "upper edge"])
@pytest.mark.parametrize("mode", ["bigm-exact", "cayley-exact"])
def test_breakpoint_optimum_is_repaired_into_a_counterexample(mode, case, monkeypatch):
    _check_repair(mode, case, monkeypatch)


def test_lower_edge_margin_repairs_a_cayley_optimum(monkeypatch):
    _check_repair("cayley-exact", "lower margin", monkeypatch)


def _check_repair(mode, case, monkeypatch):
    q = _breakpoint_query(case)
    margins = []
    pattern_lp = formulations.QueryModel.pattern_lp

    def spy(self, pattern, margin=0.0):
        margins.append(margin)
        return pattern_lp(self, pattern, margin)

    monkeypatch.setattr(formulations.QueryModel, "pattern_lp", spy)
    config = VerifyConfig(mode=mode, timeout=60)
    report = verify(q, config)
    assert report.verdict == "falsified", report.diagnostic
    x = report.counterexample
    if case in RECORDED_OPTIMA:
        # the search may end on another optimal vertex, whose input flips the
        # label: repair the recorded optimum directly
        margins.clear()
        target = list(report.target_bounds)[-1]   # the target above the threshold
        model = build_query_model(q.with_target(target), config.formulation)
        x = _counterexample(model, _pattern_point(model, *RECORDED_OPTIMA[case]),
                            VerifyReport(verdict="robust"))
    assert margins and margins[0] == 1e-9          # the optimum's own input failed
    assert np.all(np.abs(x - q.x0) <= q.eps + 1e-12)
    assert int(np.argmax(q.network.forward(x))) != q.label
    model = build_query_model(q.with_target(0), BIGM)
    assert report.target_bounds[0] == pytest.approx(exhaustive_verify(model), abs=1e-7)


def test_pattern_lp_margin_pulls_interior_slab_edges_in():
    q = _breakpoint_query()
    model = build_query_model(q.with_target(0), BIGM)
    neurons = model.activated_neurons()
    split = [nf.neuron.activation.num_pieces > 1 for nf in neurons]
    assert any(split)
    for side in ("first", "last"):
        pattern = [0 if side == "first" else nf.neuron.activation.num_pieces - 1
                   for nf in neurons]
        plain, pulled = model.pattern_lp(pattern), model.pattern_lp(pattern, 1e-5)
        assert len(plain.rows) == len(pulled.rows)
        moved = []
        for c0, s0, r0, c1, s1, r1 in zip(plain.rows, plain.senses, plain.rhs,
                                          pulled.rows, pulled.senses, pulled.rhs):
            assert np.array_equal(c0, c1) and s0 == s1
            if r0 != r1:
                inward = -1.0 if s0 == "<=" else 1.0
                assert r1 == pytest.approx(r0 + inward * 1e-5 * max(1.0, abs(r0)), abs=1e-15)
                moved.append(s0)
        # the first piece keeps its lower edge, the last its upper edge
        assert moved == ["<=" if side == "first" else ">="] * sum(split)


def test_margin_ladder_stops_at_an_infeasible_pattern_lp(monkeypatch):
    # a larger margin only shrinks the slabs, so an infeasible first pattern
    # LP ends the ladder
    q = _breakpoint_query()
    model = build_query_model(q.with_target(0), BIGM)
    pattern = next(p for p in itertools.product(*model.pattern_prefilter())
                   if solve(model.pattern_lp(p)).status == "infeasible")
    margins = []
    pattern_lp = formulations.QueryModel.pattern_lp

    def spy(self, pattern, margin=0.0):
        margins.append(margin)
        return pattern_lp(self, pattern, margin)

    monkeypatch.setattr(formulations.QueryModel, "pattern_lp", spy)
    # the anchor keeps its label, so the ladder runs
    x = _counterexample(model, _pattern_point(model, q.x0, pattern), VerifyReport("robust"))
    assert margins == [1e-9]
    assert x is None or int(np.argmax(q.network.forward(x))) != q.label


def _three_label_query():
    rng = np.random.default_rng(75)
    net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=3, weight_scale=1.5)
    return VerificationQuery(net, np.zeros(3), 0.25, int(np.argmax(net.forward(np.zeros(3)))),
                             xi=1e9)


@pytest.mark.parametrize("mode", ["bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact"])
def test_one_model_per_query(mode, monkeypatch):
    built = []
    init = formulations.QueryModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(formulations.QueryModel, "__init__", counted)
    report = verify(_three_label_query(), VerifyConfig(mode=mode, timeout=60))
    assert report.verdict == "robust" and len(report.target_bounds) == 2
    assert len(built) == 1


@pytest.mark.parametrize("mode", ["cayley-lp", "cayley-exact"])
def test_cuts_carry_over_to_the_next_target(mode, monkeypatch):
    from stairverify import verifier
    name = "_branch_and_bound" if mode.endswith("exact") else "_solve_with_cuts"
    bound_target = getattr(verifier, name)
    entry, exit_, calls = [], [], []

    def pooled(model):
        return {(nf.key, key) for nf in model.activated_neurons() for key in nf.pool}

    def spy(model, *args):
        entry.append(pooled(model))
        calls.append((args, bound_target(model, *args)))
        exit_.append(pooled(model))
        return calls[-1][1]

    monkeypatch.setattr(verifier, name, spy)
    report = verify(_three_label_query(), VerifyConfig(mode=mode, timeout=60))
    assert report.verdict == "robust" and len(calls) == 2
    assert exit_[0] == entry[1]
    if mode == "cayley-exact":
        # branch-and-bound adds no cut: the pool holds the seeds alone
        assert exit_ == entry and entry[0] == entry[1]
    else:
        assert exit_[0] > entry[0]
        # the second target starts from the first target's last LP solution
        first_sol, second_args = calls[0][1][1], calls[1][0]
        assert second_args[-1] is first_sol and report.warm_solves >= report.rounds + 1


# (network seed, anchor, label) of relaxed-lp benchmark queries whose LP
# optimum does not replay to a label flip, while its piece pattern does
RELAXED_REPAIR_QUERIES = {
    # seed-1 item 325
    "net 1": (1, [0.17184232262531263, -0.26797586497633047, 0.18343461724181576,
                  0.3565514840263665, 0.15549897305731342], 1),
    # seed-101 item 247
    "net 5": (5, [0.39170934331052176, -0.0499596907598705, -0.17797552657637633,
                  -0.5274898423384413, 0.2591275865367304], 1),
}


@pytest.mark.parametrize("case", sorted(RELAXED_REPAIR_QUERIES))
@pytest.mark.parametrize("mode", ["bigm-lp", "cayley-lp"])
def test_relaxed_optimum_is_repaired_into_a_counterexample(mode, case, monkeypatch):
    seed, x0, label = RELAXED_REPAIR_QUERIES[case]
    net = random_quantized_network(np.random.default_rng(seed), n_in=5, hidden=(6, 6), n_out=3)
    q = VerificationQuery(net, np.array(x0), 0.02, label)
    margins = []
    pattern_lp = formulations.QueryModel.pattern_lp

    def spy(self, pattern, margin=0.0):
        margins.append(margin)
        return pattern_lp(self, pattern, margin)

    monkeypatch.setattr(formulations.QueryModel, "pattern_lp", spy)
    report = verify(q, VerifyConfig(mode=mode))
    assert report.verdict == "falsified", report.diagnostic
    assert margins and margins[0] == 1e-9          # the LP point's own input failed
    x = report.counterexample
    assert np.all(np.abs(x - q.x0) <= q.eps + 1e-12)
    assert int(np.argmax(q.network.forward(x))) != q.label


@pytest.mark.parametrize("mode", ["bigm-exact", "cayley-exact"])
def test_limit_bounds_stay_above_the_exact_optimum(mode):
    limited = 0
    for seed in range(60, 90):
        q = _tiny_query(np.random.default_rng(seed), hidden=(4,), eps=0.3, weight_scale=1.5)
        target = q.targets()[0]
        truth = exhaustive_verify(build_query_model(q.with_target(target), BIGM))
        for node_limit in (1, 2, 3):
            rep = verify(q, VerifyConfig(mode=mode, node_limit=node_limit, timeout=60))
            if "limit" not in rep.diagnostic:
                continue
            limited += 1
            assert rep.target_bounds[target] >= truth - 1e-7, (seed, node_limit)
            if rep.verdict == "robust":
                assert truth <= q.xi + 1e-9
    assert limited >= 30


# -- the forward-pass start ------------------------------------------------------


def _start_queries():
    """Untargeted queries on small quantized nets, every target bounded (xi huge)."""
    for seed in range(90, 96):
        rng = np.random.default_rng(seed)
        net = random_quantized_network(rng, n_in=3, hidden=(4, 3), n_out=3, weight_scale=1.5)
        x0 = rng.uniform(-0.5, 0.5, size=3)
        yield VerificationQuery(net, x0, 0.25, int(np.argmax(net.forward(x0))), xi=1e9)


def _meets_every_row(lp, x, tol):
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        return False
    for coeffs, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
        lhs = float(coeffs @ x)
        if (lhs > rhs + tol) if sense == "<=" else \
                (lhs < rhs - tol) if sense == ">=" else abs(lhs - rhs) > tol:
            return False
    return True


@pytest.mark.parametrize("mode", ["bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact"])
def test_first_solve_and_every_root_skip_phase_one(mode, monkeypatch):
    from stairverify import verifier
    solve_, bnb = verifier.solve, verifier._branch_and_bound
    solves, roots = [], []   # every (warm, solution); per target the root's start and solve

    def spy(lp, warm=None, *args):
        solves.append((warm, solve_(lp, warm, *args)))
        return solves[-1][1]

    def spy_bnb(model, config, deadline, report, start):
        first = len(solves)
        out = bnb(model, config, deadline, report, start)
        assert out[3] is solves[first][1]   # the root solution it returns
        roots.append((start, solves[first]))
        return out

    monkeypatch.setattr(verifier, "solve", spy)
    monkeypatch.setattr(verifier, "_branch_and_bound", spy_bnb)
    for q in _start_queries():
        solves.clear()
        roots.clear()
        report = verify(q, VerifyConfig(mode=mode, timeout=60))
        assert report.verdict == "robust" and len(report.target_bounds) == 2
        # the first solve of the query starts at the forward point, and no other
        assert solves[0][0].basis == []
        assert sum(warm is not None and warm.basis == [] for warm, _ in solves) == 1
        starts = [solves[0]]
        if mode.endswith("exact"):
            # the first root is that solve, and every later root starts from
            # the previous root's solution
            assert len(roots) == 2 and roots[0][1] is solves[0]
            assert roots[1][0] is roots[0][1][1]
            starts = [pair for start, pair in roots if pair[0] is start]
            assert len(starts) == 2
        for _, sol in starts:
            # a feasible start: the dual simplex has nothing to repair
            assert sol.status == "optimal" and sol.warm_used
            assert sol.dual_iterations == 0


@pytest.mark.parametrize("mode", ["bigm-exact", "cayley-exact"])
def test_warm_roots_match_cold_roots(mode, monkeypatch):
    # every root after a query's first starts from the previous target's root
    # solution: per target, the bound is the one a forward start at every
    # root gives
    import dataclasses
    from stairverify import verifier
    from test_model_layout import KINDS, _mixed_query

    queries = [dataclasses.replace(recipe_query(recipe, j, eps), xi=1e9)
               for recipe in ("tanh-style", "relu") for j in range(6) for eps in (0.05, 0.1)]
    queries += [_mixed_query(kind, eps) for kind in KINDS for eps in (0.05, 0.3)]
    warm = [verify(q, VerifyConfig(mode=mode, timeout=60)) for q in queries]
    bnb = verifier._branch_and_bound

    def cold(model, config, deadline, report, start):
        return bnb(model, config, deadline, report, verifier._forward_start(model))

    monkeypatch.setattr(verifier, "_branch_and_bound", cold)
    later = 0
    for q, w in zip(queries, warm):
        c = verify(q, VerifyConfig(mode=mode, timeout=60))
        assert w.verdict == c.verdict and w.diagnostic == c.diagnostic == ""
        assert w.target_bounds.keys() == c.target_bounds.keys()
        for target, bound in c.target_bounds.items():
            assert w.target_bounds[target] == pytest.approx(bound, rel=1e-9, abs=1e-9)
        later += len(w.target_bounds) - 1
    assert later >= 24


@pytest.mark.parametrize("mode", ["bigm", "cayley"])
def test_forward_start_meets_every_row_and_matches_cold(mode):
    from stairverify import verifier
    from stairverify.lp import FEAS_TOL
    report = VerifyReport("robust")
    for q in _start_queries():
        model = build_query_model(q, mode, bounds.deeppoly_bounds(q.network, q.input_region()))
        for target in q.targets():
            model.set_target(target)
            start = verifier._forward_start(model)
            # in cayley mode, the second target's rows include the cuts pooled
            # for the first, and the last check runs on this target's own cuts
            for _ in range(2 if mode == "cayley" else 1):
                lp = model.to_lp()
                assert _meets_every_row(lp, start.x, FEAS_TOL)
                sol, cold = solve(lp, start), solve(lp)
                assert sol.dual_iterations == 0 and sol.warm_used
                assert abs(sol.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
                _solve_with_cuts(model, VerifyConfig(), report, np.inf, start)
    assert (report.cuts_added > 0) == (mode == "cayley")


def test_forward_start_is_the_trace_of_a_box_corner():
    from stairverify import verifier
    for q in _start_queries():
        model = build_query_model(q, BIGM)
        region = q.input_region()
        for target in q.targets():
            model.set_target(target)
            start = verifier._forward_start(model)
            assert start.basis == []
            corner = model.input_point(start.x)
            assert np.all((corner == region.lower) | (corner == region.upper))
            assert np.array_equal(start.x, model.trace_assignment(corner))


def test_node_limit_applies_to_each_target(monkeypatch):
    from stairverify import verifier
    q = _three_label_query()
    bnb = verifier._branch_and_bound
    nodes = []

    def spy(model, config, deadline, report, start):
        before = report.nodes
        out = bnb(model, config, deadline, report, start)
        nodes.append(report.nodes - before)
        return out

    modes = ("bigm-exact", "cayley-exact")
    exact = {mode: verify(q, VerifyConfig(mode=mode, timeout=60)).target_bounds for mode in modes}
    monkeypatch.setattr(verifier, "_branch_and_bound", spy)
    for mode, node_limit in itertools.product(modes, range(1, 12)):
        nodes.clear()
        report = verify(q, VerifyConfig(mode=mode, node_limit=node_limit, timeout=60))
        assert report.target_bounds.keys() == exact[mode].keys() and len(nodes) == 2
        for target, bound in report.target_bounds.items():
            assert np.isfinite(bound) and bound >= exact[mode][target] - 1e-9, (mode, node_limit)
        assert all(1 <= n <= node_limit for n in nodes), (mode, node_limit)


def test_cayley_exact_honours_max_cut_rounds():
    # the cap bounds cayley-lp's rounds; cayley-exact runs none at any cap, so
    # its report is the same at 0, 1 and 20 rounds, times aside
    q = _three_label_query()
    lp = {cap: verify(q, VerifyConfig(mode="cayley-lp", max_cut_rounds=cap, timeout=60))
          for cap in (0, 1, 20)}
    assert lp[0].rounds == lp[0].cuts_added == 0 and lp[20].rounds > len(lp[20].target_bounds)
    assert 0 < lp[1].rounds <= len(lp[1].target_bounds)
    docs = []
    for cap in (0, 1, 20):
        report = verify(q, VerifyConfig(mode="cayley-exact", max_cut_rounds=cap, timeout=60))
        assert report.verdict == "robust" and report.nodes > 2
        assert report.rounds == report.cuts_added == report.separation_calls == 0
        doc = report.as_dict()
        del doc["solve_time"], doc["separation_time"]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]
    assert all(float.hex(docs[0]["target_bounds"][t]) == float.hex(b)
               for t, b in docs[2]["target_bounds"].items())


def test_cayley_exact_without_cut_rounds_is_exact_on_non_staircases():
    # at 0 rounds a tanh-style leaf is bounded by its seeded LP alone, which
    # the seed cuts make exact: every integral point lies on its piece
    for j in range(6):
        q = wide_tanh_query(j)
        exact = verify(q, VerifyConfig(mode="bigm-exact", timeout=60))
        seeded = verify(q, VerifyConfig(mode="cayley-exact", max_cut_rounds=0, timeout=60))
        assert seeded.verdict == exact.verdict and seeded.diagnostic == "", j
        assert seeded.rounds == 0 and seeded.gap_percent == 0.0, j
        assert seeded.target_bounds.keys() == exact.target_bounds.keys(), j
        for target, bound in exact.target_bounds.items():
            assert seeded.target_bounds[target] == pytest.approx(bound, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("recipe", ["tanh-style", "relu"])
def test_cayley_exact_matches_bigm_exact_off_the_benchmark(recipe):
    # tanh-style neurons have two staircase components and ReLU (s = 1) one;
    # the seeds alone make both searches exact
    for j in range(6):
        q = recipe_query(recipe, j)
        exact = verify(q, VerifyConfig(mode="bigm-exact", timeout=60))
        cayley = verify(q, VerifyConfig(mode="cayley-exact", timeout=60))
        assert cayley.verdict == exact.verdict and cayley.diagnostic == "", j
        assert cayley.target_bounds.keys() == exact.target_bounds.keys()
        for target, bound in exact.target_bounds.items():
            assert cayley.target_bounds[target] == pytest.approx(bound, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("net", ["dorefa", "tanh-style"])
def test_cayley_exact_cuts_only_at_the_roots(net, monkeypatch):
    # the only cuts of a search are those its root LP carries (the model's
    # seeds, none on a flat neuron): every node LP of a target has the root
    # LP's rows, senses and rhs, and differs from it in its bounds alone
    from stairverify import verifier
    bnb, solve_ = verifier._branch_and_bound, verifier._solve
    lps = []   # per target, the node LPs

    def spy_bnb(*args):
        lps.append([])
        return bnb(*args)

    def spy_solve(lp, warm, report):
        lps[-1].append(lp)
        return solve_(lp, warm, report)

    monkeypatch.setattr(verifier, "_branch_and_bound", spy_bnb)
    monkeypatch.setattr(verifier, "_solve", spy_solve)
    q = _three_label_query() if net == "dorefa" else wide_tanh_query(0)
    report = verify(q, VerifyConfig(mode="cayley-exact", timeout=60))
    assert report.verdict == "robust" and report.rounds == report.cuts_added == 0
    assert len(lps) == 2 and all(len(node_lps) > 1 for node_lps in lps)
    assert sum(map(len, lps)) == report.nodes
    for root, *nodes in lps:
        assert any(not np.array_equal(lp.upper, root.upper) for lp in nodes)
        for lp in nodes:
            assert np.array_equal(lp.rows, root.rows)
            assert np.array_equal(lp.senses, root.senses) and np.array_equal(lp.rhs, root.rhs)
            assert np.array_equal(lp.lower, root.lower)


@pytest.mark.parametrize("net", ["dorefa", "tanh-style"])
def test_cayley_exact_never_separates(net, monkeypatch):
    # the seeds (or Big-M's rows on a flat neuron) pin the leaves, so no node
    # runs a cut round
    from stairverify import verifier

    def never(*args, **kwargs):
        raise AssertionError("cayley-exact separated")

    for name in ("_cut_round", "separate_pwl", "on_vertex_graph"):
        monkeypatch.setattr(verifier, name, never)
    q = _three_label_query() if net == "dorefa" else wide_tanh_query(0)
    report = verify(q, VerifyConfig(mode="cayley-exact", timeout=60))
    assert report.verdict == "robust" and report.nodes > 2
    assert report.rounds == report.cuts_added == report.separation_calls == 0
    assert report.separation_time == 0.0


def test_cayley_exact_is_bigm_exact_on_flat_staircases():
    # on all-DoReFa nets the Cayley LP is Big-M's array for array, so the two
    # searches are one: every report field but the times, bounds bit for bit
    queries = [_three_label_query(), _counter_query("dorefa"), *_start_queries()] + [
        _tiny_query(np.random.default_rng(seed), hidden=(4,), eps=0.25, weight_scale=1.5)
        for seed in range(64, 68)]
    searched = 0
    for q in queries:
        docs = []
        for mode in ("bigm-exact", "cayley-exact"):
            doc = verify(q, VerifyConfig(mode=mode, timeout=60)).as_dict()
            del doc["solve_time"], doc["separation_time"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert all(float.hex(docs[0]["target_bounds"][t]) == float.hex(b)
                   for t, b in docs[1]["target_bounds"].items())
        searched += docs[0]["nodes"] > len(docs[0]["target_bounds"])
    assert searched >= 3


@pytest.mark.parametrize("mode", ["cayley-lp", "cayley-exact"])
def test_flat_staircases_are_separated_upward_only(mode, monkeypatch):
    from stairverify import verifier
    separate, build = verifier.separate_pwl, verifier.build_query_model
    directions, models = [], []

    def spy_separate(neuron, xhat, yhat, zhat, direction, **kwargs):
        directions.append(direction)
        return separate(neuron, xhat, yhat, zhat, direction, **kwargs)

    def spy_build(*args):
        models.append(build(*args))
        return models[-1]

    monkeypatch.setattr(verifier, "separate_pwl", spy_separate)
    monkeypatch.setattr(verifier, "build_query_model", spy_build)
    queries = [_three_label_query()] + [
        _tiny_query(np.random.default_rng(seed), hidden=(4,), eps=0.25, weight_scale=1.5)
        for seed in range(64, 68)]
    runs = []
    for both in (False, True):
        if both:   # every activation sloped: both directions, and exact leaves
            monkeypatch.setattr(verifier, "staircase_slope", lambda f: 1.0)
        directions.clear()
        models.clear()
        reports = [verify(q, VerifyConfig(mode=mode, timeout=60)) for q in queries]
        pools = [{(nf.key, key) for nf in m.activated_neurons() for key in nf.pool}
                 for m in models]
        runs.append((reports, pools, set(directions)))
    (upward, pools, dirs), (both, pools_both, dirs_both) = runs
    assert pools == pools_both
    if mode == "cayley-exact":   # no direction is separated, whatever the slopes
        assert dirs == dirs_both == set()
        assert all(r.separation_calls == 0 for r in upward + both)
    else:
        assert dirs == {UPPER} and dirs_both == {UPPER, LOWER}
    for one, two in zip(upward, both):
        assert one.verdict == two.verdict and one.target_bounds == two.target_bounds
        assert 2 * one.separation_calls == two.separation_calls
        assert (one.separation_calls > 0) == (mode == "cayley-lp")


@pytest.mark.parametrize("mode", ["bigm-exact", "cayley-exact"])
def test_nodes_count_each_node_solve_once(mode, monkeypatch):
    from stairverify import verifier
    solve_ = verifier._solve
    node_solves = []

    def spy(lp, warm, report):
        node_solves.append(lp.upper)
        return solve_(lp, warm, report)

    monkeypatch.setattr(verifier, "_solve", spy)
    report = verify(_three_label_query(), VerifyConfig(mode=mode, timeout=60))
    assert report.verdict == "robust"
    assert report.nodes == len(node_solves) > 2


def test_exact_deadline_after_the_root_keeps_its_bound_open(monkeypatch):
    from types import SimpleNamespace
    from stairverify import verifier
    q = _three_label_query()
    target = q.targets()[0]
    model = build_query_model(q.with_target(target), "cayley")
    root_lp = solve(model.to_lp()).objective
    exact = verify(q.with_target(target), VerifyConfig(mode="bigm-exact")).target_bounds[target]
    ticks = iter([0.0])   # the search starts before the deadline, every later reading is past it
    monkeypatch.setattr(verifier, "time", SimpleNamespace(monotonic=lambda: next(ticks, 10.0)))
    report = VerifyReport("robust")
    value, _, diag, _ = verifier._branch_and_bound(model, VerifyConfig(mode="cayley-exact"), 1.0,
                                                   report, verifier._forward_start(model))
    assert (diag, report.nodes, report.rounds) == ("timeout limit reached", 1, 0)
    assert value == pytest.approx(root_lp, rel=1e-9) and value >= exact - 1e-9
    assert report.gap_percent == float("inf")


# -- seeded fuzz: no LP mode raises --------------------------------------------------


def _fuzz_query(rng, kind, eps):
    """A dense net of 2-5 inputs, two hidden layers of 3-6 `kind` neurons
    (`activation_spec`) and 3 outputs, weights N(0, 2^2), and an anchor
    drawn in its box."""
    sizes = [int(rng.integers(2, 6)), int(rng.integers(3, 7)), int(rng.integers(3, 7)), 3]
    spec = activation_spec(kind)
    layers = tuple(Layer.dense(rng.normal(size=(out, n_in)) * 2.0, rng.normal(size=out) * 0.3,
                               spec if i < 2 else None)
                   for i, (n_in, out) in enumerate(zip(sizes, sizes[1:])))
    net = Network(layers, BoxDomain(-np.ones(sizes[0]), np.ones(sizes[0])))
    x0 = rng.uniform(-0.7, 0.7, sizes[0])
    return VerificationQuery(net, x0, eps, int(np.argmax(net.forward(x0))))


@pytest.mark.parametrize("kind, seed, per_eps", [("dorefa", 80, 20), ("relu", 81, 20),
                                                 ("tanh-style", 82, 8)])
def test_verify_never_raises_on_seeded_nets(kind, seed, per_eps):
    # every cold LP start goes through the dual simplex, whose cycling guard
    # raises `NumericalError`: no LP mode may let one escape `verify`
    rng = np.random.default_rng(seed)
    verdicts = set()
    for eps in (0.08, 0.14):
        for _ in range(per_eps):
            q = _fuzz_query(rng, kind, eps)
            reports = {mode: verify(q, VerifyConfig(mode=mode, timeout=60))
                       for mode in ("bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact")}
            bigm, cayley = reports["bigm-exact"], reports["cayley-exact"]
            assert bigm.verdict == cayley.verdict != "unknown"
            assert bigm.target_bounds.keys() == cayley.target_bounds.keys()
            for target, bound in bigm.target_bounds.items():
                assert cayley.target_bounds[target] == pytest.approx(bound, rel=1e-6, abs=1e-6)
            verdicts.update(r.verdict for r in reports.values())
    assert {"robust", "falsified"} <= verdicts
