import numpy as np
import pytest

from stairverify import pwl
from stairverify.errors import CapabilityError
from stairverify.formulations import BIGM, VerificationQuery, build_query_model
from stairverify.lp import solve
from stairverify.network import BoxDomain, Layer, Network, Neuron
from stairverify.oracles import (build_ahat, brute_min_psi, enumerate_cayley_vertices,
                                 exhaustive_verify, hull_membership_lp, sample_tu_check)
from stairverify.separation import THETA2_ZERO, PsiInstance

from helpers import random_neuron, random_quantized_network


def test_relu_1d_vertices():
    neuron = Neuron(np.array([1.0]), 0.0, pwl.relu(-1.0, 1.0),
                    BoxDomain([-1.0], [1.0]))
    verts = enumerate_cayley_vertices(neuron)
    got = {(round(float(verts.xs[i][0]), 9), round(float(verts.ys[i]), 9),
            int(verts.pieces[i])) for i in range(len(verts))}
    assert got == {(-1.0, 0.0, 0), (0.0, 0.0, 0), (0.0, 0.0, 1), (1.0, 1.0, 1)}


def test_unit_square_diagonal_slab_vertices():
    # slab 0.5 <= x1 + x2 <= 1.5 clipped against the unit square, by hand:
    # slice vertices are the box corners inside plus the slab/edge crossings
    neuron = Neuron(np.array([1.0, 1.0]), 0.0,
                    pwl.PiecewiseLinear([0.0, 0.5, 1.5, 2.0], np.zeros(3), [0.0, 1.0, 2.0]),
                    BoxDomain([0.0, 0.0], [1.0, 1.0]))
    verts = enumerate_cayley_vertices(neuron)
    middle = {tuple(np.round(verts.xs[i], 9)) for i in range(len(verts))
              if verts.pieces[i] == 1}
    assert middle == {(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0),
                      (0.0, 1.0), (1.0, 0.0)}


def test_vertex_cap_enforced():
    neuron = Neuron(np.ones(5), 0.0, pwl.relu(-5.0, 5.0),
                    BoxDomain(-np.ones(5), np.ones(5)))
    with pytest.raises(CapabilityError):
        enumerate_cayley_vertices(neuron)


def test_hull_contains_sampled_slice_points():
    rng = np.random.default_rng(70)
    for _ in range(10):
        neuron = random_neuron(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        verts = enumerate_cayley_vertices(neuron)
        k = neuron.activation.num_pieces
        f = neuron.activation
        for _ in range(20):
            x = neuron.box.sample(rng)
            t = float(neuron.weight @ x + neuron.bias)
            t = min(max(t, f.lo), f.hi)
            piece = f.piece_index(t)
            point = np.concatenate([x, [f.piece_value(piece, t)],
                                    np.eye(k)[piece]])
            assert hull_membership_lp(verts, point, k) == 0.0


def test_brute_min_psi_trivial_cases():
    inst = PsiInstance(np.array([1.0, 1.0]), np.array([0.5, 1.0]),
                       np.array([1.0]), np.array([1.0]), THETA2_ZERO,
                       np.ones(1, dtype=bool))
    K, val = brute_min_psi(inst)
    assert K.size == 0 and val == 0.0
    inst2 = PsiInstance(np.array([1.0]), np.array([0.5]),
                        np.array([-1.0]), np.array([1.0]), THETA2_ZERO,
                        np.ones(1, dtype=bool))
    K2, val2 = brute_min_psi(inst2)
    assert list(K2) == [0] and val2 == pytest.approx(-0.5)


def test_brute_min_psi_capability_cap():
    k = 20
    inst = PsiInstance(np.array([1.0]), np.array([0.5]),
                       np.zeros(k), np.full(k, 1.0 / k), THETA2_ZERO,
                       np.ones(k, dtype=bool))
    with pytest.raises(CapabilityError):
        brute_min_psi(inst)


def test_tu_one_by_one_entries():
    A = build_ahat(np.array([1, -1, 0]), 2)
    assert set(np.unique(A)) <= {-1, 0, 1}


def test_tu_sampled_check_passes():
    ok, witness = sample_tu_check(2, 2, trials=2000, seed=3)
    assert ok and witness is None


def test_tu_corrupted_entry_found():
    ok, witness = sample_tu_check(2, 2, trials=50, seed=4, tamper=(1, 2, 2))
    assert not ok
    rows, cols, det = witness
    assert det not in (-1, 0, 1)


def test_exhaustive_affine_network_single_lp():
    rng = np.random.default_rng(71)
    W = rng.normal(size=(2, 2))
    net = Network((Layer.dense(W, rng.normal(size=2), None),),
                  BoxDomain([-1, -1], [1, 1]))
    x0 = np.zeros(2)
    q = VerificationQuery(net, x0, 0.5, 0, 1)
    model = build_query_model(q, BIGM)
    value = exhaustive_verify(model)
    sol = solve(model.to_lp())
    assert value == pytest.approx(sol.objective, abs=1e-8)


def test_exhaustive_two_relu_patterns_by_hand():
    # outputs (relu(x1) - relu(x2), 0); attacking label 1 with target 0
    # maximizes relu(x1) - relu(x2) = 1 at x = (1, x2 <= 0), found among the
    # four piece patterns
    from stairverify.network import ActivationSpec

    net = Network((Layer.dense([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0],
                               ActivationSpec("relu", {})),
                   Layer.dense([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0], None)),
                  BoxDomain([-1, -1], [1, 1]))
    q = VerificationQuery(net, np.zeros(2), 1.0, 1, 0)
    value = exhaustive_verify(build_query_model(q, BIGM))
    assert value == pytest.approx(1.0, abs=1e-8)


def test_exhaustive_pattern_budget():
    rng = np.random.default_rng(72)
    net = random_quantized_network(rng, n_in=2, hidden=(7,), n_out=2, bits=3)
    q = VerificationQuery(net, np.zeros(2), 1.0, 0, 1)
    model = build_query_model(q, BIGM)
    with pytest.raises(CapabilityError):
        exhaustive_verify(model)


def test_oracles_deterministic_given_seed():
    assert sample_tu_check(2, 2, 500, seed=9) == sample_tu_check(2, 2, 500, seed=9)
