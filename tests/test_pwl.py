import numpy as np
import pytest

from stairverify import pwl
from stairverify.errors import DomainError, InputError, ParameterError
from stairverify.pwl import PiecewiseLinear, staircase_slope

from helpers import clip, random_pwl, tanh_staircase_pair


def test_relu_evaluate_zero_piece():
    f = pwl.relu(-1.0, 1.0)
    assert f(-0.5) == 0.0


def test_relu_evaluate_identity_piece_closed_end():
    f = pwl.relu(-1.0, 1.0)
    assert f(1.0) == 1.0


def test_evaluate_outside_domain_raises():
    f = pwl.relu(-1.0, 1.0)
    with pytest.raises(DomainError):
        f(1.5)


def test_dorefa_breakpoint_takes_right_piece():
    f = pwl.dorefa(2, -1.0, 1.0)
    # interior breakpoints: evaluate must agree with a linear-scan piece lookup
    for t in f.breakpoints[1:-1]:
        scan = None
        for i in range(f.num_pieces):
            left, right = f.breakpoints[i], f.breakpoints[i + 1]
            closed_right = i == f.num_pieces - 1
            if left <= t < right or (closed_right and left <= t <= right):
                scan = f.piece_value(i, t)
                break
        bisect_idx = int(np.searchsorted(f.breakpoints, t, side="right")) - 1
        assert f(t) == scan == f.piece_value(bisect_idx, t)


def test_right_continuity_at_interior_breakpoints():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_pwl(rng, int(rng.integers(2, 7)), -2, 2)
        for i in range(1, f.num_pieces):
            h = f.breakpoints[i]
            eps_vals = f.batch(np.array([h + 1e-9, h + 1e-8]))
            assert abs(f(h) - eps_vals[0]) < 1e-6


def test_batch_matches_scalar():
    rng = np.random.default_rng(1)
    f = random_pwl(rng, 5, -1, 3, discont_prob=0.8)
    ts = rng.uniform(-1, 3, size=200)
    assert np.allclose(f.batch(ts), [f(t) for t in ts])


def test_dorefa_piece_counts_and_levels():
    f1 = pwl.dorefa(1, 0.0, 1.0)
    assert f1.num_pieces == 2
    assert set(np.round(f1.intercepts, 12)) == {0.0, 1.0}
    assert pwl.dorefa(2, -1.0, 1.0).num_pieces == 4
    assert pwl.dorefa(5, -1.0, 1.0).num_pieces == 32
    with pytest.raises(ParameterError):
        pwl.dorefa(0, 0.0, 1.0)


def test_dorefa_is_flat_staircase():
    f = pwl.dorefa(3, -1.0, 1.0)
    assert staircase_slope(f) == 0.0
    assert np.all(np.diff(f.intercepts) > 0)


def test_breakpoints_must_increase():
    with pytest.raises(ParameterError):
        PiecewiseLinear([0.0, 0.0, 1.0], [1.0, 1.0], [0.0, 0.0])


def test_staircase_rejects_mixed_slopes():
    assert staircase_slope(PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 2.0], [0.0, -1.0])) is None


def test_decompose_relu_is_identity():
    f = pwl.relu(-1.0, 1.0)
    f0, parts = pwl.decompose_staircase(f)
    assert f0 is None
    assert len(parts) == 1
    ts = np.linspace(-1, 1, 100)
    assert np.allclose(parts[0].batch(ts), f.batch(ts))


def test_decompose_tanh_fixture_two_staircases():
    f = tanh_staircase_pair()
    assert f.num_pieces == 7
    f0, parts = pwl.decompose_staircase(f)
    assert f0 is None
    assert len(parts) == 2


def test_decompose_three_slopes_grid_oracle():
    f = PiecewiseLinear([-2.0, -1.0, 0.0, 0.5, 1.4, 2.0],
                        [1.0, 0.0, 3.0, 0.0, 1.0],
                        [0.0, -1.0, -1.0, 0.5, -0.2 - 0.7])
    f = PiecewiseLinear(f.breakpoints, f.slopes, _chain_intercepts(f))
    f0, parts = pwl.decompose_staircase(f)
    assert f0 is None
    assert len(parts) == 2  # nonzero distinct slopes only
    ts = np.linspace(f.lo, f.hi, 1000)
    total = sum(p.batch(ts) for p in parts)
    assert np.max(np.abs(total - f.batch(ts))) <= 1e-9


def test_distinct_slopes_are_the_component_slopes():
    f = PiecewiseLinear([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 5e-10, 2.0, 1.0], np.zeros(4))
    assert pwl.distinct_slopes(f.slopes) == [1.0, 5e-10, 2.0]
    _, parts = pwl.decompose_staircase(f)
    assert [float(p.slopes[np.flatnonzero(p.slopes)[0]]) for p in parts] == [1.0, 5e-10, 2.0]
    # below staircase_slope's tolerance the tiny component reads as flat
    assert [staircase_slope(p) for p in parts] == [1.0, 0.0, 2.0]


def _chain_intercepts(f):
    # rebuild intercepts so the function is continuous from the left end
    vals = np.empty(f.num_pieces)
    level = -1.0
    for i in range(f.num_pieces):
        vals[i] = level - f.slopes[i] * f.breakpoints[i]
        level = f.slopes[i] * f.breakpoints[i + 1] + vals[i]
    return vals


@pytest.mark.parametrize("discont", [0.0, 0.7])
def test_decompose_properties_random(discont):
    rng = np.random.default_rng(int(discont * 10) + 3)
    for _ in range(60):
        k = int(rng.integers(1, 8))
        f = random_pwl(rng, k, -2, 2, discont_prob=discont)
        f0, parts = pwl.decompose_staircase(f)
        m = len(parts)
        distinct = len(set(np.round(f.slopes, 9)))
        assert m <= max(distinct, 1) and m <= k
        for p in parts:
            s = staircase_slope(p)
            assert s is not None
            assert np.all(np.isclose(p.slopes, 0.0) | np.isclose(p.slopes, s))
            assert np.array_equal(p.breakpoints, f.breakpoints)
        ts = np.linspace(f.lo, f.hi, 1000)
        total = sum(p.batch(ts) for p in parts)
        if f0 is not None:
            total = total + f0.batch(ts)
            assert np.all(f0.slopes == 0.0)
        assert np.max(np.abs(total - f.batch(ts))) <= 1e-9


def test_decompose_splits_left_value_evenly():
    rng = np.random.default_rng(9)
    f = random_pwl(rng, 5, -1, 1, slope_pool=np.array([1.0, 2.0, -1.0]),
                   discont_prob=0.0)
    _, parts = pwl.decompose_staircase(f)
    m = len(parts)
    for p in parts:
        assert abs(p(f.lo) - f(f.lo) / m) <= 1e-12


def test_clip_drops_outside_pieces():
    f = pwl.dorefa(2, -1.0, 1.0)
    g = clip(f, -0.4, 0.9)
    assert g.lo == -0.4 and g.hi == 0.9
    assert g.num_pieces <= f.num_pieces
    for t in np.linspace(-0.4, 0.9, 200):
        assert abs(g(t) - f(t)) <= 1e-12


def test_clip_interval_must_be_inside():
    f = pwl.relu(-1.0, 1.0)
    with pytest.raises(InputError, match=r"domain \[-1.0, 1.0\] does not cover"):
        clip(f, -2.0, 1.0)


@pytest.mark.parametrize("bp", [[0.0, 1.0, 0.5], [0.0, 1.0, 1.0, 2.0], [1.0, 0.0]])
def test_non_increasing_or_repeated_breakpoints_rejected(bp):
    k = len(bp) - 1
    with pytest.raises(ParameterError):
        PiecewiseLinear(bp, np.zeros(k), np.zeros(k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_non_finite_entries_rejected(which, bad):
    arrays = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    for pos in range(arrays[which].size):
        args = [a.copy() for a in arrays]
        args[which][pos] = bad
        with pytest.raises(ParameterError):
            PiecewiseLinear(*args)


@pytest.mark.parametrize("args", [
    ([[0.0, 1.0]], [0.0], [0.0]),               # 2-d breakpoints
    ([0.0], [], []),                             # no piece
    (0.0, [], []),                               # scalar breakpoints
    ([0.0, 1.0, 2.0], [0.0], [0.0, 0.0]),        # too few slopes
    ([0.0, 1.0, 2.0], [0.0, 0.0], [0.0]),        # too few intercepts
    ([0.0, 1.0], [[0.0]], [0.0]),                # 2-d slopes
])
def test_wrong_shapes_rejected(args):
    with pytest.raises(ParameterError):
        PiecewiseLinear(*args)


@pytest.mark.parametrize("s", [1e-9, 1.0, -2.5, 300.0])
def test_staircase_slope_tolerance_edge(s):
    def slope(*slopes):
        return staircase_slope(PiecewiseLinear([0.0, 1.0, 2.0, 3.0], slopes, np.zeros(3)))

    tol = 1e-9 * max(1.0, abs(s))
    if abs(s) > 1e-9:
        assert slope(0.0, s, s + 0.9 * tol) == s
        assert slope(0.9e-9, s, 0.0) == s
        assert slope(0.0, s, s + 1.1 * tol) is None
        assert slope(1.1e-9, s, 0.0) is None
    else:  # a slope within tol of 0 is flat
        assert slope(0.0, s, s) == 0.0
