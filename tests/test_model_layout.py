"""The array build of neuron and query models against per-neuron references.

`_ReferenceModel` writes a model the plain way: one variable and one row at
a time, the rows of each neuron by `_attach_neuron`. `_reference_trace`,
`_reference_branch_pieces` and `_reference_forward` evaluate neuron by
neuron. The array code must give the same LPs to the last bit (rows,
senses, right-hand sides, bounds and objective, in the same row and column
order) and the same traces, branching pieces and network outputs.
"""

import numpy as np
import pytest

from stairverify import bounds as bounds_mod
from stairverify.errors import DomainError, FormulationError, InputError
from stairverify.formulations import (BIGM, CAYLEY, NeuronFormulation, VerificationQuery,
                                      attack_objective, build_bigm, build_cayley,
                                      build_query_model)
from stairverify.lp import EQUAL, GREATER, LESS, LinearProgram
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, Neuron
from stairverify.pwl import distinct_slopes
from stairverify.separation import LOWER, UPPER, Cut, _slice_ends, slab_extremes
from stairverify.verifier import VerifyConfig, _branch_pieces, verify

from helpers import activation_spec, clip, dense_query, random_neuron


class _ReferenceModel:
    """Variables appended one by one, rows one `_add_row` at a time."""

    def __init__(self, mode):
        if mode not in (BIGM, CAYLEY):
            raise InputError(f"mode must be '{BIGM}' or '{CAYLEY}'")
        self.mode = mode
        self.lower, self.upper = [], []
        self._matrix = np.zeros((0, 0))
        self.senses, self.rhs = [], []
        self.objective = None
        self.neurons = {}

    def _new_var(self, lo, hi):
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        return len(self.lower) - 1

    def _add_row(self, cols, coeffs, sense, rhs):
        m = len(self.rhs)
        if m == len(self._matrix):
            width = self.num_vars() - self._matrix.shape[1]
            self._matrix = np.pad(self._matrix, ((0, max(64, m)), (0, width)))
        self._matrix[m][cols] = coeffs
        self.senses.append(sense)
        self.rhs.append(float(rhs))

    def num_vars(self):
        return len(self.lower)

    def _attach_neuron(self, nf):
        self.neurons[nf.key] = nf
        f, w = nf.neuron.activation, nf.neuron.weight
        self._add_row(nf.z_vars, 1.0, EQUAL, 1.0)
        for ends, sense in ((f.breakpoints[:-1], GREATER), (f.breakpoints[1:], LESS)):
            self._add_row(nf.x_vars + nf.z_vars, np.concatenate([w, -ends]), sense,
                          -nf.neuron.bias)
        if np.all(np.abs(f.slopes) <= 1e-12):
            self._add_row(nf.z_vars + [nf.y_var], np.append(-f.intercepts, 1.0), EQUAL, 0.0)
        elif self.mode == BIGM or f.num_pieces == 1:
            lows, highs = slab_extremes(nf.neuron, f.slopes)
            dbar = nf.neuron.dbar()
            for i, z in enumerate(nf.z_vars):
                line = np.append(-f.slopes[i] * w, 1.0)
                for m, sense in ((highs[i].max() - dbar[i], LESS),
                                 (lows[i].min() - dbar[i], GREATER)):
                    self._add_row(nf.x_vars + [nf.y_var, z], np.append(line, m), sense,
                                  m + dbar[i])
        else:
            slopes = [0.0] + distinct_slopes(f.slopes)
            for a, low, high in zip(slopes, *slab_extremes(nf.neuron, slopes)):
                self.add_cut(nf, Cut(UPPER, a * w, high))
                self.add_cut(nf, Cut(LOWER, a * w, low))

    def add_cut(self, nf, cut):
        key = cut.key()
        if key in nf.pool:
            return False
        sense = LESS if (cut.y_coef != 0.0 and cut.direction == LOWER) else GREATER
        self._add_row(nf.x_vars + nf.z_vars + [nf.y_var],
                      np.concatenate([cut.alpha, cut.zcoef, [-cut.y_coef]]), sense, -cut.const)
        nf.pool.add(key)
        return True

    def to_lp(self):
        return LinearProgram("max", self.objective.copy(), self._matrix[:len(self.rhs)],
                             self.senses, self.rhs, np.array(self.lower), np.array(self.upper))

    def activated_neurons(self):
        return [self.neurons[k] for k in sorted(self.neurons)]


def _reference_neuron_model(neuron, mode):
    model = _ReferenceModel(mode)
    xs = [model._new_var(neuron.box.lower[j], neuron.box.upper[j]) for j in range(neuron.dim)]
    y = model._new_var(*neuron.activation.output_range())
    zs = [model._new_var(0.0, 1.0) for _ in range(neuron.activation.num_pieces)]
    model.nf = NeuronFormulation(0, 0, neuron, xs, y, zs)
    model._attach_neuron(model.nf)
    model.objective = np.zeros(model.num_vars())
    return model


def _reference_query_model(query, mode):
    model = _ReferenceModel(mode)
    net = model.net = query.network
    region = query.input_region()
    preact = bounds_mod.deeppoly_bounds(net, region)
    relaxed = preact.relaxed_layers(net)
    model.layer_inputs, model.y_vars, activated = [], [], {}
    current = [model._new_var(region.lower[j], region.upper[j]) for j in range(net.input_dim)]
    for li, layer in enumerate(net.layers):
        model.layer_inputs.append(current)
        in_lo = np.array([model.lower[v] for v in current])
        in_hi = np.array([model.upper[v] for v in current])
        ys = []
        for j in range(layer.out_dim):
            pre_lo, pre_hi = preact.interval(li, j)
            f = relaxed[li].functions[j]
            if f is None:
                ys.append(model._new_var(pre_lo, pre_hi))
                continue
            y = model._new_var(*f.output_range())
            zs = [model._new_var(0.0, 1.0) for _ in range(f.num_pieces)]
            nrn = Neuron(layer.weights[j], float(layer.bias[j]), f, BoxDomain(in_lo, in_hi))
            activated[(li, j)] = NeuronFormulation(li, j, nrn, list(current), y, zs)
            ys.append(y)
        model.y_vars.append(ys)
        current = ys
    for li, layer in enumerate(net.layers):
        for j, y in enumerate(model.y_vars[li]):
            if (li, j) in activated:
                model._attach_neuron(activated[(li, j)])
                continue
            model._add_row(model.layer_inputs[li] + [y], np.append(layer.weights[j], -1.0),
                           EQUAL, -float(layer.bias[j]))
    model.objective = np.zeros(model.num_vars())
    if query.target is not None:
        model.objective[model.y_vars[-1]] = attack_objective(net.output_dim, query.label,
                                                             query.target)
    return model


def _reference_trace(model, x_input):
    vals = np.zeros(model.num_vars())
    current = np.asarray(x_input, dtype=float)
    vals[:model.net.input_dim] = current
    for li, layer in enumerate(model.net.layers):
        pre = layer.weights @ current + layer.bias
        out = np.empty(layer.out_dim)
        for j in range(layer.out_dim):
            if (li, j) in model.neurons:
                nf = model.neurons[(li, j)]
                f = nf.neuron.activation
                t = float(np.clip(pre[j], f.lo, f.hi))
                piece = f.piece_index(t)
                out[j] = f.piece_value(piece, t)
                vals[nf.z_vars[piece]] = 1.0
                vals[nf.y_var] = out[j]
            else:
                out[j] = pre[j]
                vals[model.y_vars[li][j]] = out[j]
        current = out
    return vals


def _reference_branch_pieces(model, x, upper):
    frac_nf, frac_score = None, 1e-6
    for nf in model.activated_neurons():
        score = 1.0 - float(x[nf.z_vars].max())
        if score > frac_score:
            frac_nf, frac_score = nf, score
    return [] if frac_nf is None else [z for z in frac_nf.z_vars if upper[z] > 0]


def _reference_forward(net, x):
    preact = bounds_mod.interval_bounds(net, net.input_box)
    x = np.asarray(x, dtype=float)
    vals = x if x.ndim == 2 else x[None, :]
    if not net.input_box.contains(vals.min(axis=0)) or not net.input_box.contains(vals.max(axis=0)):
        raise DomainError("input outside the declared input box")
    for li, layer in enumerate(net.layers):
        pre = vals @ layer.weights.T + layer.bias
        out = np.empty_like(pre)
        for j in range(layer.out_dim):
            spec = layer.activations[j]
            if spec is None:
                out[:, j] = pre[:, j]
                continue
            f = spec.instantiate(*preact.interval(li, j))
            col = pre[:, j]
            if np.any(col < f.lo - 1e-7) or np.any(col > f.hi + 1e-7):
                raise DomainError(f"pre-activation of neuron ({li},{j}) left [{f.lo}, {f.hi}]")
            out[:, j] = f.batch(np.clip(col, f.lo, f.hi))
        vals = out
    return vals if x.ndim == 2 else vals[0]


def _assert_same_lp(model, ref):
    a, b = model.to_lp(), ref.to_lp()
    for name in ("rows", "rhs", "lower", "upper", "objective"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name   # signed zeros too
    assert a.senses.tolist() == b.senses.tolist()
    for nf in ref.activated_neurons():
        other = model.neurons[nf.key]
        assert other.pool == nf.pool
        assert (list(other.x_vars), other.y_var, list(other.z_vars)) == (nf.x_vars, nf.y_var,
                                                                          nf.z_vars)


# a general PWL activation, not a staircase: a slope in (1e-12, 1e-9), a jump,
# a negative slope; its outer breakpoints cover every interval range below
GENERAL = ActivationSpec("pwl", {"breakpoints": [-40.0, -1.0, -0.2, 0.0, 0.3, 1.5, 40.0],
                                 "slopes": [0.0, 5e-10, 1.0, -0.5, 0.7, 0.0],
                                 "intercepts": [0.1, 0.3, 0.0, 0.2, -0.4, 1.0]})
KINDS = ("dorefa", "relu", "tanh-style", "general")


def _spec(kind):
    return GENERAL if kind == "general" else activation_spec(kind)


def _mixed_query(kind, eps):
    """Identity first layer (so inputs hit breakpoints exactly), a layer of
    activated and affine neurons side by side, a purely affine layer, an
    affine output layer; input box [-4, 4]."""
    rng = np.random.default_rng(3)
    spec = _spec(kind)
    layers = (Layer.dense(np.eye(4), np.zeros(4), spec),
              Layer(rng.normal(size=(5, 4)), rng.normal(size=5), (spec, None, spec, spec, None)),
              Layer.dense(rng.normal(size=(3, 5)), rng.normal(size=3), None),
              Layer(rng.normal(size=(3, 3)), rng.normal(size=3), (spec, None, spec)),
              Layer.dense(rng.normal(size=(2, 3)), rng.normal(size=2), None))
    net = Network(layers, BoxDomain(-4 * np.ones(4), 4 * np.ones(4)))
    x0 = np.array([0.0, 0.5, -1.0, 1.2])
    return VerificationQuery(net, x0, eps, int(np.argmax(net.forward(x0))), None)


def _queries():
    # eps 0 pins every first-layer neuron to one piece; 1e-10 leaves thin
    # clipped intervals; the others leave neurons with several pieces
    for kind in KINDS:
        for eps in (0.0, 1e-10, 0.05, 0.3):
            yield f"{kind} dense {eps}", dense_query(3, _spec(kind), eps)
            yield f"{kind} mixed {eps}", _mixed_query(kind, eps)


@pytest.mark.parametrize("mode", [BIGM, CAYLEY])
def test_query_models_equal_the_per_neuron_build(mode):
    pieces = set()
    for name, query in _queries():
        for q in (query, query.with_target(query.targets()[0])):
            ref = _reference_query_model(q, mode)
            _assert_same_lp(build_query_model(q, mode), ref)
            pieces |= {len(nf.z_vars) for nf in ref.activated_neurons()}
    assert 1 in pieces and max(pieces) >= 3


def test_neuron_models_equal_the_per_neuron_build():
    rng = np.random.default_rng(11)
    for trial in range(120):
        neuron = random_neuron(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                               s=[0.0, 1.0, -0.4, 5e-10][trial % 4],
                               pwl_activation=trial % 3 == 0)
        if trial % 5 == 0:   # a thin clipped interval around one breakpoint
            f = neuron.activation
            mid = float(f.breakpoints[f.num_pieces // 2])
            neuron = Neuron(neuron.weight, neuron.bias, clip(f, mid - 1e-12, mid + 1e-12),
                            neuron.box)
        for mode, build in ((BIGM, build_bigm), (CAYLEY, build_cayley)):
            _assert_same_lp(build(neuron), _reference_neuron_model(neuron, mode))


def _probe_inputs(model):
    """The region's corners, each input on every interior breakpoint of its
    first-layer neuron and on its clip bounds, and points outside the clip range."""
    lo, hi = model.region.lower, model.region.upper
    points = [lo, hi, lo - 0.5, hi + 0.5, 0.5 * (lo + hi)]
    for nf in model.activated_neurons():
        if nf.layer == 0:
            for t in nf.neuron.activation.breakpoints:
                x = 0.5 * (lo + hi)
                x[nf.index] = t
                points.append(x)
    return points


@pytest.mark.parametrize("kind", KINDS)
def test_traces_equal_the_per_neuron_trace(kind):
    rng = np.random.default_rng(12)
    on_breakpoint = 0
    for eps in (0.0, 1e-10, 0.3, 1.7):
        q = _mixed_query(kind, eps)
        model, ref = build_query_model(q, BIGM), _reference_query_model(q, BIGM)
        for x in _probe_inputs(model) + list(model.region.sample(rng, 20)):
            assert model.trace_assignment(x).tobytes() == _reference_trace(ref, x).tobytes()
        on_breakpoint += sum(int(np.any(nf.neuron.activation.breakpoints[1:-1] == x[nf.index]))
                             for x in _probe_inputs(model) for nf in ref.activated_neurons()
                             if nf.layer == 0)
    assert on_breakpoint > 0


def test_branch_pieces_equal_the_per_neuron_probe():
    q = _mixed_query("tanh-style", 1.7)
    model, ref = build_query_model(q, BIGM), _reference_query_model(q, BIGM)
    neurons = ref.activated_neurons()
    multi = [nf for nf in neurons if len(nf.z_vars) > 1]
    assert len(multi) >= 3 and len({len(nf.z_vars) for nf in multi}) < len(multi)
    rng = np.random.default_rng(13)
    upper = np.array(ref.upper)

    def point(z_of):
        x = rng.normal(size=model.num_vars())
        for nf in neurons:
            x[nf.z_vars] = z_of(nf)
        return x

    def one_hot(nf, i=0):
        return np.eye(len(nf.z_vars))[i]

    def halves(nf):
        return np.append([0.5, 0.5], np.zeros(len(nf.z_vars) - 2))

    # tied scores: two neurons at z = (1/2, 1/2, 0, ...), the rest integral
    tied = point(lambda nf: halves(nf) if nf in (multi[1], multi[-1]) else one_hot(nf))
    uniform = point(lambda nf: np.full(len(nf.z_vars), 1.0 / len(nf.z_vars)))
    integral = point(lambda nf: one_hot(nf, len(nf.z_vars) - 1))
    cases = [tied, uniform, integral]
    base = 1.0 - 1e-6
    near = [np.nextafter(base, 0.0), base, np.nextafter(base, 2.0)]
    for zmax in near + [1.0 - 2e-6, 1.0 - 5e-7]:   # scores at and around the 1e-6 threshold
        cases.append(point(lambda nf: one_hot(nf) if nf is not multi[1]
                           else np.append(zmax, np.full(len(nf.z_vars) - 1, (1.0 - zmax)
                                                        / (len(nf.z_vars) - 1)))))
    cases += [point(lambda nf: rng.dirichlet(np.ones(len(nf.z_vars)))) for _ in range(30)]
    leaves = 0
    for x in cases:
        for up in (upper, np.where(rng.random(upper.size) < 0.3, 0.0, upper)):
            got, want = _branch_pieces(model, x, up), _reference_branch_pieces(ref, x, up)
            assert list(got) == want
            leaves += not want
    assert not list(_branch_pieces(model, integral, upper))
    assert list(_branch_pieces(model, tied, upper)) == multi[1].z_vars
    assert list(_branch_pieces(model, uniform, upper)) == [
        z for z in max(multi, key=lambda nf: len(nf.z_vars)).z_vars]
    assert 0 < leaves < 2 * len(cases)


@pytest.mark.parametrize("kind", KINDS)
def test_forward_equals_the_per_neuron_loop(kind):
    net = _mixed_query(kind, 0.1).network
    rng = np.random.default_rng(14)
    batch = net.input_box.sample(rng, 40)
    batch[0] = net.input_box.lower
    batch[1] = net.input_box.upper
    assert net.forward(batch).tobytes() == _reference_forward(net, batch).tobytes()
    for x in batch[:8]:
        assert net.forward(x).tobytes() == _reference_forward(net, x).tobytes()


def test_forward_builds_its_functions_once_and_still_raises(monkeypatch):
    calls = []
    interval_bounds = bounds_mod.interval_bounds

    def counted(*args):
        calls.append(args)
        return interval_bounds(*args)

    monkeypatch.setattr(bounds_mod, "interval_bounds", counted)
    net = Network((Layer.dense([[1000.0]], [0.0], ActivationSpec("relu", {})),),
                  BoxDomain([-1.0], [1.0]))
    inputs = ([0.5], [[-0.25], [0.75]], [1.0])
    outputs = [net.forward(np.array(x)) for x in inputs]
    assert len(calls) == 1
    for x, out in zip(inputs, outputs):
        assert out.tobytes() == _reference_forward(net, x).tobytes()
    # inside the box's 1e-9 tolerance, but 5e-7 past the interval range
    for x in ([1.0 + 5e-10], [-1.0 - 5e-10]):
        with pytest.raises(DomainError, match=r"neuron \(0,0\) left") as new:
            net.forward(np.array(x))
        with pytest.raises(DomainError) as old:
            _reference_forward(net, x)
        assert str(new.value) == str(old.value)
    with pytest.raises(DomainError, match="input box"):
        net.forward(np.array([1.1]))



def _off_box_slabs(model):
    """Keys of the neurons with a piece whose slab misses the range of w.x over the box."""
    off = []
    for nf in model.activated_neurons():
        try:
            _slice_ends(nf.neuron)
        except FormulationError:
            off.append(nf.key)
    return off


@pytest.mark.parametrize("kind", KINDS)
def test_every_lp_mode_answers_the_mixed_queries(kind):
    # a second-layer neuron's DeepPoly interval can reach past the range of
    # w.x over its (exact, first-layer) input box; its Cayley seeds then
    # take a slab off the box, whose z = 1 the slab rows make infeasible
    modes = ("bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact")
    for eps in (0.05, 0.3):
        q = _mixed_query(kind, eps)
        if (kind, eps) == ("tanh-style", 0.3):
            assert _off_box_slabs(build_query_model(q, CAYLEY))
        reports = {mode: verify(q, VerifyConfig(mode=mode, timeout=60)) for mode in modes}
        assert len({r.verdict for r in reports.values()}) == 1, (kind, eps)
        assert all(r.diagnostic == "" for r in reports.values()), (kind, eps)
        (target,) = reports["bigm-exact"].target_bounds
        bigm_lp, cayley_lp, bigm, cayley = (reports[m].target_bounds[target] for m in modes)
        assert cayley == pytest.approx(bigm, rel=1e-9, abs=1e-9)
        assert bigm - 1e-9 <= cayley_lp <= bigm_lp + 1e-9
