"""The four seeded workloads: inputs, one operation, correctness checks.

Every input is drawn from ``--seed`` inside this file; the program under test
only ever sees the generated networks, queries and oracle instances. The
reference computations used by the checks (a batched forward pass written
here, sampled points, ``oracles.exhaustive_verify``) run after the timed
phase.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from stairverify import separation, verifier
from stairverify.errors import StairVerifyError
from stairverify.formulations import BIGM, VerificationQuery, build_query_model
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, Neuron
from stairverify.oracles import exhaustive_verify
from stairverify.pwl import PiecewiseLinear
from stairverify.separation import LOWER, UPPER

BOUND_TOL = 1e-6          # sampled objective may exceed a bound by float noise only
ORDER_TOL = 1e-7          # cayley-lp bound <= bigm-lp bound + ORDER_TOL
EXACT_TOL = 1e-6          # relative agreement of exact optima
CUT_TOL = 1e-6            # relative slack a cut may miss at a graph point
SAMPLES = 512             # random points per query for the soundness check
REF_PATTERNS = 64         # exhaustive reference only for targets with <= this many patterns
REF_LIMIT = 24            # and for at most this many (query, target) pairs per run


# -- inputs -------------------------------------------------------------------

def quantized_network(rng, n_in, hidden, n_out, weight_scale=1.0, bits=2) -> Network:
    """Dense net with 2-bit DoReFa hidden layers and an affine output layer.

    Draws in the same order as the test suite's ``random_quantized_network``,
    so ``default_rng(s)`` gives the same net there and here.
    """
    spec = ActivationSpec("dorefa", {"bits": bits, "lo": -1.0, "hi": 1.0})
    layers = []
    prev = n_in
    for width in hidden:
        layers.append(Layer.dense(rng.normal(size=(width, prev)) * weight_scale,
                                  rng.normal(size=width) * 0.3, spec))
        prev = width
    layers.append(Layer.dense(rng.normal(size=(n_out, prev)) * weight_scale,
                              rng.normal(size=n_out) * 0.1, None))
    return Network(tuple(layers), BoxDomain(-np.ones(n_in), np.ones(n_in)))


def forward(net: Network, xs: np.ndarray) -> np.ndarray:
    """Batched forward pass written from the DoReFa definition, not the package.

    Hidden activations are right-continuous: a pre-activation on a breakpoint
    takes the upper level, as in ``PiecewiseLinear``.
    """
    vals = np.atleast_2d(xs)
    for layer in net.layers:
        pre = vals @ layer.weights.T + layer.bias
        spec = layer.activations[0]
        if spec is None:
            vals = pre
            continue
        k = 2 ** int(spec.params["bits"])
        lo, hi = float(spec.params["lo"]), float(spec.params["hi"])
        inner = lo + (hi - lo) * np.arange(1, k) / k
        vals = np.searchsorted(inner, pre, side="right") / (k - 1)
    return vals


def anchored_query(rng, net: Network, eps: float) -> VerificationQuery:
    x0 = np.clip(rng.uniform(-0.6, 0.6, size=net.input_dim), -1.0, 1.0)
    label = int(np.argmax(forward(net, x0)[0]))
    return VerificationQuery(net, x0, eps, label)


def unstable_neurons(query: VerificationQuery) -> int:
    """Hidden neurons whose interval pre-activation range over the ball
    strictly contains a DoReFa breakpoint (interval arithmetic written here)."""
    lo = np.maximum(query.x0 - query.eps, query.network.input_box.lower)
    hi = np.minimum(query.x0 + query.eps, query.network.input_box.upper)
    count = 0
    for layer in query.network.layers:
        spec = layer.activations[0]
        if spec is None:
            break
        mid, rad = (lo + hi) / 2, (hi - lo) / 2
        centre = layer.weights @ mid + layer.bias
        spread = np.abs(layer.weights) @ rad
        pre_lo, pre_hi = centre - spread, centre + spread
        k = 2 ** int(spec.params["bits"])
        a, b = float(spec.params["lo"]), float(spec.params["hi"])
        inner = a + (b - a) * np.arange(1, k) / k
        count += int(np.sum(np.any((pre_lo[:, None] < inner) & (pre_hi[:, None] > inner),
                                   axis=1)))
        lo = np.searchsorted(inner, pre_lo, side="right") / (k - 1)
        hi = np.searchsorted(inner, pre_hi, side="right") / (k - 1)
    return count


def region_samples(rng, query: VerificationQuery, count: int) -> np.ndarray:
    """Uniform points of the eps-ball inside the input box, half on its corners."""
    lo = np.maximum(query.x0 - query.eps, query.network.input_box.lower)
    hi = np.minimum(query.x0 + query.eps, query.network.input_box.upper)
    inner = rng.uniform(lo, hi, size=(count - count // 2, lo.size))
    corners = np.where(rng.random((count // 2, lo.size)) < 0.5, lo, hi)
    return np.vstack([query.x0, inner, corners])


def stratified_order(pool: list, keys: list) -> list:
    """Reorder `pool` so that every prefix holds each key in about its share of
    the whole pool: the key furthest behind its share goes next, and items of
    one key keep their draw order. A proportional stratified sample of any
    length, with the pool's own proportions."""
    groups: dict = {}
    for item, key in zip(pool, keys):
        groups.setdefault(key, []).append(item)
    order = sorted(groups)
    taken = dict.fromkeys(order, 0)
    out = []
    for i in range(1, len(pool) + 1):
        key = max(order, key=lambda k: len(groups[k]) * i / len(pool) - taken[k])
        out.append(groups[key][taken[key]])
        taken[key] += 1
    return out


# -- operation records ----------------------------------------------------------

@dataclass
class Record:
    item: int
    latency: float = 0.0                           # wall seconds
    start: float = 0.0                             # perf_counter() at the start
    ref_latency: float = 0.0                       # seconds at the reference speed
    errors: list = field(default_factory=list)     # (mode, type, message)
    reports: dict = field(default_factory=dict)    # mode -> VerifyReport
    cut: object = None                             # oracle-sweep result
    gaps: dict = field(default_factory=dict)       # mode -> [bound - sampled max]

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    def outcome(self):
        """What a repeat of the same operation must reproduce exactly."""
        return ({m: (r.verdict, sorted(r.target_bounds.items()))
                 for m, r in self.reports.items()},
                self.cut is None, sorted((m, t) for m, t, _ in self.errors))


# -- verify workloads -------------------------------------------------------------

class VerifyWorkload:
    """Closed loop of verify() queries; one operation = one query in every mode."""

    modes: tuple[str, ...] = ()
    shape: tuple = ()
    zoo = 1
    weight_scale = 1.0
    eps = 0.0
    max_unstable = None   # drop anchors with more unstable neurons than this
    stratify = False      # order the corpus by network and unstable count (`generate`)
    corpus_size = 240
    tail_percentile = 90.0
    config: dict = {}
    warm_mode = "bigm-lp"

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list[VerificationQuery] = []

    def generate(self) -> None:
        """Fixed networks (net j drawn from default_rng(j)); seeded queries.

        As in benchmark suites built on trained models, the networks stay the
        same on every seed and the seed draws the verification queries: a
        pool of 2 x `corpus_size` free anchors, anchor i on
        network i mod zoo, each with its label. Anchors whose ball has more
        than `max_unstable` unstable neurons are dropped. With `stratify`,
        the corpus is `stratified_order` of the pool by (network, unstable
        count), so a run that reaches only part of the corpus still sees the
        pool's mix of networks and unstable counts.
        """
        n_in, hidden, n_out = self.shape
        nets = [quantized_network(np.random.default_rng(j), n_in, hidden, n_out,
                                  weight_scale=self.weight_scale)
                for j in range(self.zoo)]
        rng = np.random.default_rng(self.seed)
        pool = [anchored_query(rng, nets[i % len(nets)], self.eps)
                for i in range(2 * self.corpus_size)]
        if self.max_unstable is not None or self.stratify:
            keys = [(i % len(nets), unstable_neurons(q)) for i, q in enumerate(pool)]
            keep = [i for i, (_, c) in enumerate(keys)
                    if self.max_unstable is None or c <= self.max_unstable]
            pool, keys = [pool[i] for i in keep], [keys[i] for i in keep]
        if self.stratify:
            pool = stratified_order(pool, keys)
        self.items = pool[:self.corpus_size]
        self.warm = VerificationQuery(nets[0], np.zeros(n_in), self.eps,
                                      int(np.argmax(forward(nets[0], np.zeros(n_in))[0])))

    def warm_up(self) -> None:
        """One cheap verify() on a fixed query, so set-up work does not depend on the seed."""
        verifier.verify(self.warm, verifier.VerifyConfig(mode=self.warm_mode))

    def run_op(self, i: int) -> Record:
        rec = Record(i % len(self.items))
        query = self.items[rec.item]
        for mode in self.modes:
            cfg = verifier.VerifyConfig(mode=mode, **self.config)
            try:
                rec.reports[mode] = verifier.verify(query, cfg)
            except StairVerifyError as exc:
                rec.errors.append((mode, type(exc).__name__, str(exc)))
        return rec

    # checks run after the timed phase
    def check(self, records: list[Record]) -> list[str]:
        problems = []
        first: dict[int, Record] = {}
        for rec in records:
            if rec.item not in first:
                first[rec.item] = rec
            elif rec.outcome() != first[rec.item].outcome():
                problems.append(f"item {rec.item}: repeated query changed its outcome")
        rng = np.random.default_rng([self.seed, 7])
        for item, rec in sorted(first.items()):
            problems += self.check_query(rng, self.items[item], rec)
        return problems

    def check_query(self, rng, query, rec) -> list[str]:
        problems = []
        for mode, rep in rec.reports.items():
            if rep.verdict == "falsified":
                problems += _check_counterexample(query, rep, f"item {rec.item} {mode}")
        return problems

    def quality(self, records: list[Record]) -> dict:
        """Verdict fractions and mean largest target bound per mode, over distinct queries."""
        first = {}
        for rec in records:
            first.setdefault(rec.item, rec)
        out = {}
        for mode in self.modes:
            calls = len(first)
            reps = [r.reports[mode] for r in first.values() if mode in r.reports]
            for verdict in ("robust", "falsified", "unknown"):
                out[f"{verdict}_frac[{mode}]"] = (
                    sum(r.verdict == verdict for r in reps) / calls if calls else 0.0, "ratio")
            out[f"failed_frac[{mode}]"] = ((calls - len(reps)) / calls if calls else 0.0,
                                           "ratio")
            tops = [max(r.target_bounds.values()) for r in reps if r.target_bounds]
            if tops:
                out[f"bound_mean[{mode}]"] = (float(np.mean(tops)), "logit")
            gaps = [g for r in first.values() for g in r.gaps.get(mode, ())]
            if gaps:
                out[f"bound_gap[{mode}]"] = (float(np.mean(gaps)), "logit")
        return out


def _check_counterexample(query, rep, where) -> list[str]:
    x = rep.counterexample
    lo = np.maximum(query.x0 - query.eps, query.network.input_box.lower)
    hi = np.minimum(query.x0 + query.eps, query.network.input_box.upper)
    if x is None or np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        return [f"{where}: falsified without a counterexample in the ball"]
    if int(np.argmax(forward(query.network, x)[0])) == query.label:
        return [f"{where}: counterexample does not flip the label"]
    return []


def _check_sampled_bounds(rng, query, rec) -> list[str]:
    """Every reported target bound dominates the objective at sampled points.

    Records each bound's excess over the best sampled objective in
    `rec.gaps`; its mean is the `bound_gap` quality figure (lower is tighter).
    """
    out = forward(query.network, region_samples(rng, query, SAMPLES))
    problems = []
    for mode, rep in rec.reports.items():
        for target, bound in rep.target_bounds.items():
            best = float(np.max(out[:, target] - out[:, query.label]))
            rec.gaps.setdefault(mode, []).append(bound - best)
            if bound < best - BOUND_TOL * max(1.0, abs(best)):
                problems.append(f"item {rec.item} {mode}: target {target} bound "
                                f"{bound:.9g} below sampled value {best:.9g}")
    return problems


class RelaxedLp(VerifyWorkload):
    """Untargeted queries on the first 8 nets of the exact-bnb corpus, each
    solved as bigm-lp and as cayley-lp."""

    name = "relaxed-lp"
    modes = ("bigm-lp", "cayley-lp")
    shape = (5, (6, 6), 3)
    zoo = 8
    eps = 0.02
    stratify = True
    corpus_size = 480

    def check_query(self, rng, query, rec) -> list[str]:
        problems = super().check_query(rng, query, rec) + _check_sampled_bounds(rng, query, rec)
        if len(rec.reports) == 2:
            bigm, cayley = rec.reports["bigm-lp"], rec.reports["cayley-lp"]
            for target in set(bigm.target_bounds) & set(cayley.target_bounds):
                if cayley.target_bounds[target] > bigm.target_bounds[target] + ORDER_TOL:
                    problems.append(f"item {rec.item}: cayley-lp bound above bigm-lp "
                                    f"on target {target}")
        return problems


class ExactBnb(VerifyWorkload):
    """Both exact modes on the 5-6-6-3 nets drawn from default_rng(0..14)."""

    name = "exact-bnb"
    modes = ("bigm-exact", "cayley-exact")
    shape = (5, (6, 6), 3)
    zoo = 15
    eps = 0.02
    config = {"timeout": 60.0}
    # a free draw puts 17% of anchors at 5-11 unstable neurons (0.7 s per query
    # on average, up to 4.7 s); ops_per_s then spreads 0.36 across ten seeds,
    # against 0.11 with this cap (README.md)
    max_unstable = 4
    stratify = True
    corpus_size = 480

    def check(self, records: list[Record]) -> list[str]:
        self._ref_left = REF_LIMIT
        return super().check(records)

    def check_query(self, rng, query, rec) -> list[str]:
        problems = super().check_query(rng, query, rec)
        reps = rec.reports
        done = {m: r for m, r in reps.items() if "limit" not in r.diagnostic}
        targets = set.intersection(*(set(r.target_bounds) for r in done.values())) \
            if done else set()
        for target in sorted(targets):
            vals = [r.target_bounds[target] for r in done.values()]
            if max(vals) - min(vals) > EXACT_TOL * max(1.0, abs(vals[0])):
                problems.append(f"item {rec.item}: exact modes disagree on target "
                                f"{target}: {vals}")
            if self._ref_left <= 0:
                continue
            model = build_query_model(query.with_target(target), BIGM)
            if math.prod(len(o) for o in model.pattern_prefilter()) > REF_PATTERNS:
                continue
            self._ref_left -= 1
            ref = exhaustive_verify(model)
            if abs(vals[0] - ref) > EXACT_TOL * max(1.0, abs(ref)):
                problems.append(f"item {rec.item}: exact optimum {vals[0]:.9g} differs "
                                f"from exhaustive enumeration {ref:.9g}")
        return problems


class DeepPolyWide(VerifyWorkload):
    """deeppoly queries around random anchors of one wide net, each targeted at
    the runner-up label: an untargeted query stops at the first target it
    cannot verify, so its cost would depend on the verdicts, not the input."""

    name = "deeppoly-wide"
    modes = ("deeppoly",)
    warm_mode = "deeppoly"
    shape = (32, (64, 64, 64), 10)
    zoo = 1
    weight_scale = 0.15
    eps = 0.005
    corpus_size = 240

    def generate(self) -> None:
        super().generate()
        self.items = [q.with_target(int(np.argsort(forward(q.network, q.x0)[0])[-2]))
                      for q in self.items]

    def check_query(self, rng, query, rec) -> list[str]:
        return super().check_query(rng, query, rec) + _check_sampled_bounds(rng, query, rec)


# -- oracle sweep -------------------------------------------------------------------

@dataclass
class OracleItem:
    neuron: int
    x: np.ndarray
    y: float
    z: np.ndarray
    direction: str
    inside: bool


class OracleSweep:
    """separate_pwl on staircase and general PWL neurons over an (n, k) grid.

    Inside points are convex combinations of graph points and must be
    certified. Outside points sit beyond ``sum_i z_i max f(slice_i)`` (or
    below the matching min), which every point of the hull satisfies, so
    they must yield a cut.
    """

    name = "oracle-sweep"
    tail_percentile = 99.0
    sizes = tuple(itertools.product((16, 64, 256), (4, 16, 64)))
    # neurons per grid cell: staircases (every oracle call of the verify
    # workloads is on a DoReFa staircase) weigh twice general PWL
    per_cell = ((False, 8), (True, 4))
    mix = 4              # graph points per convex combination
    graph_samples = 256  # graph points per neuron for the validity check

    def __init__(self, seed: int):
        self.seed = seed
        self.neurons: list[Neuron] = []
        self.graphs: list[tuple] = []
        self.items: list[OracleItem] = []
        self.warm_neurons: list[int] = []

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        for n, k in self.sizes:
            for general, count in self.per_cell:
                self.warm_neurons.append(len(self.neurons))
                for _ in range(count):
                    self._add_neuron(rng, _oracle_neuron(rng, n, k, general))
        order = rng.permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def _add_neuron(self, rng, neuron: Neuron) -> None:
        """One inside and one outside point per direction."""
        idx = len(self.neurons)
        self.neurons.append(neuron)
        self.graphs.append(_graph_points(rng, neuron, self.graph_samples))
        f = neuron.activation
        left = f.slopes * f.breakpoints[:-1] + f.intercepts
        right = f.slopes * f.breakpoints[1:] + f.intercepts
        top, bottom = np.maximum(left, right), np.minimum(left, right)
        margin = 0.1 * (1.0 + float(top.max() - bottom.min()))
        for direction in (UPPER, LOWER):
            x, y, z = _convex_point(rng, neuron, self.mix)
            self.items.append(OracleItem(idx, x, y, z, direction, True))
            y_out = float(z @ top) + margin if direction == UPPER else float(z @ bottom) - margin
            self.items.append(OracleItem(idx, x, y_out, z, direction, False))

    def warm_up(self) -> None:
        """One call per grid cell and kind, so set-up work does not depend on the seed."""
        first = {}
        for i, it in enumerate(self.items):
            first.setdefault(it.neuron, i)
        for neuron in self.warm_neurons:
            self.run_op(first[neuron])

    def run_op(self, i: int) -> Record:
        rec = Record(i % len(self.items))
        it = self.items[rec.item]
        try:
            rec.cut = separation.separate_pwl(self.neurons[it.neuron], it.x, it.y, it.z,
                                              it.direction)
        except StairVerifyError as exc:
            rec.errors.append(("separate_pwl", type(exc).__name__, str(exc)))
        return rec

    def check(self, records: list[Record]) -> list[str]:
        problems = []
        first: dict[int, Record] = {}
        for rec in records:
            if rec.item in first:
                if rec.outcome() != first[rec.item].outcome():
                    problems.append(f"item {rec.item}: repeated call changed its answer")
                continue
            first[rec.item] = rec
            it = self.items[rec.item]
            if rec.failed:
                continue
            if it.inside and rec.cut is not None:
                problems.append(f"item {rec.item}: cut returned for a hull point")
            elif not it.inside and rec.cut is None:
                problems.append(f"item {rec.item}: no cut for a point outside the hull")
            elif rec.cut is not None:
                problems += _check_cut(rec.cut, it, self.graphs[it.neuron], rec.item)
        return problems

    def quality(self, records: list[Record]) -> dict:
        calls = len(records)
        cuts = sum(r.cut is not None for r in records)
        return {"cut_frac": (cuts / calls if calls else 0.0, "ratio"),
                "failed_frac": (sum(r.failed for r in records) / calls if calls else 0.0,
                                "ratio")}


def _oracle_neuron(rng, n: int, k: int, general: bool) -> Neuron:
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.3, 2.5, size=n)
    w = rng.normal(size=n)
    w[np.abs(w) < 0.05] = 0.3
    b = float(rng.normal())
    L = float(w @ np.where(w >= 0, lo, hi)) + b
    U = float(w @ np.where(w >= 0, hi, lo)) + b
    bp = np.concatenate([[L], np.sort(rng.uniform(L, U, size=k - 1)), [U]])
    for i in range(1, bp.size):
        bp[i] = max(bp[i], bp[i - 1] + 1e-3)
    if general:
        pool = rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=3, replace=False)
        slopes = rng.choice(pool, size=k)
        intercepts = np.empty(k)
        val = float(rng.normal())
        for i in range(k):
            if i > 0 and rng.random() < 0.4:
                val += 0.5 * float(rng.normal())
            intercepts[i] = val - slopes[i] * bp[i]
            val = slopes[i] * bp[i + 1] + intercepts[i]
    else:
        s = float(rng.choice([1.0, -1.0, 0.6, -0.4, 2.0]))
        slopes = rng.choice([0.0, s], size=k)
        intercepts = rng.normal(size=k)
    return Neuron(w, b, PiecewiseLinear(bp, slopes, intercepts), BoxDomain(lo, hi))


def _graph_points(rng, neuron: Neuron, count: int):
    """Points (x, y, piece) of the lifted graph, y = f(w.x + b)."""
    f = neuron.activation
    xs = rng.uniform(neuron.box.lower, neuron.box.upper, size=(count, neuron.dim))
    t = np.clip(xs @ neuron.weight + neuron.bias, f.lo, f.hi)
    piece = np.clip(np.searchsorted(f.breakpoints, t, side="right") - 1, 0, f.num_pieces - 1)
    return xs, f.slopes[piece] * t + f.intercepts[piece], piece


def _convex_point(rng, neuron: Neuron, mix: int):
    xs, ys, piece = _graph_points(rng, neuron, mix)
    lam = rng.dirichlet(np.ones(mix))
    z = np.zeros(neuron.activation.num_pieces)
    np.add.at(z, piece, lam)
    return lam @ xs, float(lam @ ys), z


def _check_cut(cut, it: OracleItem, graph, item: int) -> list[str]:
    problems = []
    if not cut.violation(it.x, it.y, it.z) > 0.0:
        problems.append(f"item {item}: returned cut is not violated at the query point")
    xs, ys, piece = graph
    rhs = xs @ cut.alpha + cut.zcoef[piece] + cut.const
    if cut.y_coef == 0.0:
        slack = rhs
    else:
        slack = rhs - ys if cut.direction == UPPER else ys - rhs
    scale = 1.0 + np.abs(xs) @ np.abs(cut.alpha) + np.abs(cut.zcoef).max() + np.abs(ys)
    if np.any(slack < -CUT_TOL * scale):
        problems.append(f"item {item}: cut violated at a graph point "
                        f"(slack {float(slack.min()):.3g})")
    return problems


WORKLOADS = {cls.name: cls for cls in (RelaxedLp, ExactBnb, DeepPolyWide, OracleSweep)}
