"""Inexact (LP + cutting planes) and exact (branch-and-bound) verification.

A query is robust when every target-attack optimum stays below the threshold.
Every LP mode builds one model per query and runs one loop over the targets;
a target changes only the model's objective, so rows and pooled hull cuts
carry over. The first LP of a query starts at a feasible forward-pass point,
each later target's first LP at the previous target's last relaxed solution
or branch-and-bound root, whose basis stays primal feasible. Relaxed modes
bound a target by its LP, and cayley-lp's
cut loop, `_solve_with_cuts`, alternates solving with per-neuron separation
until no pooled-new cut is violated or its round cap is reached, and a flat
staircase neuron is separated in one direction per point. Exact modes run
best-first branch-and-bound on the piece indicators; a node is a vector of
variable upper bounds, solved once with the model's rows (in cayley mode its
seed cuts), and a branch bisects the pieces the least integral neuron allows
by setting the z of each dropped piece to 0. No exact node separates: each
neuron's y rows (its seeds, or Big-M's) pin every integral point to its
piece, so the leaves are exact.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from .errors import InputError, NumericalError, StairVerifyError
from .formulations import (BIGM, CAYLEY, QueryModel, VerificationQuery,
                           attack_objective, build_query_model)
from .lp import LpSolution, solve
from .pwl import staircase_slope
from .separation import LOWER, UPPER, on_vertex_graph, separate_pwl

MODES = ("deeppoly", "bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact")
TIMEOUT = "timeout limit reached"
MIP_GAP = 1e-9   # a node is pruned unless its bound beats the incumbent by more


@dataclass
class VerifyConfig:
    """Verification settings. `max_cut_rounds` caps the cut rounds of each
    target in cayley-lp, the one mode that separates; `node_limit` caps each
    target's distinct branch-and-bound nodes (`VerifyReport.nodes`). The y
    rows (seeds, or Big-M's) pin every integral point to its piece, so
    branch-and-bound is exact without cuts. `cut_tol`, `timeout` and
    `node_limit` must be positive and `max_cut_rounds` nonnegative (NaN is
    rejected)."""

    mode: str = "cayley-lp"
    max_cut_rounds: int = 20
    cut_tol: float = 1e-6
    node_limit: int = 20000
    timeout: float = 120.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}; choose from {MODES}")
        for name in ("cut_tol", "timeout", "node_limit"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.max_cut_rounds >= 0:
            raise InputError(f"max_cut_rounds must be nonnegative, got {self.max_cut_rounds}")

    @property
    def formulation(self) -> str:
        return CAYLEY if self.mode.startswith("cayley") else BIGM

    @property
    def is_exact(self) -> bool:
        return self.mode.endswith("exact")


@dataclass
class VerifyReport:
    """Outcome and counters of one query. `nodes` counts the distinct
    branch-and-bound nodes an exact search solved; `rounds` counts the cut
    rounds that added cuts, summed over the targets, in cayley-lp (0 in
    every other mode). `separation_calls` counts the
    (neuron, direction) points the cut rounds checked, a flat staircase
    neuron once per point, a neuron with one piece on its interval (every
    stable or pinned one, whose Big-M rows write its hull) never, and any
    other neuron twice. `lp_dual_iterations` counts the dual simplex's
    pivots, which bring every LP start that misses its bounds (a cold
    start, a branch-and-bound child, a re-solve after cut rows) to a
    feasible basis, and `lp_phase2_iterations` the primal simplex's pivots
    from there to the optimum, over `lp_solves` solves."""
    verdict: str                      # robust | falsified | unknown
    target_bounds: dict = field(default_factory=dict)   # target -> best upper bound
    counterexample: np.ndarray | None = None
    cuts_added: int = 0
    nodes: int = 0
    gap_percent: float = 0.0
    solve_time: float = 0.0
    separation_time: float = 0.0
    rounds: int = 0
    separation_failures: int = 0      # oracle errors inside the cut loop
    separation_calls: int = 0         # (neuron, direction) points the cut loop checked
    separation_screened: int = 0      # of those, answered by the vertex screen
    lp_solves: int = 0
    lp_phase2_iterations: int = 0
    lp_dual_iterations: int = 0
    warm_solves: int = 0              # LP solves that started from a warm solution
    lp_refactorizations: int = 0      # basis inversions of those LP solves
    diagnostic: str = ""

    def as_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["target_bounds"] = {str(k): v for k, v in self.target_bounds.items()}
        doc["counterexample"] = (None if self.counterexample is None
                                 else [float(v) for v in self.counterexample])
        return doc


def _solve(lp, warm, report: VerifyReport):
    """`lp.solve`, counted with its iteration, warm-start and inversion counts in `report`."""
    sol = solve(lp, warm)
    report.lp_solves += 1
    report.lp_phase2_iterations += sol.iterations
    report.lp_dual_iterations += sol.dual_iterations
    report.warm_solves += sol.warm_used
    report.lp_refactorizations += sol.refactorizations
    return sol


def _forward_start(model: QueryModel) -> LpSolution:
    """The forward pass of the input corner where DeepPoly bounds the current
    objective, on the slack basis (empty `basis`). With sound bounds it meets
    every row of both formulations, pooled cuts included, so the dual
    simplex has nothing to repair."""
    corner = bounds_mod.upper_corner(model.net, model.region,
                                     model.objective[model.y_vars[-1]], model.bounds)
    return LpSolution("optimal", x=model.trace_assignment(corner), basis=[])


def _replay(network, x, label) -> bool:
    try:
        return int(np.argmax(network.forward(x))) != label
    except StairVerifyError:
        return False


def _cut_round(model: QueryModel, x: np.ndarray, tol: float, report: VerifyReport) -> int:
    """Separate every activated neuron at the LP point; returns cuts added.

    A neuron with one piece on its interval (every stable or pinned one) is
    skipped: its Big-M rows write its hull, one affine graph, exactly. A flat
    staircase (slope 0) is separated UPPER only: its alpha = 0 seed pair, or
    Big-M's y = sum_i d_i z_i, holds y at the z-weighted piece levels from
    both sides, and the ray sweeps read only (x, z), so LOWER gives the same
    cut. Points on the graph at a simplex vertex are answered by
    `on_vertex_graph` without the oracle; the report counts checked and
    screened points, and any oracle error in `separation_failures`.
    """
    added = 0
    for nf in model.activated_neurons():
        if len(nf.z_vars) == 1:
            continue
        xin, yv, zv = model.neuron_point(x, nf.key)
        xin = nf.neuron.box.clamp(xin)
        zv = np.maximum(zv, 0.0)
        total = zv.sum()
        zv = zv / total if total > 0 else np.full_like(zv, 1.0 / zv.size)
        flat = staircase_slope(nf.neuron.activation) == 0.0
        for direction in (UPPER,) if flat else (UPPER, LOWER):
            report.separation_calls += 1
            if on_vertex_graph(nf.neuron, xin, yv, zv, direction, tol):
                report.separation_screened += 1
                continue
            try:
                cut = separate_pwl(nf.neuron, xin, yv, zv, direction, tol=tol)
            except StairVerifyError:
                report.separation_failures += 1
                continue
            if cut is not None and cut.violation(xin, yv, zv) > tol:
                if model.add_cut(nf, cut):
                    added += 1
    return added


def _verify_targets(query: VerificationQuery, config: VerifyConfig) -> VerifyReport:
    """The target loop of every LP mode, over one model built for the query.

    The deadline is checked before each target. Each target's upper bound,
    from `_solve_with_cuts` or `_branch_and_bound`, is recorded. Robust iff
    every bound stays at or below the threshold; the first bound above it
    ends the loop, `falsified` when `_counterexample` turns the bounding point
    into a label flip and `unknown` otherwise. A limit's diagnostic stays on
    the report, since a bound cut short by a limit is sound but not tight.
    """
    report = VerifyReport(verdict="robust")
    t0 = time.monotonic()
    deadline = t0 + config.timeout
    preact = bounds_mod.deeppoly_bounds(query.network, query.input_region())
    model = build_query_model(query, config.formulation, preact)
    start = None   # the previous target's last relaxed solution or root solution
    for target in query.targets():
        if time.monotonic() > deadline:
            report.verdict = "unknown"
            report.diagnostic = TIMEOUT
            break
        model.set_target(target)
        warm = _forward_start(model) if start is None else start
        if config.is_exact:
            value, sol, diag, start = _branch_and_bound(model, config, deadline, report, warm)
        else:
            value, sol, diag = _solve_with_cuts(model, config, report, deadline, warm)
            start = sol
        report.diagnostic = diag or report.diagnostic
        if value is None:
            report.verdict = "unknown"
            break
        report.target_bounds[target] = value
        if value > query.xi + 1e-9:
            x_cand = None if sol is None else _counterexample(model, sol.x, report)
            if x_cand is None:
                report.verdict = "unknown"
                report.diagnostic = diag or (
                    "optimum above threshold but replay failed" if config.is_exact
                    else "relaxation bound above threshold; no counterexample found")
            else:
                report.verdict = "falsified"
                report.counterexample = x_cand
            break
    report.solve_time = time.monotonic() - t0 - report.separation_time
    return report


def _solve_with_cuts(model: QueryModel, config: VerifyConfig, report: VerifyReport,
                     deadline: float, warm: LpSolution | None = None):
    """Solve the relaxation; in cayley mode add violated cuts until stable.

    The first solve starts from `warm`, each re-solve from the previous
    solution. Returns (value, last LpSolution, diagnostic), value None when
    the LP has no optimum, and adds the rounds, cuts, separation and LP
    counts to `report`. No round runs after `config.max_cut_rounds` rounds.
    Past the deadline no round runs, and the last (sound) value comes with
    the timeout diagnostic. The objective is non-increasing round over round
    since rows only accumulate.
    """
    prev = np.inf
    rounds = 0
    sol = warm
    while True:
        sol = _solve(model.to_lp(), sol, report)
        if sol.status == "infeasible":
            return None, None, "relaxation infeasible (stale bounds?)"
        if sol.status != "optimal":
            return None, None, f"LP {sol.status}"
        value = sol.objective
        if value > prev + 1e-9:
            raise NumericalError("cutting loop regressed the LP objective")
        prev = value
        if model.mode != CAYLEY or rounds >= config.max_cut_rounds:
            return value, sol, ""
        if time.monotonic() > deadline:
            return value, sol, TIMEOUT
        t0 = time.monotonic()
        added = _cut_round(model, sol.x, config.cut_tol, report)
        report.separation_time += time.monotonic() - t0
        if added == 0:
            return value, sol, ""
        report.cuts_added += added
        report.rounds += 1
        rounds += 1


def _verify_deeppoly(query: VerificationQuery) -> VerifyReport:
    report = VerifyReport(verdict="robust")
    t0 = time.monotonic()
    region = query.input_region()
    preact = bounds_mod.deeppoly_bounds(query.network, region)
    for target in query.targets():
        c = attack_objective(query.network.output_dim, query.label, target)
        bound = bounds_mod.output_linear_bound(query.network, region, c, preact)
        report.target_bounds[target] = bound
        if bound > query.xi + 1e-9:
            report.verdict = "unknown"
            break
    report.solve_time = time.monotonic() - t0
    return report


@dataclass(order=True)
class _Node:
    neg_bound: float
    serial: int
    upper: np.ndarray = field(compare=False)   # variable upper bounds, 0 on dropped pieces' z
    warm: LpSolution | None = field(compare=False, default=None)  # parent's solution


def _counterexample(model: QueryModel, point: np.ndarray, report: VerifyReport):
    """An input in the region that flips the label, found from a bounding point.

    The point is a relaxed LP optimum or a branch-and-bound incumbent, and
    its own input comes first. Closure semantics let it sit on a breakpoint
    where the network takes another piece, and a relaxed point need not lie
    on the graph at all, so the fallback keeps its piece pattern (argmax z
    per neuron) and solves `pattern_lp` with the interior slab edges pulled
    in by each margin in turn, taking the first optimum above the threshold
    that replays to a flip. A larger margin only shrinks the slabs, so the
    ladder stops at the first LP that is infeasible or has no optimum above
    the threshold. Any input of the region that flips the label will do, so
    the `_forward_start` corner is the last try. None if none does.
    """
    query = model.query
    x_cand = model.input_point(point)
    if _replay(query.network, x_cand, query.label):
        return x_cand
    pattern = [int(np.argmax(model.neuron_point(point, nf.key)[2]))
               for nf in model.activated_neurons()]
    for margin in (1e-9, 1e-7, 1e-5):
        sol = _solve(model.pattern_lp(pattern, margin), None, report)
        if sol.status != "optimal" or sol.objective <= query.xi + 1e-9:
            break
        x_cand = model.input_point(sol.x)
        if _replay(query.network, x_cand, query.label):
            return x_cand
    x_cand = model.input_point(_forward_start(model).x)
    return x_cand if _replay(query.network, x_cand, query.label) else None


def _branch_and_bound(model: QueryModel, config: VerifyConfig,
                      deadline: float, report: VerifyReport, start: LpSolution):
    """Best-first search; returns (upper bound, incumbent, diagnostic, root).

    A node is the model's variable upper bounds with the z of every piece
    its branches dropped at 0. Each node's LP is solved once, with the
    model's rows and no separation; a node is pushed only to be branched,
    and dropped when its LP has no optimum. An integral node's LP value is
    exact, since seeds or Big-M rows pin its point to its pieces. The root
    LP starts from `start` (a `_forward_start` point, or the previous
    target's root), node LPs from the parent's solution; `root` is the root
    LP's optimal solution, if any. Without a limit the bound is the exact
    optimum, attained by the incumbent LpSolution (None when no node is
    feasible). The search stops at this target's node limit or the deadline;
    the bound is then the larger of the best open node's bound and the
    incumbent's value, which is sound, and the diagnostic names the limit.
    """
    serial = itertools.count()
    incumbent = -np.inf
    incumbent_sol = root = None
    heap: list[_Node] = []
    node_budget = report.nodes + config.node_limit

    def push(upper, bound, warm):
        heapq.heappush(heap, _Node(-bound, next(serial), upper, warm))

    def stop(limit, open_bound):
        report.gap_percent = max(report.gap_percent, _gap_percent(open_bound, incumbent))
        return max(open_bound, incumbent), incumbent_sol, limit, root

    push(np.array(model.upper), np.inf, start)
    while heap:
        if time.monotonic() > deadline:
            return stop(TIMEOUT, -heap[0].neg_bound)
        if report.nodes >= node_budget:
            return stop("nodes limit reached", -heap[0].neg_bound)
        node = heapq.heappop(heap)
        if -node.neg_bound <= incumbent + MIP_GAP:
            continue
        report.nodes += 1
        sol = _solve(model.to_lp(node.upper), node.warm, report)
        if sol.status != "optimal" or sol.objective <= incumbent + MIP_GAP:
            continue
        root = root or sol   # the root's, since no node follows a root without optimum
        bound = sol.objective
        allowed = _branch_pieces(model, sol.x, node.upper)
        if len(allowed) <= 1:
            incumbent = bound
            incumbent_sol = sol
            continue
        half = len(allowed) // 2
        for dropped in (allowed[half:], allowed[:half]):
            child = node.upper.copy()
            child[dropped] = 0.0
            push(child, bound, sol)
    return incumbent, incumbent_sol, "", root


def _branch_pieces(model: QueryModel, x: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The z variables of the pieces that the least integral neuron at `x`
    still allows under `upper`: the pieces a branch there splits. The first
    neuron of the largest score 1 - max z wins, if it exceeds 1e-6. At most
    one when `x` is integral, which makes the node a leaf; a numerically
    fractional but structurally fixed neuron counts as integral."""
    starts = model.z_starts
    scores = np.append(1.0 - np.maximum.reduceat(x[model.z_index], starts[:-1]), 0.0)
    i = int(np.argmax(scores))   # the first largest; the appended 0 wins only at a leaf
    zs = model.z_index[starts[i]:starts[i + 1]] if scores[i] > 1e-6 else starts[:0]
    return zs[upper[zs] > 0]


def _gap_percent(bound: float, incumbent: float) -> float:
    if not np.isfinite(bound) or not np.isfinite(incumbent):
        return float("inf")
    return 100.0 * max(0.0, bound - incumbent) / max(1.0, abs(incumbent))


def verify(query: VerificationQuery, config: VerifyConfig) -> VerifyReport:
    """Verify `query` in `config.mode`: DeepPoly alone, an LP relaxation, or
    branch-and-bound."""
    if config.mode == "deeppoly":
        return _verify_deeppoly(query)
    return _verify_targets(query, config)
