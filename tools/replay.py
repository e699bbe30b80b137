"""Replay a benchmark corpus through `verify` or the oracle and compare two replays.

Usage, from the repository root:

    python3 tools/replay.py --workload exact-bnb --seed 1 --out before.json
    python3 tools/replay.py --workload tanh-style --eps 0.1 --out before.json
    python3 tools/replay.py --workload oracle-sweep --seed 1 --out before.json
    python3 tools/replay.py --compare before.json after.json

The first form builds the queries of a verify workload of
`perfbench/workloads.py` (relaxed-lp, exact-bnb or deeppoly-wide) for the
seed, runs every query in each of the workload's modes with its config, and
writes every `VerifyReport.as_dict()` field except the two times, floats as
`float.hex`, so two replays compare bit for bit. Every mode adds a `bounds`
field, the sha256 of the query's `deeppoly_bounds` lower and upper arrays,
and a `relax` field, the sha256 of their relaxation: every layer's clipped
activations (breakpoints, slopes, intercepts) and DeepPoly lines; an LP
mode adds a `model` field: the sha256 of the tableau that `lp._Tableau`
builds from the LP of the model `verify` builds for the query ([A | I],
variable and slack bounds, right-hand sides) and of its objective, so the
digest does not depend on how `LinearProgram` names its fields. The
off-benchmark recipes `tanh-style` and `relu` (`tests/helpers.recipe_query`,
5-8-8-3 nets) take `--eps` in place of a seed and run 12 queries in all
five modes with the default config. `--items N` replays only the first N
items or queries of any corpus. Both print each mode's total time in seconds to three
significant digits (for a workload, the reports' summed solve and
separation time), nodes, LP solves, pivots (dual plus primal) and basis
inversions. The `oracle-sweep` workload writes each item's
`separate_pwl` result instead: the cut (alpha, zcoef, const and y_coef, as
`float.hex`), None, or the error. The last form prints, per mode, each
field that differs (how many queries, and the totals of a numeric field;
`bounds`, `relax` and `model` count the queries whose digest changed), the
largest relative change of a target bound, and every verdict change; it
exits 1 when a verdict changed. On two oracle-sweep replays it lists the items
that differ and exits 1 when a cut appears or disappears or an error comes
or goes.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIMES = ("solve_time", "separation_time")
RECIPES = ("tanh-style", "relu")
RECIPE_MODES = ("deeppoly", "bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact")


def _hex(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hex(v) for v in value]
    return value


def _fields(report) -> dict:
    return {k: _hex(v) for k, v in report.as_dict().items() if k not in TIMES}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _model_digest(query, mode: str, preact) -> str:
    """sha256 of the tableau and objective of the model `verify` builds for
    `query` in LP `mode`."""
    from stairverify.formulations import build_query_model
    from stairverify.lp import _Tableau
    from stairverify.verifier import VerifyConfig

    lp = build_query_model(query, VerifyConfig(mode=mode).formulation, preact).to_lp()
    tab = _Tableau(lp)
    return _digest((tab.A, tab.lower, tab.upper, tab.b, lp.objective))


def _relax_digest(preact) -> str:
    """sha256 of every layer's clipped activations (breakpoints, slopes and
    intercepts) and DeepPoly lines (cu, bu, cl, bl) in `preact.relaxation`."""
    return _digest([getattr(f, name) for lr in preact.relaxation for f in lr.functions
                    if f is not None for name in ("breakpoints", "slopes", "intercepts")]
                   + [a for lr in preact.relaxation for a in (lr.cu, lr.bu, lr.cl, lr.bl)])


def _with_digests(modes: dict, query) -> dict:
    """`modes` with every mode's `bounds` and `relax` digests and each LP
    mode's `model` digest (none for a mode that raised)."""
    from stairverify.bounds import deeppoly_bounds

    answered = {mode: fields for mode, fields in modes.items() if "error" not in fields}
    if answered:
        preact = deeppoly_bounds(query.network, query.input_region())
        bounds, relax = _digest(preact.lower + preact.upper), _relax_digest(preact)
    for mode, fields in answered.items():
        fields["bounds"], fields["relax"] = bounds, relax
        if mode != "deeppoly":
            fields["model"] = _model_digest(query, mode, preact)
    return modes


def _totals(mode: str, seconds: float, items: list) -> str:
    """One mode's line: its time, and its nodes, LP solves, pivots and
    inversions summed over the replayed reports (0 for a counter a report
    lacks)."""
    def total(*keys):
        return sum(item[mode].get(key, 0) for item in items for key in keys)

    return (f"{mode}: {seconds:.3g} s, {total('nodes')} nodes, {total('lp_solves')} solves, "
            f"{total('lp_dual_iterations', 'lp_phase2_iterations')} pivots, "
            f"{total('lp_refactorizations')} inversions")


def _corpus(workload: str, seed: int):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    work = WORKLOADS[workload](seed)
    work.generate()
    return work


def replay(workload: str, seed: int, items: int | None = None) -> dict:
    """The verify corpus (its first `items`): each query's report per mode.
    Prints each mode's summed solve and separation time and its counters."""
    work = _corpus(workload, seed)
    out = []
    seconds = {mode: 0.0 for mode in work.modes}
    for i in range(len(work.items))[:items]:
        rec = work.run_op(i)
        modes = {mode: _fields(rep) for mode, rep in rec.reports.items()}
        for mode, rep in rec.reports.items():
            seconds[mode] += rep.solve_time + rep.separation_time
        for mode, kind, message in rec.errors:
            modes[mode] = {"error": f"{kind}: {message}"}
        out.append(_with_digests(modes, work.items[rec.item]))
    for mode in work.modes:
        print(_totals(mode, seconds[mode], out))
    return {"workload": workload, "seed": seed, "modes": list(work.modes), "items": out}


def _cut_fields(rec):
    if rec.errors:
        _, kind, message = rec.errors[0]
        return {"error": f"{kind}: {message}"}
    cut = rec.cut
    return None if cut is None else {
        "alpha": _hex(cut.alpha.tolist()), "zcoef": _hex(cut.zcoef.tolist()),
        "const": _hex(float(cut.const)), "y_coef": _hex(float(cut.y_coef))}


def replay_cuts(seed: int, items: int | None = None) -> dict:
    """The oracle-sweep corpus (its first `items`): each item's cut, None, or its error."""
    work = _corpus("oracle-sweep", seed)
    return {"workload": "oracle-sweep", "seed": seed,
            "items": [_cut_fields(work.run_op(i)) for i in range(len(work.items))[:items]]}


def compare_cuts(a: dict, b: dict) -> int:
    """Print the oracle-sweep items that differ; 1 when an item's kind changed."""
    def kind(item):
        return "none" if item is None else "error" if "error" in item else "cut"

    differ = [i for i, (x, y) in enumerate(zip(a["items"], b["items"])) if x != y]
    print(f"{len(differ)} of {len(a['items'])} items differ" + (f": {differ}" if differ else ""))
    flips = [i for i in differ if kind(a["items"][i]) != kind(b["items"][i])]
    for i in flips:
        print(f"item {i}: {kind(a['items'][i])} -> {kind(b['items'][i])}")
    return 1 if flips else 0


def replay_recipe(recipe: str, eps: float, items: int | None = None) -> dict:
    """Replay the recipe's 12 queries (the first `items` if given)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from helpers import recipe_query
    from stairverify.verifier import VerifyConfig, verify

    queries = range(12)[:items]
    out = [{} for _ in queries]
    for mode in RECIPE_MODES:
        t0 = time.perf_counter()
        for j in queries:
            out[j][mode] = _fields(verify(recipe_query(recipe, j, eps), VerifyConfig(mode=mode)))
        print(_totals(mode, time.perf_counter() - t0, out))
    for j, item in enumerate(out):
        _with_digests(item, recipe_query(recipe, j, eps))
    return {"workload": recipe, "seed": None, "eps": eps, "modes": list(RECIPE_MODES),
            "items": out}


def _float(value) -> float:
    return float.fromhex(value) if isinstance(value, str) else float(value)


def compare(a: dict, b: dict) -> int:
    """Print the differences of replay `b` from replay `a`; 1 on a verdict change."""
    def corpus(doc):
        return doc["workload"], doc["seed"], doc.get("eps"), len(doc["items"])

    if corpus(a) != corpus(b):
        sys.exit("error: the replays are of different corpora")
    if a["workload"] == "oracle-sweep":
        return compare_cuts(a, b)
    verdicts = []
    for mode in a["modes"]:
        fields: dict[str, list] = {}
        worst = (0.0, None)
        for item, (ra, rb) in enumerate(zip(a["items"], b["items"])):
            ra, rb = ra.get(mode, {}), rb.get(mode, {})
            for key in sorted(set(ra) | set(rb)):
                if ra.get(key) != rb.get(key):
                    fields.setdefault(key, []).append(item)
            if ra.get("verdict") != rb.get("verdict"):
                verdicts.append((item, mode, ra.get("verdict"), rb.get("verdict")))
            ba, bb = ra.get("target_bounds", {}), rb.get("target_bounds", {})
            for target in set(ba) & set(bb):
                x, y = _float(ba[target]), _float(bb[target])
                if x != y:
                    rel = abs(y - x) / max(abs(x), abs(y))
                    if not rel <= worst[0]:
                        worst = (rel, (item, target))
        print(f"{mode}: {len(fields)} differing fields")
        for key, items in fields.items():
            line = f"  {key}: {len(items)} queries"
            va, vb = ([r.get(mode, {}).get(key) for r in doc["items"]] for doc in (a, b))
            if all(type(v) is int for v in va + vb):
                line += f", total {sum(va)} -> {sum(vb)}"
            print(line)
        where = "" if worst[1] is None else f" (item {worst[1][0]}, target {worst[1][1]})"
        print(f"  largest relative target-bound change: {worst[0]:.3g}{where}")
    for item, mode, before, after in verdicts:
        print(f"verdict change: item {item} {mode}: {before} -> {after}")
    return 1 if verdicts else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("relaxed-lp", "exact-bnb", "deeppoly-wide", "oracle-sweep")
                        + RECIPES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--eps", type=float, default=0.05, help="ball radius of a recipe")
    parser.add_argument("--items", type=int, help="replay only the corpus's first N items")
    parser.add_argument("--out", help="replay file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two replay files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(a, b)
    if not (args.workload and args.out):
        parser.error("give --workload and --out, or --compare A B")
    if args.workload in RECIPES:
        doc = replay_recipe(args.workload, args.eps, args.items)
    elif args.workload == "oracle-sweep":
        doc = replay_cuts(args.seed, args.items)
    else:
        doc = replay(args.workload, args.seed, args.items)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
