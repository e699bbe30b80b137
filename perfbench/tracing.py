"""Spans around the public stairverify calls, recorded from outside the package.

The tracer replaces module and class attributes at the call sites the
verifier, the formulations and the benchmark itself use, records one span per
call (name, start, end, parent span, operation id and a few counters read from
the call's arguments and result), and puts every attribute back on
``uninstall``. Nothing inside ``src/`` is edited. Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import json
import time

import numpy as np

from stairverify import bounds, formulations, separation, verifier


def _lp_attrs(args, kwargs, sol):
    lp = args[0]
    warm = kwargs.get("warm_basis", args[1] if len(args) > 1 else None)
    m, n = len(lp.rows), lp.num_vars
    out = {"warm": warm is not None, "bytes": m * (n + m) * 8}
    if sol is not None:
        out.update(iters=sol.iterations, status=sol.status)
    return out


def _cut_attrs(args, kwargs, cut):
    return {"cut": cut is not None}


def _rows_attrs(args, kwargs, lp):
    return {"rows": len(lp.rows)}


def _new_attrs(args, kwargs, new):
    return {"new": bool(new)}


def _width_attrs(args, kwargs, pre):
    widths = np.concatenate([hi - lo for lo, hi in zip(pre.lower, pre.upper)])
    return {"width": float(widths.mean())}


def _report_attrs(args, kwargs, report):
    return {"nodes": report.nodes, "rounds": report.rounds,
            "cuts": report.cuts_added}


# (owner, attribute, span name, counters read from (args, kwargs, result))
CALL_SITES = (
    (verifier, "verify", "verifier.verify", _report_attrs),
    (verifier, "solve", "lp.solve", _lp_attrs),
    (verifier, "separate_pwl", "separation.separate", _cut_attrs),
    (separation, "separate_pwl", "separation.separate", _cut_attrs),
    (verifier, "build_query_model", "formulations.build", None),
    (formulations.QueryModel, "to_lp", "formulations.to_lp", _rows_attrs),
    (formulations.QueryModel, "add_cut", "formulations.add_cut", _new_attrs),
    (formulations, "retrieve_cut", "separation.retrieve", None),
    (formulations, "deeppoly_bounds", "bounds.deeppoly", _width_attrs),
    (bounds, "deeppoly_bounds", "bounds.deeppoly", _width_attrs),
    (bounds, "output_linear_bound", "bounds.output", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op})
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    def _wrap(self, fn, name, describe):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, error=type(exc).__name__)
                raise
            self.end(idx, **(describe(args, kwargs, result) if describe else {}))
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, describe in CALL_SITES:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, had_own, original))
            setattr(owner, attr, self._wrap(original, name, describe))

    def uninstall(self) -> None:
        for owner, attr, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, as listed in BENCHMARK.json."""
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith((".s", "self_s")):
        return "s/op"
    if name.endswith("iters_per_call"):
        return "iter/call"
    if name.endswith("bytes_computed"):
        return "B/op"
    if name.endswith("lp_rows_mean"):
        return "rows"
    if name.endswith("width_mean"):
        return "1"
    return "count/op"


LAYERS = ("lp.solve", "separation.separate", "separation.retrieve",
          "formulations.build", "formulations.to_lp", "formulations.add_cut",
          "bounds.deeppoly", "bounds.output", "verifier.verify", "bench.op")


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict, dict]:
    """Per-operation layer counters and self times, plus each layer's time share.

    Counts and seconds are divided by the number of traced operations so that
    runs completing different numbers of operations stay comparable.
    """
    own = tracer.self_times()
    by: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by.setdefault(s["name"], []).append(i)

    def spans(name):
        return [tracer.spans[i] for i in by.get(name, [])]

    def calls(name):
        return len(by.get(name, [])) / ops

    def self_s(name):
        return sum(own[i] for i in by.get(name, [])) / ops

    def frac(items, key):
        return sum(1 for s in items if s.get(key)) / len(items) if items else 0.0

    def mean(items, key):
        vals = [s[key] for s in items if key in s]
        return float(np.mean(vals)) if vals else 0.0

    def total(items, key):
        return sum(s.get(key, 0) for s in items) / ops

    lp = spans("lp.solve")
    sep = spans("separation.separate")
    verify = spans("verifier.verify")
    iters = sum(s.get("iters", 0) for s in lp)
    m = {
        "lp.solve.calls": calls("lp.solve"),
        "lp.solve.s": self_s("lp.solve"),
        "lp.solve.iters": iters / ops,
        "lp.solve.iters_per_call": iters / len(lp) if lp else 0.0,
        "lp.solve.warm_frac": frac(lp, "warm"),
        "lp.solve.failed": sum(1 for s in lp if "error" in s) / ops,
        "lp.solve.nonoptimal": sum(1 for s in lp if s.get("status", "optimal")
                                   != "optimal") / ops,
        "lp.solve.bytes_computed": total(lp, "bytes"),
        "separation.calls": calls("separation.separate"),
        "separation.s": self_s("separation.separate"),
        "separation.cut_frac": frac(sep, "cut"),
        "separation.failed": sum(1 for s in sep if "error" in s) / ops,
        "separation.retrieve.calls": calls("separation.retrieve"),
        "separation.retrieve.s": self_s("separation.retrieve"),
        "formulations.build.calls": calls("formulations.build"),
        "formulations.build.s": self_s("formulations.build"),
        "formulations.to_lp.calls": calls("formulations.to_lp"),
        "formulations.to_lp.s": self_s("formulations.to_lp"),
        "formulations.lp_rows_mean": mean(spans("formulations.to_lp"), "rows"),
        "formulations.add_cut.calls": calls("formulations.add_cut"),
        "formulations.add_cut.new_frac": frac(spans("formulations.add_cut"), "new"),
        "verifier.self_s": self_s("verifier.verify"),
        "verifier.cut_rounds": total(verify, "rounds"),
        "verifier.cuts_added": total(verify, "cuts"),
        "verifier.bnb_nodes": total(verify, "nodes"),
        "bounds.deeppoly.calls": calls("bounds.deeppoly"),
        "bounds.deeppoly.s": self_s("bounds.deeppoly"),
        "bounds.output.calls": calls("bounds.output"),
        "bounds.output.s": self_s("bounds.output"),
        "bounds.width_mean": mean(spans("bounds.deeppoly"), "width"),
    }
    busy = sum(own)
    shares = {name: 100.0 * sum(own[i] for i in by.get(name, [])) / busy
              for name in LAYERS} if busy > 0 else {}
    return m, shares
