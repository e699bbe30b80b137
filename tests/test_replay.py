import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stairverify.lp import INF

spec = importlib.util.spec_from_file_location(
    "replay", Path(__file__).resolve().parent.parent / "tools" / "replay.py")
replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay)


def _doc(verdict, bound, calls):
    report = {"verdict": verdict, "target_bounds": {"1": float.hex(bound)},
              "separation_calls": calls, "diagnostic": ""}
    return {"workload": "exact-bnb", "seed": 1, "modes": ["cayley-exact"],
            "items": [{"cayley-exact": report}]}


def test_compare_reports_fields_bounds_and_verdicts(capsys):
    base = _doc("robust", -2.0, 8)
    assert replay.compare(base, base) == 0
    assert "0 differing fields" in capsys.readouterr().out
    assert replay.compare(base, _doc("robust", -2.0 * (1 + 1e-12), 4)) == 0
    out = capsys.readouterr().out
    assert "separation_calls: 1 queries, total 8 -> 4" in out
    assert "target_bounds: 1 queries" in out and "change: 1e-12" in out
    assert replay.compare(base, _doc("unknown", -2.0, 8)) == 1
    assert "verdict change: item 0 cayley-exact: robust -> unknown" in capsys.readouterr().out


def test_recipe_replay_runs_every_mode(capsys):
    doc = replay.replay_recipe("relu", 0.05, items=1)
    assert (doc["workload"], doc["eps"], doc["modes"]) == (
        "relu", 0.05, ["deeppoly", "bigm-lp", "cayley-lp", "bigm-exact", "cayley-exact"])
    (item,) = doc["items"]
    assert set(item) == set(doc["modes"])
    for report in item.values():
        assert "solve_time" not in report and report["verdict"] in ("robust", "falsified")
        assert all(isinstance(v, str) for v in report["target_bounds"].values())
    _check_totals(doc, capsys.readouterr().out.splitlines())
    assert replay.compare(doc, doc) == 0
    with pytest.raises(SystemExit, match="different corpora"):
        replay.compare(doc, {**doc, "eps": 0.1})


def test_oracle_sweep_replay_lists_changed_cuts(capsys):
    doc = replay.replay_cuts(1, items=8)
    assert (doc["workload"], doc["seed"], len(doc["items"])) == ("oracle-sweep", 1, 8)
    cuts = [i for i, item in enumerate(doc["items"]) if item is not None]
    assert 0 < len(cuts) < 8
    for i in cuts:
        assert set(doc["items"][i]) == {"alpha", "zcoef", "const", "y_coef"}
        assert all(isinstance(v, str) for v in doc["items"][i]["zcoef"])
    assert replay.compare(doc, doc) == 0
    assert "0 of 8 items differ" in capsys.readouterr().out

    def changed(i, item):
        return {**doc, "items": doc["items"][:i] + [item] + doc["items"][i + 1:]}

    i, inside = cuts[0], doc["items"].index(None)
    nudged = {**doc["items"][i], "const": float.hex(1e-300)}
    assert replay.compare(doc, changed(i, nudged)) == 0
    assert f"1 of 8 items differ: [{i}]" in capsys.readouterr().out
    assert replay.compare(doc, changed(i, None)) == 1
    assert f"item {i}: cut -> none" in capsys.readouterr().out
    assert replay.compare(doc, changed(inside, {"error": "DomainError: x"})) == 1
    assert f"item {inside}: none -> error" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="different corpora"):
        replay.compare(doc, {**doc, "seed": 2})


LINE = re.compile(r"(\S+): (\d[\d.e+-]*) s, (\d+) nodes, (\d+) solves, (\d+) pivots, "
                  r"(\d+) inversions")


def _check_totals(doc, lines):
    """Each mode's line sums its reports' nodes, LP solves, pivots and inversions."""
    assert len(lines) == len(doc["modes"])
    for mode, line in zip(doc["modes"], lines):
        name, seconds, *counts = LINE.fullmatch(line).groups()
        assert name == mode and float(seconds) > 0.0
        reports = [item[mode] for item in doc["items"]]
        assert [int(c) for c in counts] == [
            sum(r[key] for r in reports) for key in ("nodes", "lp_solves")] + [
            sum(r["lp_dual_iterations"] + r["lp_phase2_iterations"] for r in reports),
            sum(r["lp_refactorizations"] for r in reports)]
        # every LP mode solves an LP, and DeepPoly none
        assert int(counts[1]) >= int(counts[0]) and (int(counts[1]) > 0) == (mode != "deeppoly")


def test_corpus_replay_prints_each_mode_time_and_nodes(capsys):
    doc = replay.replay("exact-bnb", 1, items=3)
    assert (doc["workload"], doc["modes"], len(doc["items"])) == (
        "exact-bnb", ["bigm-exact", "cayley-exact"], 3)
    _check_totals(doc, capsys.readouterr().out.splitlines())
    for item in doc["items"]:
        assert all(item[mode]["lp_solves"] >= item[mode]["nodes"] > 0 for mode in doc["modes"])


def test_replay_records_each_lp_model_and_compare_lists_a_perturbed_row(capsys, monkeypatch):
    from stairverify import formulations

    doc = replay.replay("exact-bnb", 1, items=2)
    for item in doc["items"]:
        assert all(re.fullmatch(r"[0-9a-f]{64}", item[mode]["model"]) for mode in doc["modes"])
        assert len({item[mode]["bounds"] for mode in doc["modes"]}) == 1
    assert replay.compare(doc, doc) == 0
    assert "model" not in capsys.readouterr().out
    write_rows = formulations._RowModel._write_rows

    def perturbed(self):   # the last row's finite upper bound, else its lower one, one ulp up
        write_rows(self)
        side = "row_upper" if self.row_upper[-1] < INF else "row_lower"
        bounds = getattr(self, side).copy()
        bounds[-1] = np.nextafter(bounds[-1], np.inf)
        setattr(self, side, bounds)

    monkeypatch.setattr(formulations._RowModel, "_write_rows", perturbed)
    replay.compare(doc, replay.replay("exact-bnb", 1, items=2))
    out = capsys.readouterr().out
    for mode in doc["modes"]:
        assert re.search(rf"{mode}: \d+ differing fields\n(  .*\n)*  model: 2 queries\n", out), out


def test_replay_records_every_mode_bounds_and_compare_counts_a_changed_bound(capsys,
                                                                           monkeypatch):
    from stairverify import bounds

    doc = replay.replay("deeppoly-wide", 1, items=2)
    assert doc["modes"] == ["deeppoly"]
    for item in doc["items"]:
        assert re.fullmatch(r"[0-9a-f]{64}", item["deeppoly"]["bounds"])
    assert replay.compare(doc, doc) == 0
    assert "bounds" not in capsys.readouterr().out
    deeppoly_bounds = bounds.deeppoly_bounds

    def loosened(net, box):   # the first neuron's lower bound one ulp down
        out = deeppoly_bounds(net, box)
        out.lower[0] = np.append(np.nextafter(out.lower[0][0], -np.inf), out.lower[0][1:])
        return out

    monkeypatch.setattr(bounds, "deeppoly_bounds", loosened)
    replay.compare(doc, replay.replay("deeppoly-wide", 1, items=2))
    assert re.search(r"deeppoly: \d+ differing fields\n(  .*\n)*  bounds: 2 queries\n",
                     capsys.readouterr().out)


def test_replay_records_the_relaxation_and_compare_counts_a_moved_breakpoint(capsys,
                                                                            monkeypatch):
    from stairverify.network import Layer

    doc = replay.replay("deeppoly-wide", 1, items=1)
    (item,) = doc["items"]
    assert re.fullmatch(r"[0-9a-f]{64}", item["deeppoly"]["relax"])
    assert replay.compare(doc, doc) == 0
    assert "relax" not in capsys.readouterr().out
    functions = Layer.functions

    def moved(self, lo, hi):   # each layer's first clipped function's end one ulp down
        out = functions(self, lo, hi)
        f = out[0]
        if f is not None:
            bp = np.append(f.breakpoints[:-1], np.nextafter(f.breakpoints[-1], -np.inf))
            out[0] = type(f)(bp, f.slopes, f.intercepts)
        return out

    monkeypatch.setattr(Layer, "functions", moved)
    replay.compare(doc, replay.replay("deeppoly-wide", 1, items=1))
    assert re.search(r"deeppoly: \d+ differing fields\n(  .*\n)*  relax: 1 queries\n",
                     capsys.readouterr().out)


def test_items_replays_a_corpus_prefix(tmp_path, capsys):
    out = tmp_path / "replay.json"
    assert replay.main(["--workload", "deeppoly-wide", "--items", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["workload"], len(doc["items"])) == ("deeppoly-wide", 2)
    assert replay.main(["--workload", "relu", "--eps", "0.05", "--items", "1",
                        "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["items"]) == 1
