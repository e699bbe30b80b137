import csv
import io
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import stairverify
from stairverify.cli import build_parser, main
from stairverify.bounds import deeppoly_bounds
from stairverify.network import ActivationSpec, BoxDomain, Layer, Network, Neuron, save_network
from stairverify.separation import UPPER
from stairverify.verifier import VerifyConfig

from helpers import random_quantized_network


@pytest.fixture()
def net_file(tmp_path):
    rng = np.random.default_rng(80)
    net = random_quantized_network(rng, n_in=2, hidden=(3,), n_out=2, bits=2)
    path = tmp_path / "net.json"
    save_network(net, str(path))
    return net, str(path)


@pytest.fixture()
def dataset_file(tmp_path, net_file):
    net, _ = net_file
    rng = np.random.default_rng(81)
    path = tmp_path / "ds.csv"
    with open(path, "w") as fh:
        for _ in range(4):
            x0 = rng.uniform(-0.8, 0.8, size=net.input_dim)
            label = int(np.argmax(net.forward(x0)))
            fh.write(",".join(repr(float(v)) for v in x0) + f",{label}\n")
    return str(path)


def _run(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_bounds_matches_library(net_file):
    net, path = net_file
    code, out = _run(["bounds", "--net", path])
    assert code == 0
    doc = json.loads(out)
    expect = deeppoly_bounds(net, net.input_box).as_report()
    assert set(doc) == set(expect)
    for key in doc:
        assert doc[key] == pytest.approx(expect[key], abs=1e-12)


def test_bounds_eps_zero_point_evaluation(tmp_path):
    W = np.array([[2.0, -1.0]])
    net = Network((Layer.dense(W, [0.5], None),), BoxDomain([-1, -1], [1, 1]))
    netp = tmp_path / "affine.json"
    save_network(net, str(netp))
    x0 = [0.25, -0.5]
    inp = tmp_path / "x.json"
    inp.write_text(json.dumps(x0))
    code, out = _run(["bounds", "--net", str(netp), "--input", str(inp),
                      "--eps", "0.0"])
    assert code == 0
    doc = json.loads(out)
    val = float((W @ np.array(x0))[0] + 0.5)
    assert doc["layer0/neuron0"] == pytest.approx([val, val], abs=1e-12)


def test_bounds_reports_a_ball_that_misses_the_input_box(net_file, tmp_path, capsys):
    _, netp = net_file
    inp = tmp_path / "x.json"
    inp.write_text(json.dumps([5.0, 5.0]))
    code, out = _run(["bounds", "--net", netp, "--input", str(inp), "--eps", "0.1"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: perturbation ball misses the network input box\n")


def test_malformed_network_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(["bounds", "--net", str(bad)])
    assert code == 2


def test_verify_json_manifest(net_file, dataset_file):
    _, netp = net_file
    code, out = _run(["verify", "--net", netp, "--dataset", dataset_file,
                      "--eps", "0.05", "--mode", "cayley-lp"])
    assert code == 0
    doc = json.loads(out)
    assert doc["aggregate"]["rows"] == 4
    assert len(doc["queries"]) == 4
    for entry in doc["queries"]:
        assert entry["verdict"] in ("robust", "falsified", "unknown")


def test_verify_manifest_is_standard_json(net_file, dataset_file, monkeypatch):
    # a clock that reaches the deadline as branch-and-bound starts: every row
    # times out before its root, with an infinite bound and gap
    from stairverify import verifier
    clock = itertools.count()
    monkeypatch.setattr(verifier, "time", types.SimpleNamespace(monotonic=lambda: float(next(clock))))
    _, netp = net_file
    code, out = _run(["verify", "--net", netp, "--dataset", dataset_file,
                      "--eps", "0.05", "--mode", "bigm-exact", "--timeout", "1.5"])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out, parse_constant=reject)
    assert len(doc["queries"]) == 4
    for entry in doc["queries"]:
        assert entry["diagnostic"] == "timeout limit reached"
        assert entry["gap_percent"] is None
        assert list(entry["target_bounds"].values()) == [None]


def test_verify_empty_dataset(net_file, tmp_path):
    _, netp = net_file
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, out = _run(["verify", "--net", netp, "--dataset", str(empty),
                      "--eps", "0.05", "--mode", "deeppoly"])
    assert code == 0
    doc = json.loads(out)
    assert doc["aggregate"]["rows"] == 0


def test_verify_csv_output_shape(net_file, dataset_file):
    _, netp = net_file
    code, out = _run(["verify", "--net", netp, "--dataset", dataset_file,
                      "--eps", "0.05", "--mode", "bigm-lp", "--out", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["row", "label", "verdict", "time_s"]
    assert len(rows) == 5


def test_every_verify_config_field_has_a_flag(net_file, dataset_file, monkeypatch):
    """Each flag set away from its default; a config field no flag sets stays at its default."""
    from dataclasses import fields
    from stairverify import cli
    from stairverify.verifier import VerifyConfig, VerifyReport
    _, path = net_file
    configs = []

    def capture(query, config):
        configs.append(config)
        return VerifyReport(verdict="robust")

    monkeypatch.setattr(cli, "verify", capture)
    code, _ = _run(["verify", "--net", path, "--dataset", dataset_file, "--eps", "0.05",
                    "--jobs", "1", "--mode", "bigm-exact", "--max-cut-rounds", "7",
                    "--tol", "1e-5", "--node-limit", "99", "--timeout", "9.5"])
    assert code == 0 and configs
    default = VerifyConfig()
    for field in fields(VerifyConfig):
        assert all(getattr(c, field.name) != getattr(default, field.name) for c in configs), \
            f"no CLI flag sets VerifyConfig.{field.name}"


def test_verify_parser_defaults_are_verify_config_defaults():
    args = build_parser().parse_args(["verify", "--net", "n.json", "--dataset", "d.csv",
                                      "--eps", "0.1"])
    default = VerifyConfig()
    assert (args.mode, args.max_cut_rounds, args.tol, args.timeout, args.node_limit) == (
        default.mode, default.max_cut_rounds, default.cut_tol, default.timeout,
        default.node_limit)


@pytest.mark.parametrize("preset", [None, "3"])
def test_verify_workers_start_with_one_blas_thread(monkeypatch, net_file, dataset_file, preset):
    # a worker imports numpy afresh: one BLAS thread unless the user set a count
    from concurrent.futures import ProcessPoolExecutor

    from stairverify import cli
    seen = []

    class ProbedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.submit(os.getenv, "OPENBLAS_NUM_THREADS").result())

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "unset")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", ProbedPool)
    code, _ = _run(["verify", "--net", net_file[1], "--dataset", dataset_file,
                    "--eps", "0.05", "--jobs", "2"])
    assert code == 0 and seen == [preset or "1"]


def test_verify_jobs_aggregate_independent(net_file, dataset_file):
    _, netp = net_file
    args = ["verify", "--net", netp, "--dataset", dataset_file,
            "--eps", "0.05", "--mode", "cayley-lp"]
    _, out1 = _run(args + ["--jobs", "1"])
    _, out2 = _run(args + ["--jobs", "3"])
    agg1 = json.loads(out1)["aggregate"]
    agg2 = json.loads(out2)["aggregate"]
    for key in ("verified", "falsified", "unknown"):
        assert agg1[key] == agg2[key]


def test_verify_deterministic_verdicts(net_file, dataset_file):
    _, netp = net_file
    args = ["verify", "--net", netp, "--dataset", dataset_file,
            "--eps", "0.08", "--mode", "bigm-exact"]
    _, out1 = _run(args)
    _, out2 = _run(args)
    q1 = [(e["verdict"], e.get("target_bounds")) for e in json.loads(out1)["queries"]]
    q2 = [(e["verdict"], e.get("target_bounds")) for e in json.loads(out2)["queries"]]
    assert q1 == q2


def test_separate_round_trip(tmp_path):
    inst = {"neuron": {"weight": [1.0, -0.5], "bias": 0.1,
                       "activation": {"kind": "dorefa", "bits": 2,
                                      "lo": -1.0, "hi": 1.0},
                       "box": {"lower": [-1, -1], "upper": [1, 1]}},
            "xhat": [0.9, -0.9], "yhat": 1.4,
            "zhat": [0.25, 0.25, 0.25, 0.25], "direction": "upper"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out = _run(["separate", "--instance", str(path)])
    assert code == 0
    doc = json.loads(out)
    # re-parse and recheck the violation with the printed coefficients
    alpha = np.array(doc["alpha"])
    zc = np.array(doc["zcoef"])
    val = float(alpha @ inst["xhat"] + zc @ inst["zhat"] + doc["const"])
    lhs = doc["y_coef"] * inst["yhat"]
    assert lhs - val == pytest.approx(doc["violation"], abs=1e-12)


def test_separate_inside_point(tmp_path):
    inst = {"neuron": {"weight": [1.0], "bias": 0.0,
                       "activation": {"kind": "relu"},
                       "box": {"lower": [-1.0], "upper": [1.0]}},
            "xhat": [0.5], "yhat": 0.5, "zhat": [0.0, 1.0],
            "direction": "upper"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out = _run(["separate", "--instance", str(path)])
    assert code == 0
    assert out.startswith("inside")


def test_separate_direction_flag_flips(tmp_path):
    base = {"neuron": {"weight": [1.0], "bias": 0.0,
                       "activation": {"kind": "relu"},
                       "box": {"lower": [-1.0], "upper": [1.0]}},
            "xhat": [0.5], "zhat": [0.0, 1.0]}
    up = dict(base, yhat=5.0, direction="upper")
    lo = dict(base, yhat=-5.0, direction="lower")
    p1 = tmp_path / "up.json"
    p1.write_text(json.dumps(up))
    p2 = tmp_path / "lo.json"
    p2.write_text(json.dumps(lo))
    _, out_up = _run(["separate", "--instance", str(p1)])
    _, out_lo = _run(["separate", "--instance", str(p2)])
    assert json.loads(out_up)["direction"] == "upper"
    assert json.loads(out_lo)["direction"] == "lower"


@pytest.mark.parametrize("yhat", [0.9, 0.2])
def test_separate_runs_the_oracle_once_per_component(tmp_path, monkeypatch, yhat):
    import stairverify.separation as sep

    inst = {"neuron": {"weight": [1.0, -0.5], "bias": 0.1,
                       "activation": {"kind": "dorefa", "bits": 2, "lo": -1.0, "hi": 1.0},
                       "box": {"lower": [-1, -1], "upper": [1, 1]}},
            "xhat": [0.1, 0.1], "yhat": yhat,
            "zhat": [0.0, 0.5, 0.5, 0.0], "direction": "upper"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    calls = []
    oracle = sep._oracle
    monkeypatch.setattr(sep, "_oracle", lambda canon: calls.append(1) or oracle(canon))
    code, out = _run(["separate", "--instance", str(path)])
    assert code == 0 and len(calls) == 1
    # the one pass prints what the two library entry points answer
    neuron = Neuron.aligned(np.array([1.0, -0.5]), 0.1,
                            ActivationSpec("dorefa", {"bits": 2, "lo": -1.0, "hi": 1.0}
                                           ).instantiate, BoxDomain([-1, -1], [1, 1]))
    args = (neuron, np.array(inst["xhat"]), yhat, np.array(inst["zhat"]), UPPER)
    cut = sep.separate_pwl(*args)
    cert = sep.membership_certificate(*args[:2], *args[3:])
    if cut is None:
        assert out == f"inside (certificate {cert:.17g})\n"
    else:
        doc = json.loads(out)
        assert doc["alpha"] == cut.alpha.tolist() and doc["zcoef"] == cut.zcoef.tolist()
        assert doc["certificate"] == cert
    assert (cut is None) == (yhat == 0.2)


@pytest.mark.parametrize("kind", ["missing neuron", "missing xhat", "missing yhat",
                                  "missing zhat", "top-level array", "text yhat"])
def test_separate_malformed_instance_exits_2(tmp_path, capsys, kind):
    inst = {"neuron": {"weight": [1.0], "bias": 0.0, "activation": {"kind": "relu"},
                       "box": {"lower": [-1.0], "upper": [1.0]}},
            "xhat": [0.5], "yhat": 0.5, "zhat": [0.0, 1.0]}
    if kind.startswith("missing"):
        del inst[kind.split()[1]]
    elif kind == "top-level array":
        inst = [inst]
    else:
        inst["yhat"] = "high"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out = _run(["separate", "--instance", str(path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: malformed instance document")


@pytest.mark.parametrize("eps", ["nan", "-0.1"])
def test_verify_rejects_bad_eps_before_reading_rows(net_file, tmp_path, capsys, eps):
    _, netp = net_file
    code, out = _run(["verify", "--net", netp, "--dataset", str(tmp_path / "absent.csv"),
                      "--eps", eps])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --eps must be a nonnegative number")


@pytest.mark.parametrize("eps", ["nan", "-0.1"])
def test_bounds_rejects_bad_eps(net_file, tmp_path, capsys, eps):
    _, netp = net_file
    inp = tmp_path / "x.json"
    inp.write_text(json.dumps([0.1, 0.2]))
    code, out = _run(["bounds", "--net", netp, "--input", str(inp), "--eps", eps])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --eps must be a nonnegative number")


@pytest.mark.parametrize("anchor", [[float("nan"), 0.0], [0.0, float("inf")]])
def test_bounds_rejects_a_non_finite_anchor(net_file, tmp_path, capsys, anchor):
    _, netp = net_file
    inp = tmp_path / "x.json"
    inp.write_text(json.dumps(anchor))
    code, out = _run(["bounds", "--net", netp, "--input", str(inp), "--eps", "0.1"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: anchor input must be finite")


@pytest.mark.parametrize("flag, value, message", [
    ("--timeout", "nan", "timeout must be positive"),
    ("--timeout", "0", "timeout must be positive"),
    ("--tol", "nan", "cut_tol must be positive"),
    ("--max-cut-rounds", "-1", "max_cut_rounds must be nonnegative"),
    ("--node-limit", "0", "node_limit must be positive"),
    ("--jobs", "0", "--jobs must be at least 1"),
])
def test_verify_rejects_bad_limits_before_reading_rows(net_file, tmp_path, capsys,
                                                       flag, value, message):
    _, netp = net_file
    code, out = _run(["verify", "--net", netp, "--dataset", str(tmp_path / "absent.csv"),
                      "--eps", "0.1", flag, value])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("row", ["0.1,0.2,0.3,1", "0.1,1", "0.1,x,1"],
                         ids=["long", "short", "text"])
def test_verify_rejects_malformed_rows_with_their_line(net_file, tmp_path, capsys, row):
    _, netp = net_file      # a 2-input net
    path = tmp_path / "ds.csv"
    path.write_text(f"0.1,0.2,1\n{row}\n")
    code, out = _run(["verify", "--net", netp, "--dataset", str(path), "--eps", "0.1"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")


def test_cli_runs_as_module(net_file):
    _, netp = net_file
    # the subprocess imports the package this test process imported
    src = str(Path(stairverify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "stairverify.cli", "bounds",
                           "--net", netp], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_bounds_output_is_deterministic(net_file):
    _, netp = net_file
    _, out1 = _run(["bounds", "--net", netp])
    _, out2 = _run(["bounds", "--net", netp])
    assert out1 == out2
