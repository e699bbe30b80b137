"""Command-line front door: bounds reports, dataset verification, debug separation.

Exit codes: 0 completed, 2 input error, 3 capability/limit error. Set
STAIRVERIFY_LOG=debug|info|warning for trace verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .bounds import deeppoly_bounds
from .errors import CapabilityError, InputError, StairVerifyError
from .formulations import VerificationQuery
from .network import BoxDomain, Neuron, activation_from_json, load_network, read_json
from .separation import separate_with_certificate
from .verifier import MODES, VerifyConfig, verify

log = logging.getLogger("stairverify")


def _setup_logging():
    level = os.environ.get("STAIRVERIFY_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_vector(path: str) -> np.ndarray:
    data = read_json(path)
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON array")
    return np.asarray(data, dtype=float)


def _load_dataset(path: str):
    """CSV rows of (input components..., integer label)."""
    rows = []
    try:
        with open(path, newline="") as fh:
            for ln, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    vec = np.array([float(v) for v in row[:-1]])
                    label = int(float(row[-1]))
                except ValueError as exc:
                    raise InputError(f"{path}:{ln}: {exc}") from exc
                rows.append((vec, label))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return rows


def cmd_bounds(args) -> int:
    net = load_network(args.net)
    region = net.input_box
    if args.input:
        x0 = _load_vector(args.input)
        if x0.size != net.input_dim:
            raise InputError(f"input has {x0.size} entries, network expects {net.input_dim}")
        region = net.input_box.intersect(BoxDomain(x0 - args.eps, x0 + args.eps))
    report = deeppoly_bounds(net, region).as_report()
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _verify_one(net, row_idx, x0, label, eps, config: VerifyConfig):
    t0 = time.monotonic()
    entry = {"row": row_idx, "label": label}
    if not net.input_box.contains(x0):
        entry.update(verdict="unknown", diagnostic="input outside the network box")
    elif label < 0 or label >= net.output_dim:
        entry.update(verdict="unknown", diagnostic="label out of range")
    elif net.classify(x0) != label:
        entry.update(verdict="falsified", diagnostic="anchor already misclassified",
                     counterexample=[float(v) for v in x0])
    else:
        try:
            report = verify(VerificationQuery(net, x0, eps, label), config)
            entry.update(report.as_dict())
        except StairVerifyError as exc:
            entry.update(verdict="unknown", diagnostic=str(exc))
    entry["time_s"] = time.monotonic() - t0
    return entry


def cmd_verify(args) -> int:
    if not args.eps >= 0.0:
        raise InputError(f"--eps must be a nonnegative number, got {args.eps}")
    if not args.jobs >= 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    config = VerifyConfig(mode=args.mode, max_cut_rounds=args.max_cut_rounds,
                          cut_tol=args.tol, node_limit=args.node_limit,
                          timeout=args.timeout)
    net = load_network(args.net)
    rows = _load_dataset(args.dataset)
    if args.jobs > 1:
        # queries are independent; processes, since threads share one GIL. Workers
        # import numpy with one BLAS thread unless set: on small LPs more add only CPU time
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(max_workers=args.jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(_verify_one, net, i, x0, lab, args.eps, config)
                       for i, (x0, lab) in enumerate(rows)]
            entries = [f.result() for f in futures]
    else:
        entries = [_verify_one(net, i, x0, lab, args.eps, config)
                   for i, (x0, lab) in enumerate(rows)]

    times = [e["time_s"] for e in entries]
    verified = sum(1 for e in entries if e["verdict"] == "robust")
    falsified = sum(1 for e in entries if e["verdict"] == "falsified")
    aggregate = {
        "rows": len(entries),
        "verified": verified,
        "falsified": falsified,
        "unknown": len(entries) - verified - falsified,
        "mean_time_s": float(np.mean(times)) if times else 0.0,
        "std_time_s": float(np.std(times)) if times else 0.0,
    }
    manifest = {
        "version": __version__,
        "net": args.net,
        "dataset": args.dataset,
        "config": {"mode": args.mode, "eps": args.eps, "timeout": args.timeout,
                   "max_cut_rounds": args.max_cut_rounds, "tol": args.tol,
                   "node_limit": args.node_limit, "jobs": args.jobs},
        "queries": entries,
        "aggregate": aggregate,
    }
    if args.out == "json":
        json.dump(_json_safe(manifest), sys.stdout, indent=1, sort_keys=True, allow_nan=False)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["row", "label", "verdict", "time_s", "nodes",
                         "gap_percent", "cuts_added", "solve_time", "separation_time"])
        for e in entries:
            writer.writerow([e["row"], e["label"], e["verdict"],
                             repr(e["time_s"]), e.get("nodes", 0),
                             e.get("gap_percent", 0.0), e.get("cuts_added", 0),
                             e.get("solve_time", 0.0), e.get("separation_time", 0.0)])
        log.info("aggregate: %s", aggregate)
    return 0


def _json_safe(doc):
    """`doc` with every non-finite float as None, since standard JSON has no Infinity."""
    if isinstance(doc, dict):
        return {k: _json_safe(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_json_safe(v) for v in doc]
    return None if isinstance(doc, float) and not np.isfinite(doc) else doc


def _neuron_from_json(doc: dict) -> Neuron:
    try:
        weight = np.asarray(doc["weight"], dtype=float)
        bias = float(doc["bias"])
        box = BoxDomain(doc["box"]["lower"], doc["box"]["upper"])
        spec = activation_from_json(doc["activation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed neuron document: {exc}") from exc
    if spec is None:
        raise InputError("separation requires an activation")
    return Neuron.aligned(weight, bias, spec.instantiate, box)


def cmd_separate(args) -> int:
    doc = read_json(args.instance)
    try:
        neuron_doc = doc["neuron"]
        xhat = np.asarray(doc["xhat"], dtype=float)
        yhat = float(doc["yhat"])
        zhat = np.asarray(doc["zhat"], dtype=float)
        direction = doc.get("direction", "upper")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    neuron = _neuron_from_json(neuron_doc)
    cut, certificate = separate_with_certificate(neuron, xhat, yhat, zhat, direction)
    if cut is None:
        print(f"inside (certificate {certificate:.17g})")
    else:
        out = {
            "direction": cut.direction,
            "y_coef": cut.y_coef,
            "alpha": [float(f"{v:.17g}") for v in cut.alpha],
            "zcoef": [float(f"{v:.17g}") for v in cut.zcoef],
            "const": float(f"{cut.const:.17g}"),
            "violation": float(f"{cut.violation(xhat, yhat, zhat):.17g}"),
            "certificate": None if not np.isfinite(certificate) else float(f"{certificate:.17g}"),
        }
        json.dump(out, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stairverify",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="emit per-neuron pre-activation bounds as JSON")
    b.add_argument("--net", required=True)
    b.add_argument("--input", default=None, help="JSON array; anchors the eps-ball")
    b.add_argument("--eps", type=float, default=0.0)
    b.set_defaults(func=cmd_bounds)

    v = sub.add_parser("verify", help="verify a CSV dataset of (input..., label) rows")
    v.add_argument("--net", required=True)
    v.add_argument("--dataset", required=True)
    v.add_argument("--eps", type=float, required=True)
    defaults = VerifyConfig()
    v.add_argument("--mode", default=defaults.mode, choices=MODES)
    v.add_argument("--max-cut-rounds", type=int, default=defaults.max_cut_rounds)
    v.add_argument("--tol", type=float, default=defaults.cut_tol)
    v.add_argument("--timeout", type=float, default=defaults.timeout)
    v.add_argument("--node-limit", type=int, default=defaults.node_limit)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", choices=("json", "csv"), default="json")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("separate", help="run the separation oracle on one instance")
    s.add_argument("--instance", required=True)
    s.set_defaults(func=cmd_separate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except StairVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
