"""Seeded benchmark of stairverify: one workload per process, one client, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload relaxed-lp --seed 1 --seconds 30 --trace 0

Workloads: relaxed-lp, exact-bnb, deeppoly-wide, oracle-sweep (see README.md).
With ``--trace 0`` the run times operations for ``--seconds`` seconds and
reports the end-to-end metrics, times scaled to a reference speed of the
machine measured along the run (``Calibration``). With ``--trace 1`` it runs
each operation untraced and then again with spans around the package's
public calls, for ``--seconds`` seconds, and reports the per-layer metrics
and the tracing overhead; the spans go to ``perfbench/out/``. Correctness checks run after
the timed phase; the exit status is 1 when one fails. The last line of
standard output is one JSON object; ``--out FILE`` also writes the full
result with the environment.
"""

import os
import time

_T0 = time.perf_counter()
# one single-threaded process: pin the BLAS pool before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# The host's speed drifts by up to a third over tens of seconds, alike for
# every operation, so the timed metrics are scaled to a reference speed
# measured along the run (see Calibration and README.md).
REF_KERNEL_S = 0.004    # reference_kernel() at the reference speed
CAL_PERIOD_S = 0.1      # run the kernel at most this often
CAL_WINDOW_S = 1.0      # kernel runs within half of this of an operation set its scale
_CAL_TABLEAU = np.random.default_rng(0).normal(size=(40, 120))
_CAL_COLUMN = np.random.default_rng(1).normal(size=40)


def _import_package():
    """Import stairverify from this checkout's src/ and nowhere else."""
    if not (SRC / "stairverify" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'stairverify'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stairverify
    if Path(stairverify.__file__).resolve().parent != (SRC / "stairverify").resolve():
        sys.exit("error: imported stairverify from outside this checkout")


def tail(latencies, p):
    """Latency at percentile `p`, the number of samples and how many lie beyond it.

    `p` is pinned per workload (the highest of p75/p90/p99 with about 10 or
    more of a baseline run's operations beyond it), so parent and change
    compare the same quantile whatever number of operations each completes.
    """
    value = float(np.percentile(latencies, p))
    return value, len(latencies), sum(x > value for x in latencies)


def reference_kernel() -> int:
    """Fixed work of the kinds the package does: an interpreter loop, then
    rank-one updates and elementwise passes over a small dense tableau."""
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    tab = _CAL_TABLEAU.copy()
    for j in range(100):
        tab -= 1e-3 * np.outer(_CAL_COLUMN, tab[j % tab.shape[0]])
        np.maximum(tab, -10.0, out=tab)
    return acc


def kernel_seconds() -> float:
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


class Calibration:
    """The machine's speed along the timed phase, from `reference_kernel`.

    The kernel runs before an operation when the last run is CAL_PERIOD_S or
    more ago. `scale(t)` is REF_KERNEL_S over the median kernel time within
    CAL_WINDOW_S / 2 of `t` (the nearest run if none is that close): latency
    times scale is latency at the reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)

    def maybe_sample(self) -> None:
        t = time.perf_counter()
        if self.samples and t - self.samples[-1][0] < CAL_PERIOD_S:
            return
        self.samples.append((t, kernel_seconds()))

    def scale(self, t: float) -> float:
        starts = np.array([s for s, _ in self.samples])
        near = np.abs(starts - t) <= CAL_WINDOW_S / 2
        if not near.any():
            near = np.abs(starts - t) == np.abs(starts - t).min()
        return REF_KERNEL_S / float(np.median([k for (_, k), m in zip(self.samples, near) if m]))


def timed_loop(workload, seconds):
    """Closed loop: the next operation starts when the previous one returns.

    The calibration kernel runs between operations, outside their latency.
    """
    records, cal = [], Calibration()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        cal.maybe_sample()
        t = time.perf_counter()
        rec = workload.run_op(i)
        rec.latency = time.perf_counter() - t
        rec.start = t
        records.append(rec)
        i += 1
        if time.perf_counter() >= deadline:
            cal.maybe_sample()
            wall = time.perf_counter() - start
            for rec in records:
                rec.ref_latency = rec.latency * cal.scale(rec.start)
            return records, wall, cal


def traced_loop(workload, seconds, tracer):
    """Run each operation untraced, then again traced, until `seconds` pass.

    Interleaving the pair keeps slow drifts of the machine out of the
    difference between the two sums, which is the tracing overhead.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t = time.perf_counter()
        rec = workload.run_op(i)
        rec.latency = time.perf_counter() - t
        plain.append(rec)
        tracer.install()
        try:
            tracer.op = i
            span = tracer.begin("bench.op")
            t = time.perf_counter()
            rec = workload.run_op(i)
            rec.latency = time.perf_counter() - t
            tracer.end(span)
        finally:
            tracer.uninstall()
        traced.append(rec)
        i += 1
        if time.perf_counter() >= deadline:
            return plain, traced


def set_up(workload_cls, seed):
    """Generate inputs and warm up SETUP_REPEATS times, each after three runs
    of `reference_kernel`; return the last workload, the median set-up time
    and the median kernel time."""
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel += [kernel_seconds() for _ in range(3)]
        t = time.perf_counter()
        workload = workload_cls(seed)
        workload.generate()
        workload.warm_up()
        times.append(time.perf_counter() - t)
    return workload, statistics.median(times), statistics.median(kernel)


def environment(seed):
    info = {"seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, when it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def summarize_errors(records):
    counts = {}
    for rec in records:
        for mode, kind, msg in rec.errors:
            key = f"{mode}: {kind}: {msg}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def summarize_unknowns(records):
    """Diagnostics of `unknown` verdicts, once per distinct query."""
    counts, seen = {}, set()
    for rec in records:
        if rec.item in seen:
            continue
        seen.add(rec.item)
        for mode, rep in rec.reports.items():
            if rep.verdict == "unknown":
                key = f"{mode}: {rep.diagnostic or 'bound above threshold'}"
                counts[key] = counts.get(key, 0) + 1
    return counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS  # noqa: E402  (needs stairverify on the path)

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    import_s = time.perf_counter() - _T0

    workload, setup_median, setup_kernel = set_up(WORKLOADS[args.workload], args.seed)
    setup_s = (import_s + setup_median) * REF_KERNEL_S / setup_kernel
    result = {"workload": args.workload, "trace": args.trace,
              "run_seconds": args.seconds, "env": environment(args.seed)}

    if args.trace == 0:
        records, wall, cal = timed_loop(workload, seconds=args.seconds)
        lat = [r.ref_latency for r in records]
        tail_p = workload.tail_percentile
        tail_s, n, beyond = tail(lat, tail_p)
        failed = sum(r.failed for r in records)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(records) / sum(lat), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_tail_s": (tail_s, "s"),
            "ok_frac": (1.0 - failed / len(records), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        kernel = [k for _, k in cal.samples]
        wall_lat = [r.latency for r in records]
        result.update(latencies_s=wall_lat, ref_latencies_s=lat, tail_percentile=tail_p,
                      tail_samples=n, tail_beyond=beyond, wall_s=wall,
                      wall_ops_per_s=len(records) / wall,
                      wall_op_p50_s=statistics.median(wall_lat),
                      wall_op_tail_s=float(np.percentile(wall_lat, tail_p)),
                      kernel_runs=len(kernel), kernel_median_s=statistics.median(kernel),
                      kernel_s=kernel,
                      import_s=import_s, setup_repeat_median_s=setup_median,
                      setup_kernel_median_s=setup_kernel,
                      failed_frac=failed / len(records))
    else:
        from tracing import Tracer, layer_metrics, layer_unit  # noqa: E402

        tracer = Tracer()
        plain, records = traced_loop(workload, args.seconds, tracer)
        plain_wall = sum(r.latency for r in plain)
        wall = sum(r.latency for r in records)
        layers, shares = layer_metrics(tracer, len(records))
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        metrics["trace.overhead_s"] = ((wall - plain_wall) / len(records), "s/op")
        metrics["trace.overhead_pct"] = (100.0 * (wall - plain_wall) / plain_wall, "%")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result.update(untraced_wall_s=plain_wall, traced_wall_s=wall,
                      layer_share_pct=shares, spans_file=str(spans_path.relative_to(ROOT)))
        failed = sum(r.failed for r in records)

    t = time.perf_counter()
    problems = workload.check(records)
    if args.trace == 1:
        problems += _replay_problems(plain, records)
    quality = workload.quality(records)
    errors = summarize_errors(records)
    result["unknowns"] = summarize_unknowns(records)
    result["check_s"] = time.perf_counter() - t
    result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  quality={k: {"value": v, "unit": u} for k, (v, u) in quality.items()},
                  attempted=len(records), failed=failed, errors=errors,
                  problems=problems[:50], correct=not problems)
    _print_report(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": failed,
                      "metrics": result["metrics"]}))
    return 1 if problems else 0


def _replay_problems(plain, traced):
    """The traced run must reach the same outcomes as the untraced one."""
    return [f"item {a.item}: traced run changed the outcome"
            for a, b in zip(plain, traced) if a.outcome() != b.outcome()]


def _print_report(result):
    env = result["env"]
    print(f"workload {result['workload']}  seed {env['seed']}  trace {result['trace']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']} threads {env['blas_threads']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in result:
        print(f"  op_tail_s is p{result['tail_percentile']:g} of {result['tail_samples']} "
              f"operations ({result['tail_beyond']} beyond it); "
              f"failed_frac {result['failed_frac']:.6g}")
        print(f"  wall clock, not scaled: setup_s "
              f"{result['import_s'] + result['setup_repeat_median_s']:.6g}  "
              f"ops_per_s {result['wall_ops_per_s']:.6g}  "
              f"op_p50_s {result['wall_op_p50_s']:.6g}  "
              f"op_tail_s {result['wall_op_tail_s']:.6g}; reference kernel "
              f"{1e3 * result['kernel_median_s']:.3f} ms median of {result['kernel_runs']} "
              f"runs (reference {1e3 * REF_KERNEL_S:g} ms)")
    for name, m in result["quality"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, share in sorted(result.get("layer_share_pct", {}).items(),
                              key=lambda kv: -kv[1]):
        print(f"  share of traced time  {name:24s} {share:6.2f} %")
    if "untraced_wall_s" in result:
        print(f"  traced wall {result['traced_wall_s']:.3f} s - untraced wall "
              f"{result['untraced_wall_s']:.3f} s = tracing overhead "
              f"{result['traced_wall_s'] - result['untraced_wall_s']:.3f} s")
    print(f"  correctness checks took {result['check_s']:.3f} s after the timed phase")
    for key, count in result["errors"].items():
        print(f"  error x{count}: {key}")
    for key, count in result["unknowns"].items():
        print(f"  unknown x{count}: {key}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
