#!/usr/bin/env python3
"""Verification-throughput benchmark for huckelpascal.

    python3 verifybench/run.py --workload polynomial --seed 1 --seconds 55 --trace 0

One client runs a closed loop: each op starts when the previous one has
returned and been checked, in one process and one thread.  Every workload run
happens in a fresh interpreter, so set-up time, peak memory and the program's
caches belong to that run alone.  With --trace 0 the last line of standard
output holds the end-to-end metrics, whose timings are scaled to a host of
nominal speed by a reference loop timed throughout the run; with --trace 1 it
holds the per-layer metrics of a separate traced run, in wall seconds.  The
metric names and units are the ones BENCHMARK.json lists.  See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTERS, LAYERS  # noqa: E402
from worker import MIN_PASSES, REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
    }


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _worker(args, mode: str, deadline: float):
    """Start a worker and time it from interpreter start until it has imported
    the program and finished its warm-up op.  Returns (setup_s, result)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence op counts, repeat
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = ""
        if select.select([proc.stdout], [], [], deadline - time.monotonic())[0]:
            ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"{mode} worker failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None
    return setup_s, result


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, weighted by a beta distribution centred on q.  Unlike a
    single order statistic it does not jump when two ops near the quantile
    swap places, as ops of similar latency do from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def tail_percentile(ops: int, min_passes: int) -> int:
    """The highest whole percentile over a workload's ops that has at least
    TAIL_BEYOND executions beyond it in the smallest run the workload makes,
    so it never depends on how many passes fitted into one particular run."""
    return math.floor(100 * (1 - TAIL_BEYOND / (ops * min_passes)))


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setups = [_worker(args, "setup", deadline)[0] for _ in range(SETUP_REPEATS - 1)]
    setup_s, run = _worker(args, "measure", deadline)
    setups.append(setup_s)
    # Times arrive host-normalised per pass (worker.measure).  Each op's
    # latency is its mean over the run's passes, which averages the host's
    # short speed phases that its executions fell into; the quantiles are
    # taken over the ops.
    per_op = [statistics.fmean(v) for v in run["latencies"].values()]
    if not per_op:
        raise SystemExit(f"no op passed its checks: {sorted(set(map(tuple, run['failed'])))}")
    tail_q = tail_percentile(len(per_op), MIN_PASSES)
    metrics = {
        "ops_per_s": run["ok"] / run["passes"] / statistics.median(run["pass_s"]),
        "op_p50_s": quantile(per_op, 0.5),
        "op_tail_s": quantile(per_op, tail_q / 100),
        "ops_ok_frac": run["ok"] / (run["passes"] * run["ops_per_pass"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = {
        "passes": run["passes"],
        "pass_s": run["pass_s"],
        "wall_pass_s": run["wall_pass_s"],
        "host_ref_s": run["host_ref_s"],
        "reference_s": REFERENCE_S,
        "wall_ops_per_s": run["ok"] / run["passes"] / statistics.median(run["wall_pass_s"]),
        "ops_per_pass": run["ops_per_pass"],
        "latency_samples": sum(len(v) for v in run["latencies"].values()),
        "op_tail_percentile": tail_q,
        "setup_samples_s": setups,
        "refused": sorted(set(map(tuple, run["refused"]))),
        "refused_count": len(run["refused"]),
    }
    return metrics, report, run


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    _, run = _worker(args, "trace", deadline)
    metrics = {"trace.overhead_frac": run["overhead_frac"]}
    for name in LAYERS:
        layer = run["layers"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.self_s"] = layer["self_s"]
    for name in COUNTERS:
        metrics[name] = run["counters"].get(name, 0)
    report = {
        "traced_passes": run["traced_passes"],
        "layers": run["layers"],
        "sections": run["sections"],
        "by_parent": run["by_parent"],
        "refused_count": len(run["refused"]),
    }
    return metrics, report, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if "HUCKEL_MAX_SIZE" in os.environ:
        print("HUCKEL_MAX_SIZE is set: it changes which ops trip the program's "
              "size guards; unset it to benchmark", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "huckelpascal" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec()["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    measured = per_layer if args.trace else end_to_end
    metrics, report, run = measured(args, deadline)
    unknown = [m["name"] for m in declared if m["name"] not in metrics]
    if unknown:
        print(f"BENCHMARK.json names metrics this benchmark does not make: {unknown}",
              file=sys.stderr)
        return 2

    failed = run["failed"]
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=environment(), failures=sorted(set(map(tuple, failed))))
    for m in declared:
        print(f"{args.workload:12s} {m['name']:48s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": run["attempted"],
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
