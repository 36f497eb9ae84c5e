"""One fresh interpreter for one workload run; started by run.py.

Modes:
  setup    import the program, run one untimed warm-up op, print "ready", exit
  measure  after the same set-up, run whole passes over the workload's ops,
           each in its own order drawn from --seed, for about --seconds,
           checking every result and timing a host-speed reference before
           every op, and print one JSON line
  trace    after the same set-up and one untimed warm pass, alternate traced
           and untraced passes for about --seconds and print one JSON line

The program is imported from the checkout's ``src`` directory and nowhere
else; a run started without it fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import Mismatch, build_ops, canonical

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3
# The time reference() takes on a host at the nominal speed; see measure().
REFERENCE_S = 1.5e-3
MODULES = ("verify", "linalg", "matrices", "schur", "formulas", "cyclotomic", "poly")


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("huckelpascal")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"huckelpascal imported from {package.__file__}, not the checkout")
    return SimpleNamespace(**{m: importlib.import_module(f"huckelpascal.{m}")
                              for m in MODULES})


def reference() -> tuple[dict, int]:
    """A fixed piece of pure-Python work owned by the benchmark, 1-2 ms on
    a shared two-vCPU host: dict updates and big-integer arithmetic in an
    interpreter loop, like the program's rings.  It allocates one container,
    so the program's heap cannot slow it through cyclic collections."""
    counts, x = {}, 3**200
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
        x = (x * 7919 + i) % (1 << 700)
    return counts, x


class Pass:
    """Runs the op list once, classifying each op as ok, refused or failed."""

    def __init__(self, ops, refusal):
        self.ops = ops
        self.refusal = refusal
        self.first_bytes: dict[str, str] = {}

    def run(self, latencies: dict, outcome: dict, ops=None, host=None) -> float:
        """One pass (or the given ops); returns its wall seconds and records
        the latency of each op that passed its checks under the op's label.
        Given a list ``host``, times reference() before each op into it and
        leaves that time out of the pass."""
        perf = time.perf_counter
        start = perf()
        host_s = 0.0
        for op in self.ops if ops is None else ops:
            if host is not None:
                r0 = perf()
                reference()
                host.append(perf() - r0)
                host_s += host[-1]
            outcome["attempted"] += 1
            t0 = perf()
            try:
                result = op.run()
            except self.refusal as exc:
                outcome["refused" if op.may_refuse else "failed"].append(
                    (op.label, type(exc).__name__))
                continue
            except Exception as exc:  # a raising op is recorded, never skipped
                outcome["failed"].append((op.label, type(exc).__name__))
                continue
            elapsed = perf() - t0
            try:
                op.check(result)
                self._same_bytes(op.label, result)
            except Exception as exc:
                outcome["failed"].append((op.label, type(exc).__name__))
                continue
            outcome["ok"] += 1
            latencies.setdefault(op.label, []).append(elapsed)
        return perf() - start - host_s

    def _same_bytes(self, label: str, result) -> None:
        text = canonical(result)
        first = self.first_bytes.setdefault(label, text)
        if text != first:
            raise Mismatch(f"rerun of {label} is not byte-identical")


def _new_outcome() -> dict:
    return {"attempted": 0, "ok": 0, "refused": [], "failed": []}


def measure(passer: Pass, seconds: float, seed: int) -> dict:
    """Whole passes until one more would be expected to end further past
    --seconds than stopping now falls short of it.

    Each pass runs the ops in a fresh order, so that the short ops of one kind
    do not all fall into the same few hundred milliseconds of every pass,
    where one phase of the host's speed would set all of their latencies
    together.  The host's speed also drifts over minutes, longer than a run,
    by up to 1.5x; reference() run before every op tracks it, and each pass's
    times are scaled by REFERENCE_S over that pass's mean reference time.  The
    wall-clock pass times and reference times are returned as well."""
    latencies: dict[str, list[float]] = {}
    outcome = _new_outcome()
    wall_pass_s: list[float] = []
    pass_s: list[float] = []
    host_ref_s: list[float] = []
    order = random.Random(seed)
    start = time.perf_counter()
    while (len(pass_s) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(wall_pass_s) / 2 < seconds):
        ops = list(passer.ops)
        order.shuffle(ops)
        wall_latencies: dict[str, list[float]] = {}
        host: list[float] = []
        wall_pass_s.append(passer.run(wall_latencies, outcome, ops, host))
        host_ref_s.append(statistics.fmean(host))
        scale = REFERENCE_S / host_ref_s[-1]
        pass_s.append(wall_pass_s[-1] * scale)
        for label, values in wall_latencies.items():
            latencies.setdefault(label, []).extend(v * scale for v in values)
    return {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "wall_pass_s": wall_pass_s,
        "host_ref_s": host_ref_s,
        "ops_per_pass": len(passer.ops),
        "latencies": latencies,
        "attempted": outcome["attempted"],
        "ok": outcome["ok"],
        "refused": outcome["refused"],
        "failed": outcome["failed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(passer: Pass, hp, seconds: float) -> dict:
    """A warm pass, then traced and untraced passes in turn, under the same
    stopping rule as measure() counting the warm pass in."""
    outcome = _new_outcome()
    start = time.perf_counter()
    passer.run({}, outcome)  # warm pass: fills the program's caches
    tracer = Tracer(hp)
    traced_ops = [replace(op, run=tracer.in_section(op.section, op.run))
                  for op in passer.ops]
    traced, untraced, layer_runs, count_runs = [], [], [], []
    while not traced or (time.perf_counter() - start
                         + statistics.median(map(sum, zip(traced, untraced))) / 2
                         < seconds):
        tracer.reset()
        tracer.install()
        try:
            traced.append(passer.run({}, outcome, traced_ops))
        finally:
            tracer.uninstall()
        layer_runs.append(tracer.layer_totals())
        count_runs.append(tracer.counts())
        untraced.append(passer.run({}, outcome))
    if any(c != count_runs[0] for c in count_runs):
        outcome["failed"].append(("trace", "CountsDiffer"))
    layers: dict[str, list] = {}
    for totals in layer_runs:
        for name, (calls, self_s) in totals.items():
            entry = layers.setdefault(name, [calls, []])
            entry[1].append(self_s)
    return {
        "traced_passes": len(traced),
        "ops_per_pass": len(passer.ops),
        "overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
        "layers": {name: {"calls": calls, "self_s": statistics.median(selfs)}
                   for name, (calls, selfs) in sorted(layers.items())},
        "counters": dict(tracer.counters),
        "sections": tracer.section_totals(),
        "by_parent": {">".join(key): [calls, self_s]
                      for key, (calls, self_s) in sorted(tracer.stats.items())},
        "attempted": outcome["attempted"],
        "ok": outcome["ok"],
        "refused": outcome["refused"],
        "failed": outcome["failed"],
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    hp = import_program()
    passer = Pass(build_ops(args.workload, args.seed, hp), hp.linalg.TooLarge)
    warm = _new_outcome()
    passer.run({}, warm, passer.ops[:1])
    print("ready", flush=True)
    if args.mode == "setup":
        return
    if args.mode == "measure":
        result = measure(passer, args.seconds, args.seed)
    else:
        result = trace(passer, hp, args.seconds)
    result["attempted"] += warm["attempted"]
    result["failed"] = warm["failed"] + result["failed"]
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
