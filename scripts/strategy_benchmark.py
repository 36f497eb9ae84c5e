#!/usr/bin/env python3
"""Cross-timing of the determinant strategies and the permanent.

Runs every strategy that accepts the instance on integer-specialized
triangle/trapezium matrices of increasing size, checks all answers agree,
and prints a timing table.  Useful for picking guards: fraction-free
elimination wins on everything past toy sizes, minor expansion decays with
density, and the integer permanent (the unsigned frontier expansion) tracks
sparse minor expansion.

Usage: python3 scripts/strategy_benchmark.py [--seed 0] [--max-size 25]
"""

import argparse
import random
import time

from huckelpascal import DET_STRATEGIES, det, permanent
from huckelpascal.linalg import TooLarge
from huckelpascal.matrices import build_huckel
from huckelpascal.schur import condensation_det
from huckelpascal.verify import _draw_params

INSTANCES = [(1, 1), (0, 1), (2, 2), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3),
             (2, 4), (1, 4), (0, 4)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-size", type=int, default=25)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    strategies = [s for s in DET_STRATEGIES if s != "bivariate-interpolation"]
    header = ["(k,n)", "size"] + [s.split("-")[0] for s in strategies]
    header += ["condense", "permanent"]
    print("  ".join(f"{h:>12}" for h in header))

    for k, n in INSTANCES:
        size = (n + 1) ** 2 - k * k
        if size > args.max_size:
            continue
        params = _draw_params(rng, k, n, -99, 99)
        matrix = build_huckel(k, n, params)
        values, cells = [], []
        for s in strategies:
            t0 = time.perf_counter()
            values.append(det(matrix, s))
            cells.append(f"{time.perf_counter() - t0:11.3f}s")
        t0 = time.perf_counter()
        values.append(condensation_det(k, n, params))
        cells.append(f"{time.perf_counter() - t0:11.3f}s")
        try:
            t0 = time.perf_counter()
            values.append(permanent(matrix))
            cells.append(f"{time.perf_counter() - t0:11.3f}s")
        except TooLarge:
            cells.append(f"{'skipped':>12}")
        assert len(set(values)) == 1, (k, n, values)
        row = [f"({k},{n})", str(size)] + cells
        print("  ".join(f"{c:>12}" for c in row))

    print("\nall strategies agreed on every instance")


if __name__ == "__main__":
    main()
