#!/usr/bin/env python3
"""Growth of the collapsed determinant coefficients past the tabulated range.

For each n the triangle determinant with a single weight pair (x, y) is a
palindromic row of n+2 integers.  This experiment extends the known rows,
prints the central coefficient together with its ratio to the previous row
(the rows grow roughly geometrically), and audits how many coefficients of
the fully distinct determinant are perfect squares while the symbolic
computation stays affordable.

Usage: python3 scripts/coefficient_growth.py [--max-n 8] [--audit-max-n 3]
"""

import argparse
import time

from huckelpascal import square_coefficient_audit
from huckelpascal.oracle import audit_passes
from huckelpascal.schur import condensation_det
from huckelpascal.verify import bivariate_row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--audit-max-n", type=int, default=3)
    args = ap.parse_args()

    previous_center = None
    for n in range(args.max_n + 1):
        t0 = time.perf_counter()
        _, row = bivariate_row(n)
        center = max(row)
        ratio = "" if previous_center is None else f"  x{center / previous_center:6.2f}"
        previous_center = center
        print(f"n={n}: center {center}{ratio}  ({time.perf_counter() - t0:.2f}s)")
        if n <= args.max_n and len(row) <= 10:
            print(f"      row {row}")

    print()
    for n in range(1, args.audit_max_n + 1):
        p = condensation_det(0, n)
        report = square_coefficient_audit(p)
        status = "all squares" if audit_passes(report) else "NON-SQUARE FOUND"
        print(f"n={n}: {len(report)} distinct-parameter coefficients, {status}")


if __name__ == "__main__":
    main()
