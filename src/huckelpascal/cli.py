"""Command-line front end.

Exit codes: 0 when every requested computation or verification passes,
1 when a verification check fails, 2 on usage or I/O errors.  With
``--json PATH`` each subcommand also writes a versioned report
(``"schema": 1``); identical invocations (including ``--seed``) produce
byte-identical files, so artifacts can be diffed across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .formulas import (
    BadParity,
    CaseMismatch,
    formula_A,
    formula_AHT,
    formula_macmahon,
    theta_table,
)
from .linalg import (
    DET_STRATEGIES,
    NotRankOne,
    StrategyPrecondition,
    TooLarge,
    charpoly,
    coefficient_list,
    det,
    permanent,
)
from .matrices import (
    BadRange,
    bivariate_params,
    build_huckel,
    build_pascal,
    build_reduced,
    evaluate_matrix,
)
from .oracle import audit_passes, count_plane_partitions, square_coefficient_audit
from .poly import MultiPoly, NotDivisible, xvar, yvar
from .schur import condensation_det, condense
from .verify import (
    bivariate_row,
    verify_conjecture1,
    verify_conjecture2,
    verify_conjecture3,
    verify_props,
)

_DOMAIN_ERRORS = (
    BadRange,
    BadParity,
    CaseMismatch,
    TooLarge,
    StrategyPrecondition,
    NotRankOne,
    NotDivisible,
)


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huckelpascal",
        description="Exact determinants, permanents and verification reports "
        "for triangle/trapezium adjacency matrices and Pascal matrices.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_json(p):
        p.add_argument("--json", metavar="PATH", help="write a schema-1 JSON report")

    p = sub.add_parser(
        "det",
        help="exact determinant of a triangle/trapezium or Pascal matrix",
        description="Determinant of the trapezium adjacency matrix H_{k,n} "
        "(boundary weights symbolic unless --x/--y fix them), of its "
        "conjectured size-(n+1-k) binomial reduction, or of a Pascal matrix.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--huckel", nargs=2, type=int, metavar=("K", "N"))
    src.add_argument("--reduced", nargs=2, type=int, metavar=("K", "N"))
    src.add_argument("--pascal", nargs=2, metavar=("KIND", "N"))
    p.add_argument("--x", type=int, help="uniform value for every x weight")
    p.add_argument("--y", type=int, help="uniform value for every y weight")
    p.add_argument("--strategy", choices=DET_STRATEGIES, default="fraction-free-elimination")
    add_json(p)

    p = sub.add_parser(
        "perm",
        help="exact permanent of a triangle/trapezium matrix",
        description="Permanent of H_{k,n}; conjecturally equal to its "
        "determinant because only even permutations contribute.",
    )
    p.add_argument("--huckel", nargs=2, type=int, metavar=("K", "N"), required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    add_json(p)

    p = sub.add_parser(
        "charpoly",
        help="characteristic polynomial det(zI + M) of a Pascal matrix",
        description="Characteristic polynomial of a Pascal matrix; for the "
        "symmetric kind its coefficient list matches the bivariate triangle "
        "determinant row.",
    )
    p.add_argument("--pascal", nargs=2, metavar=("KIND", "N"), required=True)
    add_json(p)

    p = sub.add_parser(
        "condense",
        help="block condensation of the triangle/trapezium determinant",
        description="Repeatedly eliminates the largest odd tridiagonal block, "
        "shrinking H_{k,n} while preserving the determinant exactly; --trace "
        "records every elimination step of the full triangle.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    add_json(p)

    p = sub.add_parser(
        "formulas",
        help="product formulas and the unit-circle determinant table",
        description="Closed-form product sequences and the table of exact "
        "determinant values at unit-circle weights, with the asymptotic "
        "comparison column.",
    )
    p.add_argument("--table", action="store_true", required=True)
    p.add_argument("--max-n", type=int, default=6)
    add_json(p)

    p = sub.add_parser(
        "oracle",
        help="brute-force enumeration cross-checks",
        description="Independent oracles: boxed plane-partition enumeration "
        "against the product formula, and perfect-square audits of "
        "determinant coefficients.",
    )
    osub = p.add_subparsers(dest="action", required=True)
    op = osub.add_parser("partitions", help="count plane partitions in an a*b*c box")
    op.add_argument("a", type=int)
    op.add_argument("b", type=int)
    op.add_argument("c", type=int)
    add_json(op)
    op = osub.add_parser(
        "audit-squares", help="check triangle determinant coefficients are squares"
    )
    op.add_argument("--n", type=int, required=True)
    add_json(op)

    p = sub.add_parser(
        "verify",
        help="run conjecture/proposition verification reports",
        description="conj1: triangle determinant equals its size-(n+1) "
        "reduction; conj2: same for trapezia; conj3: permanent equals "
        "determinant; props: structural shape checks.",
    )
    p.add_argument("conjecture", choices=("conj1", "conj2", "conj3", "props"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=("symbolic", "specialized"), default="symbolic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    add_json(p)

    p = sub.add_parser(
        "tables",
        help="golden tables: determinant coefficient rows and angle values",
        description="The bivariate triangle determinant coefficient rows and "
        "the exact unit-circle determinant table.",
    )
    p.add_argument("--max-n", type=int, default=6)
    add_json(p)

    return parser


def _validate(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    x, y = getattr(ns, "x", None), getattr(ns, "y", None)
    if (x is None) != (y is None):
        parser.error("--x and --y must be given together")
    pascal = getattr(ns, "pascal", None)
    if pascal is not None:
        if x is not None:
            parser.error("--x/--y only apply to --huckel/--reduced")
        kind, n = pascal
        try:
            ns.pascal = (kind, int(n))
        except ValueError:
            parser.error(f"--pascal N must be an integer, got {n!r}")
    if getattr(ns, "trace", False) and ns.k:
        parser.error("--trace records full-triangle runs; drop --k")
    if ns.subcommand == "verify":
        if ns.k is not None and ns.n is None:
            parser.error("--k requires --n")
        if ns.jobs < 1:
            parser.error("--jobs must be >= 1")
    for name in ("n", "k"):
        value = getattr(ns, name, None)
        if value is not None and value < 0:
            parser.error(f"--{name} must be >= 0")


# -- subcommand handlers ----------------------------------------------------------


def _poly_payload(value) -> dict:
    out = {"value": str(value)}
    if isinstance(value, MultiPoly):
        out["terms"] = value.to_json_terms()
    return out


def _uniform_params(k: int, n: int, ns: argparse.Namespace):
    if ns.x is not None:
        return bivariate_params(k, n, ns.x, ns.y)
    return None


def _source_matrix(ns: argparse.Namespace):
    if ns.huckel is not None:
        k, n = ns.huckel
        return build_huckel(k, n, _uniform_params(k, n, ns)), ("huckel", k, n)
    if ns.reduced is not None:
        k, n = ns.reduced
        m = build_reduced(k, n)
        params = _uniform_params(k, n, ns)
        if params is not None:
            m = evaluate_matrix(m, params)
        return m, ("reduced", k, n)
    kind, n = ns.pascal
    return build_pascal(kind, n), ("pascal", kind, n)


def _cmd_det(ns: argparse.Namespace):
    matrix, (kind, k, n) = _source_matrix(ns)
    degree = None
    if ns.strategy == "bivariate-interpolation" and ns.x is None:
        # interpolation works on a single weight pair: collapse first
        matrix = evaluate_matrix(
            matrix, bivariate_params(0, n, xvar(0), yvar(0))
        ) if kind != "pascal" else matrix
        degree = n + 1 - (k if isinstance(k, int) else 0)
    value = det(matrix, ns.strategy, degree=degree)
    print(value)
    if ns.verbose:
        print(matrix.to_grid(), file=sys.stderr)
    payload = {"matrix": {"kind": kind, "k": k, "n": n}, "strategy": ns.strategy}
    payload.update(_poly_payload(value))
    return 0, payload


def _cmd_perm(ns: argparse.Namespace):
    k, n = ns.huckel
    matrix = build_huckel(k, n, _uniform_params(k, n, ns))
    value = permanent(matrix)
    print(value)
    payload = {"matrix": {"kind": "huckel", "k": k, "n": n}}
    payload.update(_poly_payload(value))
    return 0, payload


def _cmd_charpoly(ns: argparse.Namespace):
    kind, n = ns.pascal
    p = charpoly(build_pascal(kind, n))
    print(p)
    payload = {
        "matrix": {"kind": kind, "n": n},
        "value": str(p),
        "coefficients": coefficient_list(p, "z", n + 1),
    }
    return 0, payload


def _cmd_condense(ns: argparse.Namespace):
    if ns.trace:
        trace = condense(ns.n)
        for step in trace.steps:
            print(f"eliminated block m={step.m}: corner {step.border}, size {step.size}")
        print(trace.final.to_grid())
        payload = {
            "steps": [
                {"m": s.m, "border": s.border, "size": s.size} for s in trace.steps
            ],
            "final": trace.final.to_json(),
        }
        return 0, payload
    value = condensation_det(ns.k, ns.n)
    print(value)
    payload = {"instance": {"k": ns.k, "n": ns.n}}
    payload.update(_poly_payload(value))
    return 0, payload


def _formula_row(row: dict) -> dict:
    n = row["n"]
    return {
        "n": n,
        "A": formula_A(n),
        "AHT": formula_AHT(n),
        "theta0": row["theta0"],
        "thetaPi6": str(row["thetaPi6"]),
        "thetaPi3": row["thetaPi3"],
        "thetaPi2": row["thetaPi2"],
        "thetaPi4": str(row["thetaPi4"]),
        "mitra": row["mitra"],
    }


_TABLE_COLUMNS = ("n", "A", "AHT", "theta0", "thetaPi6", "thetaPi3", "thetaPi2",
                  "thetaPi4", "mitra")


def _print_formula_table(rows: list[dict]) -> None:
    cells = [
        [("" if r[c] is None else f"{r[c]:.2f}" if isinstance(r[c], float) else str(r[c]))
         for c in _TABLE_COLUMNS]
        for r in rows
    ]
    cells.insert(0, list(_TABLE_COLUMNS))
    widths = [max(len(row[j]) for row in cells) for j in range(len(_TABLE_COLUMNS))]
    for row in cells:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _cmd_formulas(ns: argparse.Namespace):
    rows = [_formula_row(row) for row in theta_table(ns.max_n)]
    _print_formula_table(rows)
    return 0, {"rows": rows}


def _cmd_oracle(ns: argparse.Namespace):
    if ns.action == "partitions":
        a, b, c = ns.a, ns.b, ns.c
        counted = count_plane_partitions(a, b, c)
        predicted = formula_macmahon(a, b, c)
        ok = counted == predicted
        print(f"enumerated: {counted}")
        print(f"product formula: {predicted}")
        print(f"match: {ok}")
        payload = {"box": [a, b, c], "enumerated": counted,
                   "formula": predicted, "match": ok}
        return (0 if ok else 1), payload
    p = condensation_det(0, ns.n)
    entries = square_coefficient_audit(p)
    for e in entries:
        print(f"{e.monomial}: {e.coefficient} = {e.root}^2")
    ok = audit_passes(entries)
    print(f"all coefficients are perfect squares: {ok}")
    payload = {
        "n": ns.n,
        "entries": [
            {"monomial": e.monomial, "coefficient": e.coefficient, "root": e.root}
            for e in entries
        ],
        "pass": ok,
    }
    return (0 if ok else 1), payload


_DEFAULT_INSTANCES = {
    ("conj1", "symbolic"): [{"n": n} for n in range(5)],
    ("conj1", "specialized"): [{"n": n} for n in range(9)],
    ("conj2", "symbolic"): [{"k": 6, "n": 7}, {"k": 7, "n": 9}, {"k": 6, "n": 9}],
    ("conj2", "specialized"): [{"k": 6, "n": 7}, {"k": 7, "n": 9}, {"k": 6, "n": 9}],
    ("conj3", "symbolic"): [
        {"k": 0, "n": 0}, {"k": 0, "n": 1}, {"k": 0, "n": 2},
        {"k": 1, "n": 1}, {"k": 1, "n": 2}, {"k": 2, "n": 2}, {"k": 2, "n": 3},
    ],
    ("conj3", "specialized"): [{"k": 0, "n": 3}, {"k": 1, "n": 3}],
    ("props", "symbolic"): [{"n": n} for n in range(7)],
    ("props", "specialized"): [{"n": n} for n in range(7)],
}


def _verify_task(task: tuple):
    conjecture, kwargs = task
    if conjecture == "conj1":
        return verify_conjecture1(**kwargs)
    if conjecture == "conj2":
        return verify_conjecture2(**kwargs)
    if conjecture == "conj3":
        return verify_conjecture3(**kwargs)
    return verify_props(**kwargs)


def _verify_instances(ns: argparse.Namespace) -> list[tuple]:
    name = ns.conjecture
    if ns.n is None:
        instances = _DEFAULT_INSTANCES[(name, ns.mode)]
    elif name in ("conj2", "conj3"):
        instances = [{"k": ns.k or 0, "n": ns.n}]
    else:
        instances = [{"n": ns.n}]
    tasks = []
    for inst in instances:
        kwargs = dict(inst)
        if name != "props":
            kwargs["mode"] = ns.mode
            if ns.mode == "specialized":
                kwargs["seed"] = ns.seed
        tasks.append((name, kwargs))
    return tasks


def _cmd_verify(ns: argparse.Namespace):
    tasks = _verify_instances(ns)
    if ns.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            reports = list(pool.map(_verify_task, tasks))
    else:
        reports = [_verify_task(t) for t in tasks]
    reports.sort(key=lambda r: (r.conjecture, sorted(r.instance.items())))
    for r in reports:
        inst = ",".join(f"{k}={v}" for k, v in sorted(r.instance.items()))
        print(f"{r.conjecture}[{inst}] {r.mode}: {r.verdict}")
        if ns.verbose:
            print(f"  {r.method} ({r.elapsed_s:.2f}s)", file=sys.stderr)
    all_pass = all(r.passed() for r in reports)
    payload = {"reports": [r.to_json() for r in reports], "all_pass": all_pass}
    return (0 if all_pass else 1), payload


def _cmd_tables(ns: argparse.Namespace):
    # the largest row first, so its elimination guard trips before any work
    rows = [bivariate_row(n)[1] for n in range(ns.max_n, -1, -1)][::-1]
    for n, row in enumerate(rows):
        print(f"n={n}: {row}")
    formula_rows = [_formula_row(row) for row in theta_table(ns.max_n)]
    _print_formula_table(formula_rows)
    return 0, {"determinant_rows": rows, "angle_table": formula_rows}


_HANDLERS = {
    "det": _cmd_det,
    "perm": _cmd_perm,
    "charpoly": _cmd_charpoly,
    "condense": _cmd_condense,
    "formulas": _cmd_formulas,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
}


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema": 1, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    _validate(ns, parser)
    try:
        code, payload = _HANDLERS[ns.subcommand](ns)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.json is not None:
        payload["subcommand"] = ns.subcommand
        try:
            _write_json(ns.json, payload)
        except OSError as exc:
            print(f"error: cannot write {ns.json}: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
