"""The workloads: their ops, the goldens and the check on every result.

An op is one ``verify_*`` report, or one checked determinant, table value or
ratio.  Every op calls the program through module attributes looked up at
call time, so the traced run's patched bindings are the ones that execute.
The goldens are copies of the acceptance gate's values; nothing here imports
from the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

# Each workload runs two sections of ops; each section keeps to one kind of
# arithmetic, and the traced run reports every layer per section.
WORKLOADS = {
    "polynomial": ("symbolic", "permanent"),
    "numeric": ("specialized", "unit-circle"),
}


class Mismatch(Exception):
    """An op returned a result that its check rejects."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # Only the 21-25 vertex permanents may be refused by the program's size
    # guard: their modular route needs numba, which is optional.
    may_refuse: bool = False
    section: str = ""


def canonical(result) -> str:
    """The bytes a rerun must reproduce exactly."""
    if hasattr(result, "to_json"):
        return json.dumps(result.to_json(), sort_keys=True)
    return repr(result)


# -- goldens copied from the acceptance gate ----------------------------------

# criterion 01: coefficient rows of the bivariate triangle determinant
GOLDEN_ROWS = {
    0: [1, 1],
    1: [1, 3, 1],
    2: [1, 9, 9, 1],
    3: [1, 29, 72, 29, 1],
    4: [1, 99, 626, 626, 99, 1],
    5: [1, 351, 6084, 13869, 6084, 351, 1],
    6: [1, 1275, 64974, 347020, 347020, 64974, 1275, 1],
}

# criterion 05: |det H_n(pi/4)| as (scale, radical)
PI4_GOLDENS = {2: (8, 2), 3: (70, 1), 4: (526, 2), 5: (13167, 1), 6: (280772, 2)}

# criterion 08: leading terms of the asymptotic bracket of mitra_ratio
MITRA_BRACKET = (0.81099753, -0.028861, 0.021012)
MITRA_TOLERANCE = 2e-2

THETA_COLUMNS = ("theta0", "thetaPi6", "thetaPi3", "thetaPi2")


def _trapezium_goldens(poly) -> dict:
    """Criterion 03's expansions, rendered once by the program's canonical
    text form so that each check is a plain string comparison."""
    s6, s7, s8, s9 = (poly.svar(i) for i in (6, 7, 8, 9))
    x7, y7, x8, y8, x9, y9 = (
        poly.xvar(7), poly.yvar(7), poly.xvar(8), poly.yvar(8),
        poly.xvar(9), poly.yvar(9))
    goldens = {
        (6, 7): s6 * s7 + 7**2 * x7 * y7,
        (7, 9): s9 * s8 * s7 + 8**2 * x8 * y8 * s9
        + 9**2 * x9 * y9 * s7 + 36**2 * x9 * y9 * s8,
        (6, 9): s9 * (s6 * s7 * s8 + 7**2 * s8 * x7 * y7 + 8**2 * s6 * x8 * y8
                      + 28**2 * s7 * x8 * y8)
        + x9 * y9 * (9**2 * s6 * s7 + 36**2 * s6 * s8)
        + 63**2 * x7 * y7 * x9 * y9
        + 84**2 * (x7 * x8 + y7 * y8 + 4 * y7 * x8 + 4 * x7 * y8
                   + 16 * x8 * y8) * x9 * y9,
    }
    return {kn: str(p) for kn, p in goldens.items()}


# -- checks -----------------------------------------------------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _passes(report) -> None:
    _require(report.verdict == "pass", f"verdict {report.verdict!r}")


def _samples(count: int, at_least: bool = False):
    def check(report) -> None:
        _passes(report)
        got = len(report.details["samples"])
        _require(got >= count if at_least else got == count,
                 f"{got} evaluation samples")
    return check


def _props_row(n: int):
    def check(report) -> None:
        _passes(report)
        row = report.details["charpoly_homogenization"]["det_row"]
        _require(row == GOLDEN_ROWS[n], f"row {row} differs from the golden row")
    return check


def _expansion(text: str | None):
    def check(report) -> None:
        _passes(report)
        if text is not None:
            _require(report.lhs == text, "expansion differs from the golden")
    return check


def _equal_pair(pair) -> None:
    computed, predicted = pair
    _require(computed == predicted, f"{computed!r} != predicted {predicted!r}")


def _radical(golden: tuple[int, int]):
    def check(value) -> None:
        _require((value.scale, value.radical) == golden,
                 f"{value!r} != golden {golden}")
    return check


def _mitra(L: int):
    c, c3, c4 = MITRA_BRACKET
    bracket = c + c3 * L**-1.5 + c4 * L**-2

    def check(ratio) -> None:
        _require(abs(ratio - bracket) < MITRA_TOLERANCE,
                 f"ratio {ratio} outside the bracket {bracket}")
    return check


# -- op lists -----------------------------------------------------------------------


def _symbolic(hp, seed: int) -> list[Op]:
    V = hp.verify
    expansions = _trapezium_goldens(hp.poly)
    ops = [Op(f"conj1({n})", lambda n=n: V.verify_conjecture1(n), _passes)
           for n in range(5)]
    ops += [Op(f"conj2({k},{n})", lambda k=k, n=n: V.verify_conjecture2(k, n),
               _expansion(expansions.get((k, n))))
            for k, n in ((6, 7), (7, 9), (6, 9), (0, 4), (3, 7))]
    ops += [Op(f"props({n})", lambda n=n: V.verify_props(n), _props_row(n))
            for n in range(7)]
    return ops


def _specialized(hp, seed: int) -> list[Op]:
    V = hp.verify
    ops = [Op(f"conj1s({n})",
              lambda n=n: V.verify_conjecture1(n, "specialized", seed),
              _samples(5, at_least=True))
           for n in range(9)]
    ops += [Op(f"conj2s({k},{n})",
               lambda k=k, n=n: V.verify_conjecture2(k, n, "specialized", seed),
               _samples(5, at_least=True))
            for k, n in ((6, 7), (7, 9), (6, 9), (0, 11))]
    return ops


def _theta_op(hp, n: int, s: int) -> Op:
    L, M, F, C = hp.linalg, hp.matrices, hp.formulas, hp.cyclotomic
    column = THETA_COLUMNS[s]

    def run():
        x, y = C.theta_point(s)
        value = L.det(M.build_huckel(0, n, M.bivariate_params(0, n, x, y)))
        return value, F.theta_table_row(n)[column]

    def check(pair) -> None:
        value, predicted = pair
        if s == 1:
            got = C.RadicalValue.from_cyc(value)
            _require((got.scale, got.radical) == (predicted.scale, predicted.radical),
                     f"{got!r} != predicted {predicted!r}")
        else:
            _require(value.as_int() == predicted, f"{value!r} != predicted {predicted}")

    return Op(f"theta({n},{column})", run, check)


def _binomial_op(hp, n: int, name: str) -> Op:
    L, M, F, C = hp.linalg, hp.matrices, hp.formulas, hp.cyclotomic

    def run():
        if name == "1":
            predicted = F.unit_shift_det(n)
            if predicted != F.unit_shift_det_asm(n):
                raise Mismatch(f"unit-shift closed forms disagree at n={n}")
            omega = 1
        elif name == "-1":
            predicted, omega = F.predicted_det("ciucuMinusI", n).as_int(), -1
        elif name == "omega3":
            predicted, omega = F.predicted_det("ciucuOmega3", n), C.CycInt.omega3()
        else:
            predicted, omega = F.predicted_det("ciucuOmega6", n), C.CycInt.omega6()
        return L.det(M.build_general_binomial(0, n, omega)), predicted

    return Op(f"binomial({n},{name})", run, _equal_pair)


def _unit_circle(hp, seed: int) -> list[Op]:
    F = hp.formulas
    ops = [_theta_op(hp, n, s) for n in range(2, 5) for s in range(4)]
    ops.append(_theta_op(hp, 5, 1))
    ops += [Op(f"pi4({n})", lambda n=n: F.pi4_magnitude(n), _radical(PI4_GOLDENS[n]))
            for n in range(2, 7)]
    ops += [Op(f"mitra({L})", lambda L=L: F.mitra_ratio(L), _mitra(L))
            for L in range(8, 21, 2)]
    ops += [_binomial_op(hp, n, name)
            for n in range(9) for name in ("1", "-1", "omega3", "omega6")]
    return ops


def _permanent(hp, seed: int) -> list[Op]:
    V = hp.verify
    symbolic = [(k, n) for n in range(8) for k in range(n + 1)
                if (n + 1) ** 2 - k * k <= 13 or (k, n) == (7, 7)]
    ops = [Op(f"conj3({k},{n})", lambda k=k, n=n: V.verify_conjecture3(k, n), _passes)
           for k, n in symbolic]
    for k, n in ((8, 8), (4, 5), (2, 4), (11, 11), (1, 4), (12, 12), (0, 4)):
        ops.append(Op(f"conj3s({k},{n})",
                      lambda k=k, n=n: V.verify_conjecture3(k, n, "specialized", seed),
                      _samples(3), may_refuse=(n + 1) ** 2 - k * k > 20))
    return ops


_SECTIONS = {
    "symbolic": _symbolic,
    "specialized": _specialized,
    "unit-circle": _unit_circle,
    "permanent": _permanent,
}


def build_ops(workload: str, seed: int, hp) -> list[Op]:
    """The fixed op list of one pass; ``hp`` holds the program's modules."""
    return [replace(op, section=section)
            for section in WORKLOADS[workload]
            for op in _SECTIONS[section](hp, seed)]
