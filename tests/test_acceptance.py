"""Desk-scale verification gate.

Ten end-to-end criteria, each printing one PASS/FAIL line (run with -s to
see them) and enforcing its wall-clock budget.  Every equality here is
exact - integer, polynomial or cyclotomic - except criterion 8, whose
asymptotic comparison is property-based by nature.
"""

import time
from itertools import product

from huckelpascal.cyclotomic import CycInt, RadicalValue, theta_point
from huckelpascal.formulas import (
    MITRA_CONSTANT,
    _MITRA_C3,
    _MITRA_C4,
    eq5_identity,
    formula_A,
    formula_AHT,
    formula_macmahon,
    mitra_ratio,
    predicted_det,
    theta_table_row,
    unit_shift_det,
    unit_shift_det_asm,
)
from huckelpascal.linalg import det, rank1_factor
from huckelpascal.matrices import (
    TriangleGraph,
    alternating_unit_vector,
    bivariate_params,
    build_bordered,
    build_general_binomial,
    build_huckel,
    build_R,
    build_reduced,
)
from huckelpascal.oracle import (
    audit_passes,
    count_matchings,
    count_plane_partitions,
    square_coefficient_audit,
)
from huckelpascal.poly import poly_from_text, svar, xvar, yvar
from huckelpascal.schur import condensation_det, condense, invert_T, schur_det_step
from huckelpascal.verify import (
    bivariate_row,
    verify_conjecture1,
    verify_conjecture2,
    verify_conjecture3,
    verify_props,
)

GOLDEN_ROWS = {
    0: [1, 1],
    1: [1, 3, 1],
    2: [1, 9, 9, 1],
    3: [1, 29, 72, 29, 1],
    4: [1, 99, 626, 626, 99, 1],
    5: [1, 351, 6084, 13869, 6084, 351, 1],
    6: [1, 1275, 64974, 347020, 347020, 64974, 1275, 1],
}


def _gate(num: int, label: str, budget_s: float, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{label}]: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:2d} [{label}]: PASS ({elapsed:.1f}s / {budget_s:.0f}s)")
    assert elapsed < budget_s, f"budget exceeded: {elapsed:.1f}s > {budget_s}s"


def test_criterion_01_golden_determinants():
    def body():
        for n, want in GOLDEN_ROWS.items():
            p = bivariate_row(n)[0]
            row = [p.coefficient({"x0": n + 1 - j, "y0": j}) for j in range(n + 2)]
            assert row == want, n

    _gate(1, "golden determinant rows n=0..6", 60, body)


def test_criterion_02_triangle_reduction():
    def body():
        for n in range(5):
            assert verify_conjecture1(n, "symbolic").passed(), n
        for n in range(9):
            report = verify_conjecture1(n, "specialized", seed=20260815)
            assert report.passed(), n
            assert len(report.details["samples"]) >= 5

    _gate(2, "triangle determinant = binomial reduction", 300, body)


def test_criterion_03_trapezium_reduction():
    s6, s7, s8, s9 = svar(6), svar(7), svar(8), svar(9)
    x7, y7, x8, y8, x9, y9 = (
        xvar(7), yvar(7), xvar(8), yvar(8), xvar(9), yvar(9))
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

    def body():
        for (k, n), want in goldens.items():
            report = verify_conjecture2(k, n, "symbolic")
            assert report.passed(), (k, n)
            assert poly_from_text(report.lhs) == want, (k, n)

    _gate(3, "trapezium expansions (6,7) (7,9) (6,9)", 120, body)


def test_criterion_04_permanent_equals_determinant():
    def body():
        symbolic = [
            (k, n)
            for n in range(8)
            for k in range(n + 1)
            if (n + 1) ** 2 - k * k <= 16
        ]
        for k, n in symbolic:
            assert verify_conjecture3(k, n, "symbolic").passed(), (k, n)
        for k, n in ((8, 8), (9, 9), (4, 5), (2, 4), (11, 11), (1, 4), (12, 12),
                     (0, 4)):
            report = verify_conjecture3(k, n, "specialized", seed=20260815)
            assert report.passed(), (k, n)
            assert len(report.details["samples"]) == 3

    _gate(4, "permanent = determinant (symbolic <=16, seeded <=25)", 300, body)


def test_criterion_05_angle_table():
    pi4_goldens = {2: (8, 2), 3: (70, 1), 4: (526, 2), 5: (13167, 1),
                   6: (280772, 2)}

    def body():
        for n in range(2, 7):
            row = theta_table_row(n)
            for s, col in ((0, "theta0"), (1, "thetaPi6"), (2, "thetaPi3"),
                           (3, "thetaPi2")):
                x, y = theta_point(s)
                value = det(build_huckel(0, n, bivariate_params(0, n, x, y)))
                if s == 1:
                    got = RadicalValue.from_cyc(value)
                    assert (got.scale, got.radical) == (
                        row[col].scale, row[col].radical), (n, s)
                else:
                    assert value.as_int() == row[col], (n, s)
            mag = row["thetaPi4"]
            assert (mag.scale, mag.radical) == pi4_goldens[n], n

    _gate(5, "unit-circle determinant table n=2..6", 120, body)


def test_criterion_06_shifted_pascal_closed_forms():
    def body():
        for n in range(9):
            computed = det(build_general_binomial(0, n, 1))
            assert computed == unit_shift_det(n) == unit_shift_det_asm(n), n
        for n in range(10):
            computed = det(build_general_binomial(0, n, -1))
            assert computed == predicted_det("ciucuMinusI", n).as_int(), n
        for n in range(9):
            for case, omega in (("ciucuOmega3", CycInt.omega3()),
                                ("ciucuOmega6", CycInt.omega6())):
                computed = det(build_general_binomial(0, n, omega))
                assert computed == predicted_det(case, n), (case, n)

    _gate(6, "shifted-Pascal determinant closed forms", 60, body)


def test_criterion_07_product_sequences():
    def body():
        for n in range(61):
            assert eq5_identity(n) == 1, n
        assert [formula_A(n) for n in range(1, 8)] == [1, 2, 7, 42, 429, 7436,
                                                       218348]
        assert [formula_AHT(n) for n in range(2, 8)] == [2, 3, 10, 25, 140, 588]

    _gate(7, "factorial-product sequences and telescoping identity", 30, body)


def test_criterion_08_asymptotic_ratio():
    def body():
        deviations = []
        for L in (8, 10, 12, 14, 16):
            ratio = mitra_ratio(L)
            bracket = MITRA_CONSTANT + _MITRA_C3 * L**-1.5 + _MITRA_C4 * L**-2
            assert abs(ratio - bracket) < 2e-2, L
            deviations.append(abs(ratio - MITRA_CONSTANT))
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < deviations[0]

    _gate(8, "i-shifted determinant asymptotic ratio", 60, body)


def test_criterion_09_structural_properties():
    def body():
        for n in range(7):
            assert verify_props(n).passed(), n
        for m in range(1, 7):
            r = build_R(m)
            w = r.transpose() * invert_T(m) * r
            num, den, u = rank1_factor(w, svar(m))
            assert num == (-1) ** m * xvar(m) * yvar(m), m
            assert den == svar(m), m
            assert list(u) == alternating_unit_vector(m), m
        for n in range(1, 4):
            assert det(build_bordered(n), "sparse-minor-expansion") == det(
                build_huckel(0, n), "sparse-minor-expansion"
            ), n
        pre, step = schur_det_step(build_huckel(0, 4), 4)
        assert pre == 1 and step == build_bordered(4)
        for n in range(1, 5):
            trace = condense(n)
            assert det(trace.final) == det(build_reduced(0, n)), n

    _gate(9, "structural propositions and factorizations", 120, body)


def test_criterion_10_oracles():
    def body():
        boxes = list(product(range(4), repeat=3)) + [(2, 3, 4), (1, 4, 4)]
        for a, b, c in boxes:
            assert count_plane_partitions(a, b, c) == formula_macmahon(a, b, c), (
                a, b, c)
        audited = [condensation_det(0, 3)]
        audited += [condensation_det(k, n) for k, n in ((6, 7), (7, 9), (6, 9))]
        for p in audited:
            assert audit_passes(square_coefficient_audit(p))
        g = TriangleGraph(0, 2)
        keep = [g.index(1, 0), g.index(1, 1), g.index(1, 2),
                g.index(2, 1), g.index(2, 2), g.index(2, 3)]
        nv, edges = g.induced_edges(keep)
        matchings = count_matchings(nv, edges)
        d = det(build_huckel(0, 2), "sparse-minor-expansion")
        assert d.coefficient({"x0": 1, "x2": 1, "y2": 1}) == matchings**2 == 4

    _gate(10, "independent enumeration oracles", 120, body)
