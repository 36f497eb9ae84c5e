"""Product formulas, predicted determinants, and the i-shift asymptotics."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from huckelpascal.cyclotomic import CycInt, RadicalValue
from huckelpascal.formulas import (
    MITRA_CONSTANT,
    BadParity,
    CaseMismatch,
    eq5_identity,
    formula_A,
    formula_AHT,
    formula_macmahon,
    mitra_estimate,
    mitra_ratio,
    pi4_magnitude,
    predicted_det,
    theta_table,
    theta_table_row,
    unit_shift_det,
    unit_shift_det_asm,
)
from huckelpascal.linalg import det
from huckelpascal.matrices import (
    BadRange,
    build_general_binomial,
    build_huckel,
    bivariate_params,
)
from huckelpascal.cyclotomic import theta_point

ASM = [1, 1, 2, 7, 42, 429, 7436, 218348]
AHT = [1, 1, 2, 3, 10, 25, 140, 588]

# unit-circle determinant values for H_n, n = 2..6:
# columns theta = 0, pi/6, pi/4, pi/3, pi/2
THETA_TABLE = {
    2: (20, (9, 3), (8, 2), 7, 0),
    3: (132, (100, 1), (70, 1), 42, 16),
    4: (1452, (625, 3), (526, 2), 429, 0),
    5: (26741, (19600, 1), (13167, 1), 7436, 2401),
    6: (826540, (345744, 3), (280772, 2), 218348, 0),
}


class TestProducts:
    def test_asm_sequence(self):
        assert [formula_A(n) for n in range(8)] == ASM

    def test_half_turn_sequence(self):
        assert [formula_AHT(n) for n in range(8)] == AHT

    def test_negative_rejected(self):
        with pytest.raises(BadRange):
            formula_A(-1)
        with pytest.raises(BadRange):
            formula_AHT(-3)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_products_are_integers(self, n):
        # _int_product raises if any cancellation fails
        assert formula_A(n) >= 1
        assert formula_AHT(n) >= 1

    def test_macmahon_small_boxes(self):
        assert formula_macmahon(1, 1, 1) == 2
        assert formula_macmahon(2, 2, 2) == 20
        assert formula_macmahon(3, 3, 3) == 980

    def test_macmahon_against_triple_product(self):
        def triple(a, b, c):
            total = Fraction(1)
            for i in range(1, a + 1):
                for j in range(1, b + 1):
                    for k in range(1, c + 1):
                        total *= Fraction(i + j + k - 1, i + j + k - 2)
            assert total.denominator == 1
            return int(total)

        for a in range(5):
            for b in range(5):
                for c in range(5):
                    assert formula_macmahon(a, b, c) == triple(a, b, c)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_macmahon_symmetric_in_box_sides(self, a, b, c):
        v = formula_macmahon(a, b, c)
        assert v == formula_macmahon(b, a, c) == formula_macmahon(c, b, a)

    def test_empty_box(self):
        assert formula_macmahon(0, 4, 9) == 1


class TestFactorialIdentity:
    def test_identity_holds_far_out(self):
        for n in range(61):
            assert eq5_identity(n) == 1


class TestUnitShift:
    def test_value_sequence(self):
        assert [unit_shift_det(n) for n in range(7)] == [
            2,
            5,
            20,
            132,
            1452,
            26741,
            826540,
        ]

    def test_two_product_forms_agree(self):
        for n in range(11):
            assert unit_shift_det(n) == unit_shift_det_asm(n)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_exact_determinant(self, n):
        assert det(build_general_binomial(0, n, 1)) == unit_shift_det(n)


class TestPredictedDet:
    def test_theta0_equals_unit_shift(self):
        for n in range(6):
            assert predicted_det("theta0", n) == predicted_det("andrewsQI", n)
            assert predicted_det("theta0", n) == CycInt(unit_shift_det(n))

    @pytest.mark.parametrize("n", range(8))
    def test_minus_shift_exact(self, n):
        assert det(build_general_binomial(0, n, -1)) == predicted_det(
            "ciucuMinusI", n
        ).as_int()

    @pytest.mark.parametrize("n", range(5))
    def test_omega3_shift_exact(self, n):
        actual = det(build_general_binomial(0, n, CycInt.omega3()))
        assert actual == predicted_det("ciucuOmega3", n)

    @pytest.mark.parametrize("n", range(5))
    def test_omega6_shift_exact(self, n):
        actual = det(build_general_binomial(0, n, CycInt.omega6()))
        assert actual == predicted_det("ciucuOmega6", n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_unit_circle_triangle_dets(self, n, s):
        """det H_n at x = zeta^-s, y = zeta^s equals the predicted value
        for theta = s*pi/6, computed fully inside Z[zeta_12]."""
        x, y = theta_point(s)
        m = build_huckel(0, n, bivariate_params(0, n, x, y))
        case = {0: "theta0", 1: "thetaPi6", 2: "thetaPi3", 3: "thetaPi2"}[s]
        assert det(m) == predicted_det(case, n)

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            predicted_det("thetaPi5", 2)

    def test_negative_n(self):
        with pytest.raises(BadRange):
            predicted_det("theta0", -1)


def _float_det(grid: list[list[complex]]) -> complex:
    """det of a complex matrix by Gaussian elimination with partial
    pivoting, in floating point: an inexact route that shares no code with
    the exact ones."""
    a = [[complex(e) for e in row] for row in grid]
    value = 1 + 0j
    for c in range(len(a)):
        p = max(range(c, len(a)), key=lambda r: abs(a[r][c]))
        if not a[p][c]:
            return 0j
        if p != c:
            a[c], a[p] = a[p], a[c]
            value = -value
        value *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for j in range(c, len(a)):
                a[r][j] -= f * a[c][j]
    return value


class TestPi4Column:
    @pytest.mark.parametrize(
        "n,scale,rad",
        [(2, 8, 2), (3, 70, 1), (4, 526, 2), (5, 13167, 1), (6, 280772, 2)],
    )
    def test_magnitudes(self, n, scale, rad):
        assert pi4_magnitude(n) == RadicalValue(scale, rad)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_float_cross_check(self, n):
        w = cmath.exp(-1j * cmath.pi / 4)
        params = bivariate_params(0, n, w, w.conjugate())
        rows = build_huckel(0, n).rows
        grid = [
            [
                e.evaluate(params) if hasattr(e, "evaluate") else e
                for e in row
            ]
            for row in rows
        ]
        target = abs(_float_det(grid))
        assert abs(float(pi4_magnitude(n)) - target) < 1e-6 * max(1.0, target)


class TestMitra:
    def test_parity_and_range(self):
        with pytest.raises(BadParity):
            mitra_ratio(7)
        with pytest.raises(BadRange):
            mitra_ratio(2)
        with pytest.raises(BadRange):
            mitra_ratio(22)

    def test_ratio_approaches_constant(self):
        gaps = []
        for L in (4, 6, 8, 10):
            gaps.append(abs(mitra_ratio(L) - MITRA_CONSTANT))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 2e-2

    def test_estimate_tracks_exact_values(self):
        # exact |det| values at L = 4 and 6 are 70 and 13167
        assert abs(mitra_estimate(4) - 70) < 0.1
        assert abs(mitra_estimate(6) - 13167) < 1.0

    def test_estimate_past_the_float_range_is_none(self):
        # AHT(54)^2 is the first square over the float range
        assert mitra_estimate(52) > 1e300
        assert mitra_estimate(54) is None


class TestThetaTable:
    def test_rows_match_transcribed_values(self):
        for n, (t0, (p6s, p6r), (p4s, p4r), p3, p2) in THETA_TABLE.items():
            row = theta_table_row(n)
            assert row["theta0"] == t0
            assert row["thetaPi6"] == RadicalValue(p6s, p6r)
            assert row["thetaPi4"] == RadicalValue(p4s, p4r)
            assert row["thetaPi3"] == p3
            assert row["thetaPi2"] == p2

    def test_mitra_column(self):
        row3 = theta_table_row(3)
        assert row3["mitra"] is not None
        assert abs(row3["mitra"] - 70) < 0.1
        assert theta_table_row(2)["mitra"] is None

    def test_mitra_cell_past_the_float_range_is_empty(self):
        assert theta_table_row(53)["mitra"] is None

    def test_table_spans_requested_rows(self):
        rows = theta_table(6)
        assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("call, error", [
    (lambda: formula_macmahon(-1, 1, 1), BadRange),
    (lambda: mitra_estimate(5), BadParity),
], ids=["macmahon-negative-side", "mitra-odd"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
