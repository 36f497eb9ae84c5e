"""Closed-form block inverses and determinant-preserving condensation."""

from fractions import Fraction

import pytest

from huckelpascal.linalg import TooLarge, det, rank1_factor
from huckelpascal.matrices import (
    BadRange,
    PolyMatrix,
    alternating_unit_vector,
    build_bordered,
    build_huckel,
    build_R,
    build_reduced,
    build_T,
    bivariate_params,
)
from huckelpascal.poly import svar, xvar, yvar
from huckelpascal.schur import (
    BlockMismatch,
    condensation_det,
    condense,
    invert_T,
    schur_det_step,
)


class TestInvertT:
    def test_m1_golden(self):
        x, y = xvar(1), yvar(1)
        expected = PolyMatrix([[-1, y, 1], [x, -(x * y), y], [1, x, -1]])
        assert invert_T(1) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_defining_identity(self, m):
        w = invert_T(m)
        n = 2 * m + 1
        assert build_T(m) * w == PolyMatrix.identity(n, one=svar(m))

    def test_bad_range(self):
        with pytest.raises(BadRange):
            invert_T(0)
        with pytest.raises(BadRange):
            invert_T(-2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_odd_first_row_pattern(self, m):
        w = invert_T(m)
        y = yvar(m)
        pattern = [-1, y, 1, -y]
        assert [w[0, j] for j in range(2 * m + 1)] == [
            pattern[j % 4] for j in range(2 * m + 1)
        ]

    @pytest.mark.parametrize("m", [2, 4])
    def test_even_first_row_pattern(self, m):
        w = invert_T(m)
        y = yvar(m)
        pattern = [1, y, -1, -y]
        assert [w[0, j] for j in range(2 * m + 1)] == [
            pattern[j % 4] for j in range(2 * m + 1)
        ]

    @pytest.mark.parametrize("m", [2, 3])
    def test_toeplitz_when_xy_is_one(self, m):
        params = {f"x{m}": Fraction(2), f"y{m}": Fraction(1, 2)}
        w = invert_T(m, params)
        n = 2 * m + 1
        for i in range(n - 1):
            for j in range(n - 1):
                assert w[i, j] == w[i + 1, j + 1]

    def test_not_toeplitz_generically(self):
        params = {"x2": Fraction(2), "y2": Fraction(3)}
        w = invert_T(2, params)
        n = 5
        assert any(
            w[i, j] != w[i + 1, j + 1]
            for i in range(n - 1)
            for j in range(n - 1)
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_coupling_compresses_to_rank_one(self, m):
        """R_m^T (S T_m^{-1}) R_m = (-1)^m x_m y_m u u^T with the
        alternating unit vector u."""
        r = build_R(m)
        w = r.transpose() * invert_T(m) * r
        num, den, u = rank1_factor(w, svar(m))
        assert num == (-1) ** m * (xvar(m) * yvar(m))
        assert den == svar(m)
        assert list(u) == alternating_unit_vector(m)


class TestSchurStep:
    def test_h1_golden(self):
        pre, red = schur_det_step(build_huckel(0, 1), 1)
        assert pre == 1
        s1, s0 = svar(1), svar(0)
        assert red == PolyMatrix([[s1, -xvar(1)], [yvar(1), s0]])
        assert det(red) == det(build_huckel(0, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_first_step_is_the_bordered_matrix(self, n):
        """One elimination of the last row block reproduces the bordered
        (n^2+1)-matrix exactly, border signs included."""
        pre, red = schur_det_step(build_huckel(0, n), n)
        assert pre == 1
        assert red == build_bordered(n)

    def test_block_mismatch_wrong_index(self):
        with pytest.raises(BlockMismatch):
            schur_det_step(build_huckel(0, 2), 1)

    def test_block_mismatch_too_small(self):
        with pytest.raises(BlockMismatch):
            schur_det_step(PolyMatrix([[1]]), 3)

    def test_singular_specialization_refused(self):
        params = {"x0": 2, "y0": 3, "x1": 1, "y1": -1}
        m = build_huckel(0, 1, params)
        with pytest.raises(ZeroDivisionError):
            schur_det_step(m, 1, params)

    def test_trapezium_single_block_edge(self):
        pre, red = schur_det_step(build_huckel(2, 2), 2)
        assert pre == 1
        assert red == PolyMatrix([[svar(2)]])

    def test_step_preserves_det_symbolically(self):
        h2 = build_huckel(0, 2)
        target = det(h2, "sparse-minor-expansion")
        _, mid = schur_det_step(h2, 2)
        assert det(mid) == target
        _, final = schur_det_step(mid, 1)
        assert det(final) == target


class TestCondense:
    def test_trace_shape(self):
        trace = condense(2)
        assert [(s.m, s.size) for s in trace.steps] == [(2, 5), (1, 3)]
        assert trace.final.dim == 3
        assert trace.steps[0].border == str(svar(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_final_det_matches_direct_reduction(self, n):
        trace = condense(n)
        assert trace.final.dim == n + 1
        assert det(trace.final) == det(build_reduced(0, n))

    def test_final_det_matches_big_matrix(self):
        # n = 2: compare against the raw 9x9 determinant
        assert det(condense(2).final) == det(
            build_huckel(0, 2), "sparse-minor-expansion"
        )

    def test_final_diagonal_collects_row_sums(self):
        trace = condense(3)
        diag = [trace.final[i, i] for i in range(4)]
        assert diag == [svar(1), svar(2), svar(3), svar(0)]

    def test_cost_guard(self):
        with pytest.raises(BadRange):
            condense(0)
        with pytest.raises(TooLarge):
            condense(6)

    def test_specialized_matches_direct(self):
        params = bivariate_params(0, 3, 5, 7)
        trace = condense(3, params)
        assert det(trace.final) == det(build_huckel(0, 3, params))


class TestCondensationDet:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3)])
    def test_trapezium_matches_direct_symbolic(self, k, n):
        assert condensation_det(k, n) == det(
            build_huckel(k, n), "sparse-minor-expansion"
        )

    def test_single_row_trapezia(self):
        assert condensation_det(2, 2) == svar(2)
        assert condensation_det(0, 0) == svar(0)

    def test_triangle_matches_reduced(self):
        assert condensation_det(0, 3) == det(build_reduced(0, 3))

    def test_integer_specialization_matches_direct(self):
        params = {}
        for i in range(6, 8):
            params[f"x{i}"] = 2 + i
            params[f"y{i}"] = 3 * i - 5
        assert condensation_det(6, 7, params) == det(build_huckel(6, 7, params))

    def test_seeded_points_match_direct(self):
        import random

        rng = random.Random(20260815)
        for _ in range(5):
            params = {}
            for i in range(4):
                params[f"x{i}"] = rng.randint(1, 50)
                params[f"y{i}"] = rng.randint(1, 50)
            assert condensation_det(0, 3, params) == det(
                build_huckel(0, 3, params)
            )

    def test_400_rows_match_elimination(self, monkeypatch):
        import random

        monkeypatch.setenv("HUCKEL_MAX_SIZE", "400")
        rng = random.Random(20261018)
        params = {}
        for i in range(20):
            params[f"x{i}"] = rng.randint(1, 99)
            params[f"y{i}"] = rng.randint(1, 99)
        assert condensation_det(0, 19, params) == det(build_huckel(0, 19, params))

    def test_symbolic_guard(self):
        with pytest.raises(TooLarge):
            condensation_det(0, 8)  # 81 vertices symbolic

    def test_specialized_guard_is_looser(self):
        params = bivariate_params(0, 8, 3, 4)
        assert condensation_det(0, 8, params) == det(build_huckel(0, 8, params))

    def test_env_override(self, monkeypatch):
        with pytest.raises(TooLarge):
            condensation_det(5, 9)  # 75 vertices symbolic
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "75")
        val = condensation_det(5, 9)
        point = {}
        for i in range(5, 10):
            point[f"x{i}"] = 2 + i
            point[f"y{i}"] = 2 * i + 1
        direct = det(build_huckel(5, 9, point))
        assert val.evaluate(point) == direct
