"""Determinant strategies, permanents, charpoly, rank-1 factoring."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from huckelpascal.cyclotomic import CycInt, GaussInt
from huckelpascal.linalg import (
    DET_STRATEGIES,
    NotRankOne,
    StrategyPrecondition,
    TooLarge,
    charpoly,
    coefficient_list,
    det,
    permanent,
    permutation_parity_census,
    rank1_factor,
)
from huckelpascal.matrices import (
    PolyMatrix,
    bivariate_params,
    build_huckel,
    build_pascal,
)
from huckelpascal.poly import MultiPoly, svar, xvar, yvar

# coefficient rows of det H_n(x, y) in x^(n+1-k) y^k, k = 0..n+1
BIVARIATE_DET_ROWS = {
    0: [1, 1],
    1: [1, 3, 1],
    2: [1, 9, 9, 1],
    3: [1, 29, 72, 29, 1],
    4: [1, 99, 626, 626, 99, 1],
}


def biv_huckel(n: int) -> PolyMatrix:
    return build_huckel(0, n, bivariate_params(0, n, xvar(0), yvar(0)))


def coeff_row(p: MultiPoly, degree: int) -> list[int]:
    return [
        p.coefficient({"x0": degree - k, "y0": k}) for k in range(degree + 1)
    ]


class TestDeterminantStrategies:
    @pytest.mark.parametrize("n", sorted(BIVARIATE_DET_ROWS))
    def test_interpolation_recovers_golden_rows(self, n):
        d = det(biv_huckel(n), "bivariate-interpolation", degree=n + 1)
        assert coeff_row(d, n + 1) == BIVARIATE_DET_ROWS[n]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_all_strategies_agree_on_triangles(self, n):
        m = biv_huckel(n)
        vals = [
            det(m, s, degree=n + 1 if s == "bivariate-interpolation" else None)
            for s in DET_STRATEGIES
        ]
        reference = _brute_det(m.rows)
        assert all(v == reference for v in vals)

    def test_strategy_agreement_on_trapezium(self):
        # (1, 2) has 8 vertices and two parameter pairs, so no interpolation
        m = build_huckel(1, 2)
        a = det(m, "fraction-free-elimination")
        b = det(m, "sparse-minor-expansion")
        c = _brute_det(m.rows)
        assert a == b == c

    def test_pascal_determinants_are_one(self):
        for n in range(6):
            assert det(build_pascal("lower", n)) == 1
            assert det(build_pascal("symmetric", n)) == 1

    def test_pascal_product_det(self):
        p = build_pascal("lower", 4)
        assert det(p * p.transpose()) == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_minor_matches_reference_strategies(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])
        rows = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        zeroed_row = [list(r) for r in rows]
        zeroed_row[data.draw(st.integers(0, n - 1))] = [0] * n
        col = data.draw(st.integers(0, n - 1))
        zeroed_col = [[0 if j == col else e for j, e in enumerate(r)] for r in rows]
        for case in (rows, zeroed_row, zeroed_col):
            m = PolyMatrix(case)
            assert det(m, "sparse-minor-expansion") == det(m) == _brute_det(case)

    def test_sparse_minor_state_guard_refuses_dense(self):
        rows = [[1] * 24 for _ in range(24)]
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="states"):
            det(PolyMatrix(rows), "sparse-minor-expansion")
        assert time.perf_counter() - t0 < 0.5

    def test_zero_column_short_circuits(self):
        m = PolyMatrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]])
        for s in ("fraction-free-elimination", "sparse-minor-expansion"):
            assert det(m, s) == 0

    def test_empty_and_single(self):
        assert det(PolyMatrix([])) == 1
        assert det(PolyMatrix([[7]])) == 7

    def test_fraction_entries(self):
        m = PolyMatrix([[Fraction(1, 2), 1], [1, 2]])
        assert det(m) == 0
        m2 = PolyMatrix([[Fraction(1, 2), 1], [1, 3]])
        assert det(m2) == Fraction(1, 2)

    def test_cyclotomic_entries(self):
        z = CycInt.zeta(1)
        m = PolyMatrix([[z, CycInt(1)], [CycInt(1), z.conjugate()]])
        assert det(m) == CycInt(0)
        assert det(m, "sparse-minor-expansion") == CycInt(0)

    def test_unknown_strategy(self):
        with pytest.raises(StrategyPrecondition):
            det(PolyMatrix([[1]]), "cofactor-magic")

    def test_mixed_rings_rejected(self):
        m = PolyMatrix([[CycInt(1), xvar(0)], [1, 1]])
        with pytest.raises(TypeError):
            det(m)


# nonzero ring elements from a nonzero integer pair (a, b)
RING_ELEMENTS = {
    "int": lambda a, b: a,
    "fraction": lambda a, b: Fraction(a, 1 + abs(b)),
    "cyc": lambda a, b: CycInt(a, 0, b, 0),
    "gauss": lambda a, b: GaussInt(a, b),
    "poly": lambda a, b: a * xvar(0) + b * yvar(1),
}


class TestSparseElimination:
    @pytest.mark.parametrize("ring", sorted(RING_ELEMENTS))
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_sparse_matrices(self, ring, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        make = RING_ELEMENTS[ring]
        nonzero = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
            lambda ab: ab[0] != 0
        ).map(lambda ab: make(*ab))
        entry = st.one_of(st.just(0), st.just(0), nonzero)
        # a planted permutation keeps most determinants nonzero
        planted = data.draw(st.permutations(range(n)))
        zero_diagonal = data.draw(st.booleans())  # forces row swaps
        rows = []
        for i in range(n):
            # leading zeros leave a row out of several steps before it is used
            start = data.draw(st.integers(0, n - 1))
            row = [0] * start + data.draw(
                st.lists(entry, min_size=n - start, max_size=n - start)
            )
            row[planted[i]] = data.draw(nonzero)
            if zero_diagonal:
                row[i] = 0
            rows.append(row)
        assert det(PolyMatrix(rows)) == _brute_det(rows)

    def test_pivot_entry_is_read_after_catch_up(self):
        # rows 1 and 2 miss step 0; at step 1 row 1 pivots and row 2, still
        # unscaled, is updated: its column-1 entry must be scaled by 2 first
        rows = [[2, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]]
        assert det(PolyMatrix(rows)) == _brute_det(rows) == -3


class TestInterpolationGuards:
    def test_degree_required(self):
        with pytest.raises(StrategyPrecondition):
            det(biv_huckel(1), "bivariate-interpolation")

    def test_two_pairs_rejected(self):
        m = build_huckel(1, 2)  # uses x1, y1, x2, y2
        with pytest.raises(StrategyPrecondition):
            det(m, "bivariate-interpolation", degree=2)

    def test_inhomogeneous_rejected(self):
        m = PolyMatrix([[xvar(0) + 1]])
        with pytest.raises(StrategyPrecondition):
            det(m, "bivariate-interpolation", degree=1)

    def test_z_variable_rejected(self):
        from huckelpascal.poly import zvar

        m = PolyMatrix([[xvar(0) + zvar(), yvar(0)], [yvar(0), xvar(0)]])
        with pytest.raises(StrategyPrecondition):
            det(m, "bivariate-interpolation", degree=2)


class TestPermutationCensus:
    def test_triangle_has_no_odd_contributions(self):
        """Every permutation with nonzero support in the adjacency form is
        even, so the determinant over 0/1/x/y entries has no cancellation."""
        for k, n in [(0, 1), (0, 2), (1, 2)]:
            even, odd = permutation_parity_census(build_huckel(k, n))
            assert odd == 0
            assert even > 0

    def test_census_matches_support_determinant(self):
        # on the 0/1 support matrix every contribution is exactly +-1, so
        # even - odd = det(support) and, with odd = 0, even = perm(support)
        m = build_huckel(0, 2)
        support = m.map_entries(lambda e: 0 if e == 0 else 1)
        even, odd = permutation_parity_census(m)
        assert even - odd == det(support)
        assert odd == 0
        assert even == permanent(support)

    def test_dense_matrix_census(self):
        q = build_pascal("symmetric", 2)
        even, odd = permutation_parity_census(q)
        assert even + odd == 6  # all 3! permutations contribute
        assert even - odd != det(q)  # parity counts ignore magnitudes


class TestPermanent:
    def test_two_by_two(self):
        assert permanent(PolyMatrix([[1, 1], [1, 1]])) == 2
        assert permanent(PolyMatrix([[1, 2], [3, 4]])) == 10

    def test_empty(self):
        assert permanent(PolyMatrix([])) == 1

    def test_symbolic_triangle_matches_det(self):
        m = biv_huckel(1)
        x, y = xvar(0), yvar(0)
        expected = x**2 + 3 * x * y + y**2
        assert permanent(m) == expected
        assert det(m) == expected

    def test_integer_triangle_golden(self):
        m = build_huckel(0, 2, bivariate_params(0, 2, 2, 3))
        assert permanent(m) == 305
        assert det(m) == 305

    def test_row_of_zeros(self):
        assert permanent(PolyMatrix([[0, 0], [1, 1]])) == 0

    def test_symbolic_guard(self):
        rows = [
            [xvar(0) if i == j else 0 for j in range(17)] for i in range(17)
        ]
        with pytest.raises(TooLarge):
            permanent(PolyMatrix(rows))

    def test_symbolic_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "17")
        rows = [
            [xvar(0) if i == j else 0 for j in range(17)] for i in range(17)
        ]
        assert permanent(PolyMatrix(rows)) == xvar(0) ** 17

    def test_integer_guard(self):
        rows = [[1] * 29 for _ in range(29)]
        with pytest.raises(TooLarge):
            permanent(PolyMatrix(rows))

    def test_modular_path_tridiagonal_fibonacci(self):
        """Permanents of the all-ones tridiagonal matrix follow the
        Fibonacci recursion, giving an independent check on the frontier path."""
        def tridiag(n):
            return PolyMatrix(
                [
                    [1 if abs(i - j) <= 1 else 0 for j in range(n)]
                    for i in range(n)
                ]
            )

        fib = [1, 1]
        while len(fib) < 24:
            fib.append(fib[-1] + fib[-2])
        assert permanent(tridiag(8)) == fib[8]
        # at dimension 21 the tridiagonal support keeps the frontier walk
        # to a few free-column sets per row
        assert permanent(tridiag(21)) == fib[21]

    def test_modular_path_negative_entries(self):
        rows = [
            [(-1) ** (i + j) if abs(i - j) <= 1 else 0 for j in range(21)]
            for i in range(21)
        ]
        small = [row[:9] for row in rows[:9]]
        # the 9x9 truncation runs exactly; reuse its sign pattern at 21
        assert permanent(PolyMatrix(small)) == _brute_perm(small)
        val = permanent(PolyMatrix(rows))
        assert isinstance(val, int)
        assert val != 0

    @pytest.mark.parametrize("n", range(21, 29))
    def test_frontier_state_guard_refuses_dense(self, n):
        rows = [[1] * n for _ in range(n)]
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="states"):
            permanent(PolyMatrix(rows))
        assert time.perf_counter() - t0 < 0.5

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_frontier_matches_brute_force(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        nonzero = data.draw(st.sampled_from([
            [1, -1, 2, -3, 5],
            [1, -1, xvar(0), yvar(1) - 2, xvar(0) * yvar(0) + 3],
            [CycInt(1), CycInt.zeta(1), -CycInt.zeta(5), CycInt.sqrt3() + 2, CycInt(-3)],
            [GaussInt(1), GaussInt(0, 1), GaussInt(2, -1), GaussInt(-3), GaussInt(1, 1)],
        ]))
        entry = st.sampled_from([0, 0, 0] + nonzero)
        rows = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        assert permanent(PolyMatrix(rows)) == _brute_perm(rows)
        rows[data.draw(st.integers(0, n - 1))] = [0] * n
        assert permanent(PolyMatrix(rows)) == 0

    def test_frontier_zero_column(self):
        rows = [[1, 0, 2], [-1, 0, 3], [4, 0, 5]]
        assert permanent(PolyMatrix(rows)) == _brute_perm(rows) == 0


def _brute_perm(rows):
    from itertools import permutations

    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        p = 1
        for i, j in enumerate(perm):
            p *= rows[i][j]
            if p == 0:
                break
        total += p
    return total


def _brute_det(rows):
    """Signed sum over the permutations with nonzero support, depth first;
    skipping zero entries keeps the 9x9 triangle to its few coverings."""
    n = len(rows)

    def walk(r, used, sign, prod):
        if r == n:
            return sign * prod
        total = 0
        for j, e in enumerate(rows[r]):
            if not used & (1 << j) and e != 0:
                # every used column right of j is one more inversion
                flips = (used >> (j + 1)).bit_count()
                total = total + walk(r + 1, used | 1 << j, sign * (-1) ** flips, prod * e)
        return total

    return walk(0, 0, 1, 1)


class TestCharpoly:
    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (0, [1, 1]),
            (1, [1, 3, 1]),
            (2, [1, 9, 9, 1]),
            (3, [1, 29, 72, 29, 1]),
        ],
    )
    def test_pascal_charpoly_goldens(self, n, coeffs):
        p = charpoly(build_pascal("symmetric", n))
        assert coefficient_list(p, "z", n + 1) == coeffs

    def test_self_reciprocal(self):
        """det(zI + Q) for the symmetric Pascal matrix reads the same
        forwards and backwards: Q is conjugate to its own inverse."""
        for n in range(6):
            p = charpoly(build_pascal("symmetric", n))
            cs = coefficient_list(p, "z", n + 1)
            assert cs == cs[::-1]

    def test_matches_bivariate_det(self):
        # homogenizing det(zI + Q_n) with y recovers det H_n(x, y)
        n = 3
        p = charpoly(build_pascal("symmetric", n))
        cs = coefficient_list(p, "z", n + 1)
        d = det(biv_huckel(n), "bivariate-interpolation", degree=n + 1)
        assert coeff_row(d, n + 1) == cs

    def test_rejects_polynomial_matrix(self):
        with pytest.raises(StrategyPrecondition):
            charpoly(PolyMatrix([[xvar(0)]]))


class TestRank1Factor:
    @staticmethod
    def _pattern(m: int) -> list[int]:
        u = []
        for t in range(2 * m - 1):
            u.append((-1) ** (t // 2) if t % 2 == 0 else 0)
        return u

    def test_odd_block_compression_shape(self):
        m = 3
        u = self._pattern(m)  # [1, 0, -1, 0, 1]
        scale = -(xvar(m) * yvar(m))
        rows = [[scale * (a * b) for b in u] for a in u]
        num, den, uvec = rank1_factor(PolyMatrix(rows), svar(m))
        assert num == scale
        assert den == svar(m)
        assert list(uvec) == u

    def test_even_block_compression_shape(self):
        m = 4
        u = self._pattern(m)  # [1, 0, -1, 0, 1, 0, -1]
        scale = xvar(m) * yvar(m)
        rows = [[scale * (a * b) for b in u] for a in u]
        num, den, uvec = rank1_factor(PolyMatrix(rows), svar(m))
        assert num == scale
        assert den == svar(m)
        assert list(uvec) == u

    def test_normalization_flips_leading_sign(self):
        u = [-1, 0, 1]
        rows = [[5 * (a * b) for b in u] for a in u]
        num, den, uvec = rank1_factor(PolyMatrix(rows))
        assert uvec == (1, 0, -1)
        assert num == 5
        assert den == 1

    def test_zero_matrix(self):
        with pytest.raises(NotRankOne):
            rank1_factor(PolyMatrix([[0, 0], [0, 0]]))

    def test_rank_two_rejected(self):
        with pytest.raises(NotRankOne):
            rank1_factor(PolyMatrix([[1, 0], [0, 1]]))

    def test_non_unit_ratio_rejected(self):
        with pytest.raises(NotRankOne):
            rank1_factor(PolyMatrix([[1, 2], [2, 4]]))


int_entries = st.integers(min_value=-6, max_value=6)


def square_matrices(max_dim: int):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.lists(int_entries, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


class TestAlgebraicInvariants:
    @given(square_matrices(4))
    @settings(max_examples=60, deadline=None)
    def test_strategies_agree_on_integer_matrices(self, rows):
        m = PolyMatrix(rows)
        a = det(m, "fraction-free-elimination")
        b = det(m, "sparse-minor-expansion")
        c = _brute_det(rows)
        assert a == b == c

    @given(square_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariance(self, rows):
        m = PolyMatrix(rows)
        assert det(m) == det(m.transpose())
        assert permanent(m) == permanent(m.transpose())

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_det_multiplicative(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        grid = st.lists(
            st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
        a = PolyMatrix(data.draw(grid))
        b = PolyMatrix(data.draw(grid))
        assert det(a * b) == det(a) * det(b)

    @given(square_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_permanent_row_swap_invariance(self, rows):
        if len(rows) < 2:
            return
        swapped = [rows[1], rows[0]] + rows[2:]
        assert permanent(PolyMatrix(rows)) == permanent(PolyMatrix(swapped))
