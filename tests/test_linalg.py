"""Determinant strategies, permanents, charpoly, rank-1 factoring."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from huckelpascal import linalg, schur, verify
from huckelpascal.cyclotomic import CycInt, GaussInt
from huckelpascal.formulas import predicted_det, unit_shift_det
from huckelpascal.linalg import (
    DET_STRATEGIES,
    NotRankOne,
    StrategyPrecondition,
    TooLarge,
    _det_rows,
    _ring_rows,
    charpoly,
    coefficient_list,
    det,
    huckel_guard,
    permanent,
    permutation_parity_census,
    rank1_factor,
    ring_kind,
    route_guard,
    symbolic_division_free_guard,
)
from huckelpascal.matrices import (
    BadRange,
    PolyMatrix,
    _huckel_rows,
    _reduced_rows,
    bivariate_params,
    build_general_binomial,
    build_huckel,
    build_pascal,
    build_reduced,
)
from huckelpascal.poly import MAX_DEGREE, MultiPoly, NotDivisible, svar, xvar, yvar, zvar
from huckelpascal.schur import condensation_det, schur_det_step
from huckelpascal.verify import _draw_params, bivariate_row

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
        d, row = bivariate_row(n)
        assert coeff_row(d, n + 1) == row == BIVARIATE_DET_ROWS[n]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_all_strategies_agree_on_triangles(self, n):
        # fraction-free elimination refuses polynomial entries, so it runs
        # on the triangle at a point
        m = biv_huckel(n)
        vals = [det(m, s) for s in DET_STRATEGIES if s != "fraction-free-elimination"]
        reference = _brute_det(m.rows)
        assert all(v == reference for v in vals)
        assert bivariate_row(n)[0] == reference
        at_point = build_huckel(0, n, bivariate_params(0, n, 2, 3))
        assert det(at_point, "fraction-free-elimination") == reference.evaluate(
            {"x0": 2, "y0": 3}
        )

    def test_strategy_agreement_on_trapezium(self):
        # (1, 2) has 8 vertices and two parameter pairs, so no interpolation
        m = build_huckel(1, 2)
        a = det(m, "division-free")
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
        for rows, message in (([[CycInt(1), xvar(0)], [1, 1]], "mixed entry rings"),
                              ([[1.5, 1], [1, 1]], "unsupported entry type float")):
            for read in (det, ring_kind):
                with pytest.raises(TypeError, match=message):
                    read(PolyMatrix(rows))


class TestRingRows:
    """The one reader every route runs: nonzero entries, lifted into one ring."""

    def test_ring_read_from_nonzero_entries_only(self):
        m = PolyMatrix([[CycInt(0), 2], [GaussInt(0), MultiPoly.zero(3)]])
        assert ring_kind(m) == "int"
        assert _ring_rows(m) == ([{1: 2}, {}], "int")
        assert det(m) == 0

    def test_polynomials_come_out_at_one_varcount(self):
        rows, kind = _ring_rows(PolyMatrix([[xvar(0), 2], [0, yvar(3)]]))
        assert kind == "poly"
        assert rows == [{0: xvar(0), 1: 2}, {1: yvar(3)}]
        assert {(type(e), e.varcount) for row in rows for e in row.values()} == {
            (MultiPoly, 4)
        }

    @pytest.mark.parametrize("element, kind", [
        (CycInt(0, 1), "cyc"), (GaussInt(0, 1), "gauss"), (Fraction(1, 2), "fraction"),
    ])
    def test_ints_are_lifted(self, element, kind):
        m = PolyMatrix([[element, 3], [0, 1]])
        assert ring_kind(m) == kind
        rows, read = _ring_rows(m)
        assert read == kind and rows == [{0: element, 1: 3}, {1: 1}]
        assert {type(e) for row in rows for e in row.values()} == {type(element)}


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
        # column 0 (rows 0, 3) pivots first on row 0; rows 1 and 2 miss that
        # step, and at step 1 row 1 pivots on column 1 while row 2, still
        # unscaled, is updated: it divides by the pivot it was last current
        # at, and row 1, caught up as it pivots, must be scaled by 2 first
        rows = [[2, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]]
        assert det(PolyMatrix(rows)) == _brute_det(rows) == -3


ELIMINATION_RINGS = sorted(set(RING_ELEMENTS) - {"poly"})


def _lifted(rows, ring):
    """The integer matrix with each nonzero entry embedded in the ring."""
    make = RING_ELEMENTS[ring]
    return [[make(e, 0) if e else 0 for e in row] for row in rows]


class TestUpdateWithoutCatchUp:
    # pivots (row, column): (2, 1), (0, 2), (1, 0), (3, 3), with pivots
    # 3, -3, -33, -15.  Row 3 is updated at step 0, skipped at step 1 and
    # updated at step 2, still at level 1: that update divides by
    # pivots[1] = 3, not by pivots[2] = -3
    ROWS = [[3, 0, -1, 0], [2, 0, 3, 3], [0, 3, 0, 3], [2, 1, 0, 2]]

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_stale_row_divides_by_the_pivot_it_was_current_at(self, ring):
        rows = _lifted(self.ROWS, ring)
        value, order = _det_and_order(rows)
        assert value == _brute_det(rows) == _lifted([[-15]], ring)[0][0]
        assert order == ([2, 0, 1, 3], [1, 2, 0, 3])

    def test_no_update_divides_by_the_later_pivot(self, monkeypatch):
        divisors = []
        original = linalg._divider

        def recorded(b, kind):
            divide = original(b, kind)

            def div(a):
                divisors.append(b)
                return divide(a)
            return div

        monkeypatch.setattr(linalg, "_divider", recorded)
        assert det(PolyMatrix(self.ROWS)) == -15
        # steps 0 and 1 divide by pivots[0] = 1, step 2 by pivots[1] = 3
        assert sorted(set(divisors)) == [1, 3]
        assert divisors == sorted(divisors)


class TestHolderSets:
    # step 0 pivots on (0, 0), and row 3 becomes {1: -1, 2: -2, 3: -1}: it
    # joins the holders of columns 1 and 3 by fill; step 1 pivots on (2, 1)
    # with row 2 = {1: 1, 2: 1, 3: 1}, and row 3 leaves column 3's holders
    # by cancellation (1 * -1 - (-1) * 1), so the last two steps pivot on
    # (3, 2) and on (1, 3), column 3's one holder left
    ROWS = [[-1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]]

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_row_joins_by_fill_and_leaves_by_cancellation(self, ring):
        rows = _lifted(self.ROWS, ring)
        value, order = _det_and_order(rows)
        assert value == _brute_det(rows) == _lifted([[-1]], ring)[0][0]
        assert order == ([0, 2, 3, 1], [0, 1, 2, 3]) == _dense_pivot_order(rows)


def _det_and_order(rows):
    """det by the sparse elimination loop, and the (rows, columns) orders of
    its pivots as passed to the sign; None for a matrix refused as singular
    first.  The loop is called directly, since ``det`` sends a fully dense
    symmetric matrix to the symmetric branch."""
    seen = []
    original = linalg.permutation_sign

    def recorded(perm):
        seen.append(list(perm))
        return original(perm)

    linalg.permutation_sign = recorded
    try:
        value = linalg._det_bareiss(*_ring_rows(PolyMatrix(rows)))
    finally:
        linalg.permutation_sign = original
    return value, (tuple(seen) if seen else None)


def _dense_pivot_order(rows):
    """Eager dense one-step Bareiss with the same pivot rule: the live
    column with the fewest nonzeros among the live rows, ties to the lowest
    index, on the lowest-index live row holding it.  The lazy sparse loop
    keeps each entry as this minor times a nonzero ratio of pivots, so the
    two see the same supports and must choose the same pivots."""
    n = len(rows)
    a = [list(row) for row in rows]
    live_rows, live_cols = list(range(n)), list(range(n))
    prev = 1
    order_rows, order_cols = [], []
    for _ in range(n):
        c = min(live_cols, key=lambda j: (sum(1 for i in live_rows if a[i][j] != 0), j))
        users = [i for i in live_rows if a[i][c] != 0]
        if not users:
            return None  # singular
        p = users[0]
        live_rows.remove(p)
        live_cols.remove(c)
        order_rows.append(p)
        order_cols.append(c)
        pc = a[p][c]
        for i in live_rows:
            ric = a[i][c]
            for j in live_cols:
                a[i][j] = _quotient(pc * a[i][j] - ric * a[p][j], prev)
            a[i][c] = 0
        prev = pc
    return order_rows, order_cols


def _quotient(num, den):
    """The exact quotient, by each ring's own division."""
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        assert r == 0
        return q
    if isinstance(num, Fraction):
        return num / den
    return num.exact_div(den)


class TestPivotOrder:
    """Step s eliminates the live column held by the fewest live rows, ties
    to the lowest index, on the lowest-index live row holding it; the sign
    is the product of the row and column order signs."""

    # column counts 4, 3, 1, 3: column 2 (row 1 only) goes first
    SPARSEST_LAST = [[1, 1, 0, 1], [1, 1, 2, 0], [1, 0, 0, 1], [1, 1, 0, 3]]

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_sparsest_column_goes_first(self, ring):
        rows = _lifted(self.SPARSEST_LAST, ring)
        value, order = _det_and_order(rows)
        assert value == _brute_det(rows)
        # step 1: column 1 (rows 0, 3) on row 0; row 3's column-0 entry
        # cancels, which leaves column 0 to row 2 alone
        assert order == ([1, 0, 2, 3], [2, 1, 0, 3])

    # column counts 4, 4, 3, 3: step 0 takes column 2 (tied with column 3)
    # on row 0, and row 3's column-0 entry cancels; column 0 is then down to
    # rows 1 and 2 and wins the tie with column 3, where it would have lost
    # had the count kept the cancelled entry
    CANCELS_TO_FIRST = [[-1, 1, -1, 2], [1, 2, 0, 0], [-1, 2, 1, 2], [1, 1, 1, -1]]

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_cancellation_lowers_a_column_count(self, ring):
        rows = _lifted(self.CANCELS_TO_FIRST, ring)
        value, order = _det_and_order(rows)
        assert value == _brute_det(rows)
        assert order == ([0, 1, 2, 3], [2, 0, 1, 3])

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_singular_only_after_cancellation(self, ring):
        # every row and column is nonzero; column 1 loses its last holder
        # when row 1's entry cancels against row 0 at step 1
        rows = _lifted([[1, 2, 0], [2, 4, 0], [0, 0, 1]], ring)
        value, order = _det_and_order(rows)
        assert value == 0 and order is None  # refused before any sign

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_odd_column_order_sign(self, ring):
        # column 1 (row 0 only) goes first: rows in order, columns swapped
        rows = _lifted([[3, 5], [7, 0]], ring)
        value, order = _det_and_order(rows)
        assert value == _lifted([[-35]], ring)[0][0]
        assert order == ([0, 1], [1, 0])

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_matches_a_dense_reference(self, ring, data):
        # small entries, so that cancellations and late singularity occur
        n = data.draw(st.integers(min_value=1, max_value=6))
        entry = st.sampled_from([0, 0, 0, 1, 1, -1, 2])
        ints = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        rows = _lifted(ints, ring)
        value, order = _det_and_order(rows)
        assert value == _brute_det(rows)
        expected = _dense_pivot_order(rows)
        assert order == (None if expected is None else tuple(expected))

    def test_exact_division_count_on_the_144_vertex_triangle(self, monkeypatch):
        point = _draw_params(random.Random(1), 0, 11, -(10**6), 10**6)
        h = build_huckel(0, 11, point)
        expected = det(h)
        calls = _counting_divider(monkeypatch)
        assert det(h) == expected
        # catching up each updated row first made 4 865 exact divisions
        # here, and index-order pivots 12 606
        assert calls == [3636]

    def test_400_vertex_triangle_matches_condensation(self, monkeypatch):
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "400")
        point = _draw_params(random.Random(19), 0, 19, -(10**6), 10**6)
        assert det(build_huckel(0, 19, point)) == condensation_det(0, 19, point)


def _dense_symmetric(draw, n, ring):
    """A random n x n symmetric matrix over ``ring`` with no zero entry;
    entries small, so that a leading minor vanishes now and then."""
    make = RING_ELEMENTS[ring]
    pair = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda ab: ab[0])
    upper = {(i, j): make(*draw(pair)) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


def _recording(monkeypatch, name):
    """Record the row count of each call of ``linalg.<name>``."""
    calls = []
    original = getattr(linalg, name)

    def recorded(rows, *args):
        calls.append(len(rows))
        return original(rows, *args)
    monkeypatch.setattr(linalg, name, recorded)
    return calls


def _counting_divider(monkeypatch):
    """Count the exact divisions run through ``linalg._divider``."""
    calls = [0]
    original = linalg._divider

    def counted_divider(*args):
        divide = original(*args)

        def counted(a):
            calls[0] += 1
            return divide(a)
        return counted
    monkeypatch.setattr(linalg, "_divider", counted_divider)
    return calls


class TestSymmetricBranch:
    """Elimination of a matrix with every entry nonzero and A = A^T runs
    on the upper triangle in natural order, and falls back to the sparse
    loop when a leading principal minor before the last vanishes."""

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_sparse_loop_and_brute_force(self, ring, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        m = _dense_symmetric(data.draw, n, ring)
        rows, kind = _ring_rows(PolyMatrix(m))
        given_rows = [dict(row) for row in rows]
        symmetric = linalg._det_symmetric(rows, kind)
        sparse = linalg._det_bareiss(rows, kind)
        assert rows == given_rows  # neither loop changes its input
        assert sparse == _brute_det(m) == det(PolyMatrix(m))
        assert symmetric is None or symmetric == sparse

    @pytest.mark.parametrize("ring", ELIMINATION_RINGS)
    def test_vanishing_leading_minor_falls_back(self, monkeypatch, ring):
        # the leading 2 x 2 minor is 1 * 1 - 1 * 1 = 0: the second pivot
        m = _lifted([[1, 1, 2], [1, 1, 3], [2, 3, 1]], ring)
        assert linalg._det_symmetric(*_ring_rows(PolyMatrix(m))) is None
        sparse = _recording(monkeypatch, "_det_bareiss")
        assert det(PolyMatrix(m)) == _brute_det(m) == _lifted([[-1]], ring)[0][0]
        assert sparse == [3]

    def test_exact_division_count_on_q19_plus_i(self, monkeypatch):
        # one division per upper-triangle entry per step: sum of the
        # triangular numbers 1..19; the sparse loop updates both halves
        rows = _ring_rows(build_general_binomial(0, 19, GaussInt(0, 1)))
        expected = linalg._det_bareiss(*rows)
        calls = _counting_divider(monkeypatch)
        sparse = _recording(monkeypatch, "_det_bareiss")
        assert _det_rows(rows) == expected
        assert calls == [1330] and sparse == []
        assert linalg._det_bareiss(*rows) == expected
        assert calls == [1330 + 2470]

    @pytest.mark.parametrize("build, zeros, symmetric", [
        (lambda: _ring_rows(build_general_binomial(0, 6, -1)), 1, True),
        (lambda: _reduced_rows(0, 6, _draw_params(random.Random(2), 0, 6, -99, 99)),
         0, False),
    ], ids=["symmetric-one-zero", "dense-reduced-at-a-point"])
    def test_other_matrices_take_the_sparse_loop(self, monkeypatch, build, zeros, symmetric):
        rows, kind = build()
        n = len(rows)
        assert sum(n - len(row) for row in rows) == zeros
        assert symmetric == all(rows[j].get(i) == e for i, row in enumerate(rows)
                                for j, e in row.items())
        assert linalg._det_symmetric(rows, kind) is None
        sparse = _recording(monkeypatch, "_det_bareiss")
        assert _det_rows((rows, kind)) == _brute_det(
            [[row.get(j, 0) for j in range(n)] for row in rows]
        )
        assert sparse == [n]

    def test_pascal_and_its_shifts_take_the_branch(self, monkeypatch):
        sparse = _recording(monkeypatch, "_det_bareiss")
        assert det(build_pascal("symmetric", 20)) == 1
        assert det(build_general_binomial(0, 8, 1)) == unit_shift_det(8)
        assert det(build_general_binomial(0, 8, CycInt.omega3())) == predicted_det(
            "ciucuOmega3", 8
        )
        assert sparse == []

    @pytest.mark.slow
    def test_both_loops_agree_at_the_dense_cap(self):
        # Q_74 + iI, the 75 rows the pi/4 column admits
        rows = _ring_rows(build_general_binomial(0, 74, GaussInt(0, 1)))
        symmetric = linalg._det_symmetric(*rows)
        assert symmetric is not None and symmetric == linalg._det_bareiss(*rows)


class TestDivider:
    @pytest.mark.parametrize("kind, den, num", [
        ("int", 3, 7),
        ("int", -3, 10**40 + 1),
        ("poly", xvar(0), xvar(0) + 1),
        ("cyc", CycInt(2), CycInt(1, 0, 2)),
        ("gauss", GaussInt(1, 1), GaussInt(1)),
    ])
    def test_refuses_a_non_multiple(self, kind, den, num):
        divide = linalg._divider(den, kind)
        with pytest.raises(NotDivisible):
            divide(num)
        assert divide(num * den) == num


# each unit of a ring, its inverse written out, and an operand of another ring
UNITS = [
    ("int", 1, 1, "a"),
    ("int", -1, -1, "a"),
    ("gauss", GaussInt(1), GaussInt(1), CycInt(1)),
    ("gauss", GaussInt(-1), GaussInt(-1), CycInt(1)),
    ("gauss", GaussInt(0, 1), GaussInt(0, -1), CycInt(1)),
    ("gauss", GaussInt(0, -1), GaussInt(0, 1), CycInt(1)),
    *(("cyc", CycInt.zeta(k), CycInt.zeta(-k), GaussInt(1)) for k in range(12)),
    ("cyc", CycInt(2, 2, 0, -1), CycInt(2, -2, 0, 1), GaussInt(1)),  # 2 ± sqrt(3)
]


class TestUnitDivider:
    @pytest.mark.parametrize("kind, unit, inverse, foreign", UNITS)
    @given(a=st.integers(-50, 50), b=st.integers(-50, 50))
    @settings(max_examples=20, deadline=None)
    def test_divides_by_multiplying_with_the_inverse(self, kind, unit, inverse, foreign, a, b):
        assert unit * inverse == 1
        a = RING_ELEMENTS[kind](a, b)
        divide = linalg._divider(unit, kind)
        assert divide(a * unit) == a
        assert divide(a) == a * inverse

    @pytest.mark.parametrize("kind, unit, inverse, foreign", UNITS)
    def test_refuses_a_foreign_operand(self, kind, unit, inverse, foreign):
        with pytest.raises(TypeError):
            linalg._divider(unit, kind)(foreign)

    @pytest.mark.parametrize("unit", [GaussInt(1), GaussInt(0, -1)])
    def test_wrong_inverse_is_refused_when_the_divider_is_built(self, monkeypatch, unit):
        # the negated conjugate in place of the conjugate: u * u^-1 = -1
        monkeypatch.setattr(GaussInt, "conjugate", lambda self: GaussInt(-self.re, self.im))
        with pytest.raises(NotDivisible):
            unit.divider()
        with pytest.raises(NotDivisible):
            linalg._divider(unit, "gauss")


class TestDivisionFree:
    @pytest.mark.parametrize("ring", sorted(RING_ELEMENTS))
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, ring, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        make = RING_ELEMENTS[ring]
        nonzero = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
            lambda ab: ab[0] != 0
        ).map(lambda ab: make(*ab))
        entry = st.one_of(st.just(0), nonzero)
        rows = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        assert det(PolyMatrix(rows), "division-free") == _brute_det(rows)
        # the determinant-only last step forms the full run's c_n
        sparse, kind = _ring_rows(PolyMatrix(rows))
        assert linalg._berkowitz(sparse, kind, det_only=True) == linalg._berkowitz(sparse, kind)[-1]
        if n:
            zero_row = [list(r) for r in rows]
            zero_row[data.draw(st.integers(0, n - 1))] = [0] * n
            col = data.draw(st.integers(0, n - 1))
            zero_col = [[0 if j == col else e for j, e in enumerate(r)] for r in rows]
            for case in (zero_row, zero_col):
                assert det(PolyMatrix(case), "division-free") == 0

    @pytest.mark.parametrize("ring", sorted(RING_ELEMENTS))
    def test_empty_and_single(self, ring):
        e = RING_ELEMENTS[ring](2, -1)
        assert det(PolyMatrix([]), "division-free") == 1
        assert det(PolyMatrix([[e]]), "division-free") == e
        assert det(PolyMatrix([[0]]), "division-free") == 0

    def test_is_the_default_over_polynomials_only(self):
        m = build_huckel(1, 2)
        assert det(m) == det(m, "division-free") == _brute_det(m.rows)
        with pytest.raises(StrategyPrecondition, match="polynomial"):
            det(m, "fraction-free-elimination")
        with pytest.raises(StrategyPrecondition):
            det(PolyMatrix([[xvar(0)]]), "fraction-free-elimination")

    def test_degree_overflow_raises_before_any_term_is_formed(self):
        # the Toeplitz product c_2 <- -a11 * (-a00) of 3000 x 3000 terms
        # would take seconds to subtract term by term
        wide = MultiPoly({(i, 3000 - i, 0): 1 for i in range(3000)}, 1)
        high = wide * xvar(0) ** (MAX_DEGREE - 4000)
        m = PolyMatrix([[high, 0], [0, wide]])
        t0 = time.perf_counter()
        with pytest.raises(OverflowError, match="exceeds the packed monomial limit"):
            det(m, "division-free")
        assert time.perf_counter() - t0 < 0.5

    def test_accumulation_never_writes_into_an_operand(self):
        # the builders hand out the one memoized x_m and y_m, and a unit
        # product returns its operand: none of them may take a term
        huckel, reduced = build_huckel(0, 3), build_reduced(0, 3)
        assert any(e is xvar(3) for row in huckel.rows for e in row)
        assert any(e is xvar(3) for row in reduced.rows for e in row)
        square = PolyMatrix([[xvar(2), yvar(2), 1], [1, xvar(2), yvar(2)], [yvar(2), 1, xvar(2)]])
        h = _huckel_rows(1, 3)
        entries = [e for M in (huckel, reduced, square) for row in M.rows for e in row]
        entries += [e for row in h[0] for e in row.values()]
        entries += [v(m) for v in (xvar, yvar) for m in range(4)]
        entries = [e for e in entries if isinstance(e, MultiPoly)]
        before = [dict(e.terms) for e in entries]
        for M in (reduced, square):
            det(M, "division-free")
        condensation_det(0, 3)
        schur._condensed_det(h, 1, 3, None)
        schur_det_step(huckel, 3)
        assert [dict(e.terms) for e in entries] == before
        assert xvar(2) is xvar(2) and yvar(2) is yvar(2)

    @pytest.mark.parametrize("n", range(9))
    def test_charpoly_matches_the_signed_walk(self, n):
        q = build_pascal("symmetric", n)
        shifted = PolyMatrix([
            [e + zvar() if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(q.rows)
        ])
        assert charpoly(q) == det(shifted, "sparse-minor-expansion")

    @pytest.mark.parametrize("build", [
        lambda: det(build_reduced(0, 8), "division-free"),  # 18 variables
        lambda: det(build_huckel(0, 4), "division-free"),  # 25 symbolic rows
        lambda: charpoly(build_pascal("symmetric", 60)),  # 61 integer rows
    ])
    def test_over_cap_input_is_refused_before_work(self, build):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            build()
        assert time.perf_counter() - t0 < 0.5


class TestRouteGuards:
    def test_huckel_guard_counts_trapezium_vertices(self):
        huckel_guard(0, 11, "fraction-free-elimination", "numeric", "route")  # 144 vertices
        huckel_guard(5, 12, "fraction-free-elimination", "numeric", "route")  # 169 - 25
        with pytest.raises(TooLarge, match="route vertex count capped at 144, got 169"):
            huckel_guard(0, 12, "fraction-free-elimination", "numeric", "route")

    @pytest.mark.parametrize("k, n", [(3, 2), (0, -1), (-1, 4)])
    def test_huckel_guard_refuses_a_bad_range(self, k, n):
        with pytest.raises(BadRange):
            huckel_guard(k, n, "fraction-free-elimination", "numeric", "route")

    def test_integer_walk_has_its_own_row_cap(self, monkeypatch):
        monkeypatch.delenv("HUCKEL_MAX_SIZE", raising=False)
        identity = PolyMatrix.identity(145)
        with pytest.raises(TooLarge, match="integer frontier walk dimension capped at 144"):
            permanent(identity)
        with pytest.raises(TooLarge, match="capped at 144, got 145"):
            det(identity, "sparse-minor-expansion")
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "145")
        assert permanent(identity) == det(identity, "sparse-minor-expansion") == 1

    def test_dense_elimination_cap(self, monkeypatch):
        monkeypatch.delenv("HUCKEL_MAX_SIZE", raising=False)
        route_guard("fraction-free-elimination", 144, "numeric", "rows")
        route_guard("fraction-free-elimination", 75, "dense", "rows")
        with pytest.raises(TooLarge, match="rows capped at 75, got 76"):
            route_guard("fraction-free-elimination", 76, "dense", "rows")
        # the dense cap is elimination's alone: no other route names one
        with pytest.raises(KeyError):
            route_guard("sparse-minor-expansion", 2, "dense", "rows")

    def test_symbolic_division_free_guard(self):
        symbolic_division_free_guard(8, 16)
        with pytest.raises(TooLarge, match="16 distinct variables, got 17"):
            symbolic_division_free_guard(8, 17)
        with pytest.raises(TooLarge, match="rows capped at 16, got 17"):
            symbolic_division_free_guard(17, 2)


class TestInterpolationGuards:
    def test_inhomogeneous_rejected(self, monkeypatch):
        # perturb the (2, 2) sample, so the row read off the (1, t) samples
        # fails the homogeneity check
        at_two = _huckel_rows(0, 2, bivariate_params(0, 2, 2, 2))

        def perturbed(h, strategy):
            # compared first: elimination updates the rows it is given
            hit = h == at_two
            value = _det_rows(h, strategy)
            return value + 1 if hit else value

        monkeypatch.setattr(verify, "_det_rows", perturbed)
        with pytest.raises(StrategyPrecondition):
            bivariate_row(2)


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
        assert bivariate_row(n)[1] == cs

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
