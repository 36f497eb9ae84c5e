"""Closed-form block inverses and determinant-preserving condensation."""

from fractions import Fraction

import pytest

import huckelpascal.schur as schur
from huckelpascal.cyclotomic import CycInt, GaussInt, theta_point
from huckelpascal.linalg import (
    TooLarge,
    _det_rows,
    _divider,
    _lift,
    det,
    rank1_factor,
    ring_kind,
)
from huckelpascal.matrices import (
    BadRange,
    PolyMatrix,
    _huckel_rows,
    _weight,
    alternating_unit_vector,
    build_bordered,
    build_huckel,
    build_R,
    build_reduced,
    build_T,
    bivariate_params,
)
from huckelpascal.poly import MultiPoly, NotDivisible, poly_from_text, svar, xvar, yvar
from huckelpascal.schur import (
    BlockMismatch,
    _condensation,
    _condensed_det,
    _is_negative,
    _null_vector,
    _seeds,
    _solve,
    condensation_det,
    condense,
    invert_T,
    schur_det_step,
)


def _dense_step(M, m, params=None):
    """Reference Schur step: A - (B W C - v w^T) / S_m on every entry."""
    n = 2 * m + 1
    d = M.dim
    a = d - n
    x, y = _weight(f"x{m}", params), _weight(f"y{m}", params)
    s = x + y
    if a == 0:
        return PolyMatrix([[s]])
    kind = ring_kind(M.submatrix(range(a, d), range(a, d)))
    W = invert_T(m, params)
    r = _null_vector(m, y)
    v = [W[0, 0] * sum(M[i, a + t] * r[t] for t in range(n)) for i in range(a)]
    w = [sum(M[a + t, j] * W[n - 1, t] for t in range(n)) for j in range(a)]
    lead = next((e for e in v if e != 0), None)
    if lead is not None and _is_negative(lead):
        v = [-e for e in v]
        w = [-e for e in w]
    rows = [[s] + w]
    for i in range(a):
        bw = [sum(M[i, a + t] * W[t, u] for t in range(n)) for u in range(n)]
        row = [v[i]]
        for j in range(a):
            num = sum(bw[u] * M[a + u, j] for u in range(n)) - v[i] * w[j]
            if isinstance(num, int):
                num = _lift(num, kind)
            row.append(M[i, j] - _divider(s, kind)(num))
        rows.append(row)
    return PolyMatrix(rows)


def _seeded_params(seed, k, n):
    """Signed integer weights with every x_m + y_m nonzero."""
    import random

    rng = random.Random(seed)
    params = {}
    for i in range(k, n + 1):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        params[f"x{i}"], params[f"y{i}"] = x, y if x + y else y + 1
    return params


def _ring_params(ring, seed, k, n):
    """Seeded weights in Z, Q, Z[zeta12] or Z[i], every x_m + y_m nonzero."""
    import random

    rng = random.Random(seed)

    def draw():
        if ring == "int":
            return rng.randint(-40, 40)
        if ring == "fraction":
            return Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        if ring == "cyc":
            return CycInt(*(rng.randint(-5, 5) for _ in range(4)))
        return GaussInt(rng.randint(-9, 9), rng.randint(-9, 9))

    params = {}
    for i in range(k, n + 1):
        x, y = draw(), draw()
        while x + y == 0:
            y = draw()
        params[f"x{i}"], params[f"y{i}"] = x, y
    return params


def _theta_params(k, n):
    x, y = theta_point(1)  # theta = pi/6, so x_m + y_m = sqrt(3)
    return {f"{c}{i}": e for i in range(k, n + 1) for c, e in (("x", x), ("y", y))}


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

    def test_multiply_back_catches_a_wrong_entry(self, monkeypatch):
        # one wrong entry in a closed-form column: the row it seeds no
        # longer multiplies back to S * e_i, and the numeric path must say so
        original = schur._seeds

        def wrong_entry(m, x, y):
            w0, w1 = original(m, x, y)
            w0[5] += 1
            return w0, w1

        params = {"x11": 3, "y11": -7}
        invert_T(11, params)
        monkeypatch.setattr(schur, "_seeds", wrong_entry)
        with pytest.raises(ArithmeticError, match="multiply-back at m=11"):
            invert_T(11, params)

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


class TestSparseStep:
    """The coupled-rows step against the dense formula at every step."""

    @pytest.mark.parametrize("k,n,params", [
        (0, 3, None),
        (1, 3, None),
        (2, 4, None),
        (0, 6, _seeded_params(1, 0, 6)),
        (0, 7, _seeded_params(2, 0, 7)),
        (2, 6, _seeded_params(3, 2, 6)),
        (4, 7, _seeded_params(4, 4, 7)),
        (0, 4, _theta_params(0, 4)),
        (2, 5, _theta_params(2, 5)),
    ])
    def test_matches_dense_step_along_the_chain(self, k, n, params):
        M = build_huckel(k, n, params)
        stop = 0 if k == 0 else k - 1
        for m in range(n, stop, -1):
            _, reduced = schur_det_step(M, m, params)
            dense = _dense_step(M, m, params)
            assert reduced == dense and hash(reduced) == hash(dense), f"step m={m}"
            M = reduced

    def test_divisions_only_in_the_seeds(self, monkeypatch):
        calls = 0

        def counted_divider(*args):
            divide = _divider(*args)

            def counted(num):
                nonlocal calls
                calls += 1
                return divide(num)
            return counted

        monkeypatch.setattr(schur, "_divider", counted_divider)
        params = _seeded_params(6, 0, 11)
        assert condensation_det(0, 11, params) == det(build_huckel(0, 11, params))
        # only the nonzero seeds of the coupled rows' solves are divided, at
        # most two per row, where the dense step divides once per kept
        # entry, 42 779 times here, and the coupled pairs are 1 287
        assert calls == 117
        calls = 0
        _condensation(_huckel_rows(3, 7), 3, 7, None)
        assert calls == 32  # 212 coupled pairs


class TestStepIdentities:
    """The two facts that make q = (b - v_i e_2m) W / S_m polynomial and
    P's row equal to q C, and what breaks when the residue is wrong."""

    @pytest.mark.parametrize("m", range(1, 21))
    def test_border_row_and_residue_scale(self, m):
        x, y = xvar(m), yvar(m)
        s, n = x + y, 2 * m + 1
        seeds = _seeds(m, x, y)
        left = _solve({n - 1: s}, [col[-1] for col in seeds], m, x, y)
        t = build_T(m)
        # l^T T_m = S_m e_2m^T: the border row is row 2m of W
        assert [sum(left[u] * t[u, j] for u in range(n)) for j in range(n)] == \
            [0] * (n - 1) + [s]
        r = _null_vector(m, y)
        mu = seeds[0][0]
        assert mu * r[n - 1] == 1
        # so (e_i - mu r_i e_2m) W vanishes at y_m = -x_m for every row i
        pole = {f"x{m}": x, f"y{m}": -x}

        def at_pole(e):
            return e.evaluate(pole) if isinstance(e, MultiPoly) else e

        w = invert_T(m)
        last = [at_pole(w[n - 1, j]) for j in range(n)]
        for i in range(n):
            scale = mu * at_pole(r[i])
            assert [at_pole(w[i, j]) for j in range(n)] == [scale * e for e in last], i

    @pytest.mark.parametrize("k,n,params", [
        (0, 5, _seeded_params(11, 0, 5)),
        (1, 3, None),
    ])
    def test_wrong_residue_is_refused(self, monkeypatch, k, n, params):
        # one sign of the right null vector flipped: v is wrong, so the seeds
        # of a coupled row no longer divide by S_m
        original = schur._null_vector

        def flipped(m, y):
            r = original(m, y)
            r[1] = -r[1]
            return r

        monkeypatch.setattr(schur, "_null_vector", flipped)
        with pytest.raises(NotDivisible):
            condensation_det(k, n, params)


class TestSparseStepEdges:
    """The tail check, the per-row multiply-back and dropped zeros."""

    def test_extra_nonzero_in_the_tail(self):
        rows = [list(r) for r in build_huckel(0, 2).rows]
        a = len(rows) - 5
        rows[a][a + 2] = 1  # T_2 has a zero there
        with pytest.raises(BlockMismatch):
            schur_det_step(PolyMatrix(rows), 2)

    def test_tail_missing_its_corner_weight(self):
        params = _seeded_params(5, 0, 2)
        rows = [list(r) for r in build_huckel(0, 2, params).rows]
        rows[len(rows) - 5][-1] = 0  # y_2, top right of T_2
        with pytest.raises(BlockMismatch):
            schur_det_step(PolyMatrix(rows), 2, params)

    def test_tail_with_a_wrong_corner_weight(self):
        params = _seeded_params(5, 0, 2)
        rows = [list(r) for r in build_huckel(0, 2, params).rows]
        rows[-1][len(rows) - 5] += 1  # x_2 + 1, bottom left of T_2
        with pytest.raises(BlockMismatch):
            schur_det_step(PolyMatrix(rows), 2, params)
        rows = [list(r) for r in build_huckel(0, 2).rows]
        rows[len(rows) - 5][-1] = yvar(1)  # y_1 where T_2 has y_2
        with pytest.raises(BlockMismatch):
            schur_det_step(PolyMatrix(rows), 2)

    @pytest.mark.parametrize("params", [None, _seeded_params(8, 0, 3)])
    def test_tail_with_a_wrong_off_diagonal_entry(self, params):
        rows = [list(r) for r in build_huckel(0, 3, params).rows]
        a = len(rows) - 7
        rows[a + 3][a + 4] = 2  # T_3 has a 1 beside its diagonal there
        with pytest.raises(BlockMismatch):
            schur_det_step(PolyMatrix(rows), 3, params)

    def test_entry_cancelling_to_zero(self):
        # B = e_0 and C = e_1 give P = 1, so A - P = 1 - 1 cancels
        params = _theta_params(1, 1)
        t = build_T(1, params).rows
        M = PolyMatrix([[1, 1, 0, 0], [0, *t[0]], [1, *t[1]], [0, *t[2]]])
        _, reduced = schur_det_step(M, 1, params)
        dense = _dense_step(M, 1, params)
        assert reduced == dense
        assert reduced[1, 1] == 0 and type(reduced[1, 1]) is int
        assert dense[1, 1] == 0 and type(dense[1, 1]) is CycInt
        assert det(reduced) == det(M)

    def test_kept_row_with_no_block_entry(self):
        t = build_T(1, {"x1": 3, "y1": -7}).rows
        M = PolyMatrix([
            [2, 5, 1, 0, 0],
            [4, 9, 0, 0, 0],  # not coupled, though column 1 is
            [0, 3, *t[0]],
            [0, 0, *t[1]],
            [0, 0, *t[2]],
        ])
        _, reduced = schur_det_step(M, 1, {"x1": 3, "y1": -7})
        assert reduced == _dense_step(M, 1, {"x1": 3, "y1": -7})
        assert list(reduced.rows[2]) == [0, 4, 9]
        assert reduced[1, 1] == 2  # column 0 is not coupled either
        assert det(reduced) == det(M)

    @pytest.mark.parametrize("ring", ["int", "fraction", "cyc", "gauss"])
    def test_condensation_equals_elimination(self, ring):
        for n in range(8):
            for k in range(n + 1):
                params = _ring_params(ring, 100 * n + k, k, n)
                h = build_huckel(k, n, params)
                assert condensation_det(k, n, params) == det(h), (k, n)

    @pytest.mark.parametrize("params", [None, _seeded_params(7, 0, 3)])
    def test_corrupted_seed_column_fails_multiply_back(self, monkeypatch, params):
        original = schur._seeds

        def corrupted(m, x, y):
            w0, w1 = original(m, x, y)
            return [e + 1 for e in w0], w1

        monkeypatch.setattr(schur, "_seeds", corrupted)
        with pytest.raises(ArithmeticError, match="multiply-back at m=3"):
            condensation_det(0, 3, params)


class TestRowsLeftAlone:
    """No determinant route changes the rows it is given."""

    @pytest.mark.parametrize("params", [None, _seeded_params(9, 0, 5)])
    def test_rows_of_h_are_unchanged(self, params):
        h = _huckel_rows(0, 5, params)
        before = [dict(row) for row in h[0]]
        _condensed_det(h, 0, 5, params)
        assert h[0] == before
        if params is not None:  # every symbolic strategy refuses 36 rows
            for strategy in ("fraction-free-elimination", "sparse-minor-expansion",
                             "division-free"):
                _det_rows(h, strategy)
                assert h[0] == before, strategy

    @pytest.mark.parametrize("k,n", [(0, 4), (3, 7), (6, 9)])
    def test_symbolic_condensation_never_writes_into_its_operands(self, k, n):
        h = _huckel_rows(k, n)
        terms = [{j: dict(e.terms) for j, e in row.items()} for row in h[0]]
        memoized = {f"{name}{i}": (var(i), dict(var(i).terms))
                    for i in range(n + 1) for name, var in (("x", xvar), ("y", yvar))}
        _condensation(h, k, n, None)
        assert h == _huckel_rows(k, n)
        assert [{j: e.terms for j, e in row.items()} for row in h[0]] == terms
        for name, (p, before) in memoized.items():
            assert p.terms == before == poly_from_text(name).terms


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
        # 144 vertices run; 169 are refused before the triangle is built
        assert condense(11).final.dim == 12
        with pytest.raises(TooLarge, match="condensation trace vertex count"):
            condense(12)

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

    def test_wide_trapezium_symbolic(self, monkeypatch):
        # 148 vertices in two rows: blocks of 75 and 73 columns
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "148")
        val = condensation_det(36, 37)
        point = {"x36": 5, "y36": -3, "x37": 7, "y37": 11}
        assert val.evaluate(point) == det(build_huckel(36, 37, point))

    def test_symbolic_guard(self, monkeypatch):
        def build(*args):
            raise AssertionError("H_{k,n} was built before the guard")

        # both caps trip before the matrix is built
        monkeypatch.setattr(schur, "_huckel_rows", build)
        with pytest.raises(TooLarge, match="16 distinct variables"):
            condensation_det(0, 8)  # 9 rows over 18 weights
        with pytest.raises(TooLarge, match="condensation vertex count"):
            condensation_det(7, 13)  # 7 rows, 147 vertices

    def test_variable_cap_ignores_the_override(self, monkeypatch):
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "400")
        with pytest.raises(TooLarge, match="16 distinct variables"):
            condensation_det(0, 8)

    def test_specialized_guard_is_looser(self):
        params = bivariate_params(0, 8, 3, 4)
        assert condensation_det(0, 8, params) == det(build_huckel(0, 8, params))

    def test_env_override(self, monkeypatch):
        with pytest.raises(TooLarge):
            condensation_det(72, 72)  # 145 vertices, one row
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "145")
        assert condensation_det(72, 72) == svar(72)

    def test_five_rows_at_75_vertices(self):
        val = condensation_det(5, 9)
        point = {}
        for i in range(5, 10):
            point[f"x{i}"] = 2 + i
            point[f"y{i}"] = 2 * i + 1
        direct = det(build_huckel(5, 9, point))
        assert val.evaluate(point) == direct


@pytest.mark.parametrize("call, error", [
    # a step at m = 0 with rows left beside the block
    (lambda: schur_det_step(PolyMatrix([[1, 0], [0, svar(0)]]), 0), BadRange),
], ids=["step-at-m-0"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
