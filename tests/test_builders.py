"""Matrix builders against hand-transcribed golden displays."""

import pytest
from hypothesis import given, settings, strategies as st

from huckelpascal.matrices import (
    BadRange,
    PolyMatrix,
    TriangleGraph,
    alternating_unit_vector,
    bivariate_params,
    build_bordered,
    build_general_binomial,
    build_huckel,
    build_pascal,
    build_R,
    build_reduced,
    build_T,
    evaluate_matrix,
    permutation_sign,
    symmetric_block_form,
)
from huckelpascal.poly import MultiPoly, svar, xvar, yvar

X, Y, S = xvar, yvar, svar


def M(rows):
    return PolyMatrix(rows)


# -- golden transcriptions ----------------------------------------------------

H2_GOLDEN = M([
    [S(0), 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, Y(1), 0, 1, 0, 0, 0],
    [1, 1, 0, 1, 0, 0, 0, 0, 0],
    [0, X(1), 1, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, Y(2)],
    [0, 1, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, X(2), 0, 0, 1, 0],
])

TILDE2_GOLDEN = M([
    [S(0), 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, Y(1), 0, 0, 0, 1, 1, 0],
    [0, X(1), 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, Y(2), 0, 0, 1, 0],
    [0, 0, 0, X(2), 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 1, 1, 0, 0, 0],
])

HAT2_GOLDEN = M([
    [S(0), 0, 0, 0, 0, 0, 1, 0, 0],
    [0, X(1), 0, 0, 0, 0, 1, 0, 1],
    [0, 0, Y(1), 0, 0, 0, 1, 1, 0],
    [0, 0, 0, X(2), 0, 0, 0, 0, 1],
    [0, 0, 0, 0, Y(2), 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 0, 0],
])

BORDERED3_GOLDEN = M([
    [S(3), 0, 0, 0, 0, -X(3), 0, X(3), 0, -X(3)],
    [0, S(0), 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, Y(1), 0, 1, 0, 0, 0],
    [0, 1, 1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, X(1), 1, 0, 0, 0, 0, 1, 0],
    [Y(3), 0, 0, 0, 0, 0, 1, 0, 0, Y(2)],
    [0, 0, 1, 0, 0, 1, 0, 1, 0, 0],
    [-Y(3), 0, 0, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 1, 0, 0, 1, 0, 1],
    [Y(3), 0, 0, 0, 0, X(2), 0, 0, 1, 0],
])


# -- blocks -------------------------------------------------------------------

def test_T0_is_self_weight():
    assert build_T(0) == M([[S(0)]])


def test_T1_golden():
    assert build_T(1) == M([[0, 1, Y(1)], [1, 0, 1], [X(1), 1, 0]])


def test_T2_golden():
    assert build_T(2) == M([
        [0, 1, 0, 0, Y(2)],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [X(2), 0, 0, 1, 0],
    ])


def test_T_with_params():
    t = build_T(1, {"x1": 5, "y1": -2})
    assert t == M([[0, 1, -2], [1, 0, 1], [5, 1, 0]])


def test_R_goldens():
    assert build_R(1) == M([[0], [1], [0]])
    assert build_R(2) == M([[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]])
    r3 = build_R(3)
    assert (r3.nrows, r3.ncols) == (7, 5)
    ones = {(i, j) for i in range(7) for j in range(5) if r3[i, j] == 1}
    assert ones == {(1, 0), (3, 2), (5, 4)}
    with pytest.raises(BadRange):
        build_R(0)


# -- Hueckel assembly ------------------------------------------------------------

def test_huckel_trivial():
    assert build_huckel(0, 0) == M([[S(0)]])


def test_huckel_0_1_block_structure():
    h = build_huckel(0, 1)
    assert h.dim == 4
    assert h[0, 0] == S(0)
    assert h.submatrix([1, 2, 3], [1, 2, 3]) == build_T(1)
    # R_1 couples (1,1) with the apex
    assert h.submatrix([1, 2, 3], [0]) == build_R(1)
    assert h.submatrix([0], [1, 2, 3]) == build_R(1).transpose()


def test_huckel_2_matches_display():
    assert build_huckel(0, 2) == H2_GOLDEN


def test_huckel_6_7():
    h = build_huckel(6, 7)
    assert h.dim == 28
    assert h.submatrix(range(13), range(13)) == build_T(6)
    assert h.submatrix(range(13, 28), range(13, 28)) == build_T(7)
    assert h.submatrix(range(13, 28), range(13)) == build_R(7)


def test_huckel_deletion_nesting():
    full = build_huckel(0, 3)
    for k in (1, 2, 3):
        cut = list(range(k * k))
        assert full.deleting(cut, cut) == build_huckel(k, 3)


def test_huckel_transpose_swaps_xy():
    h = build_huckel(0, 2)
    swapped = h.transpose().map_entries(
        lambda e: e.swap_xy() if isinstance(e, MultiPoly) else e
    )
    assert swapped == h


def test_huckel_params_evaluation_consistency():
    direct = build_huckel(0, 2, bivariate_params(0, 2, 3, 7))
    lazy = evaluate_matrix(build_huckel(0, 2), bivariate_params(0, 2, 3, 7))
    assert direct == lazy


def test_bad_ranges():
    with pytest.raises(BadRange):
        build_huckel(2, 1)
    with pytest.raises(BadRange):
        build_reduced(3, 2)
    with pytest.raises(BadRange):
        build_bordered(0)


# -- graph structure -------------------------------------------------------------

def test_graph_counts():
    g = TriangleGraph(0, 3)
    assert g.vertex_count == 16
    assert g.row_lengths == [1, 3, 5, 7]
    assert TriangleGraph(6, 7).vertex_count == 28


def test_graph_indexing_roundtrip():
    g = TriangleGraph(1, 4)
    for v in range(g.vertex_count):
        m, p = g.position(v)
        assert g.index(m, p) == v
        assert g.color(m, p) in ("blue", "red")


def test_degree_sum_invariant():
    for k, n in [(0, 0), (0, 1), (0, 3), (1, 3), (2, 5), (6, 7)]:
        g = TriangleGraph(k, n)
        assert sum(g.degrees()) == 2 * len(g.edges) + 2 * (n + 1 - k)


def test_edges_match_matrix_ones():
    g = TriangleGraph(0, 2)
    h = build_huckel(0, 2)
    ones = {
        (i, j)
        for i in range(9)
        for j in range(i + 1, 9)
        if h[i, j] == 1 and h[j, i] == 1
    }
    assert ones == set(g.edges)


def test_color_sorted_order_golden():
    assert TriangleGraph(0, 2).color_sorted_order() == [0, 1, 3, 4, 8, 6, 2, 5, 7]


def test_tilde_block_form_golden():
    g = TriangleGraph(0, 2)
    tilde = build_huckel(0, 2).permuted(g.color_sorted_order())
    assert tilde == TILDE2_GOLDEN


def test_symmetric_block_form_golden():
    hat, sign = symmetric_block_form(0, 2)
    assert hat == HAT2_GOLDEN
    assert sign == -1  # three row swaps
    assert hat.is_symmetric()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_block_form_is_symmetric(n):
    hat, sign = symmetric_block_form(0, n)
    assert hat.is_symmetric()
    assert sign in (-1, 1)


def test_induced_subgraph():
    g = TriangleGraph(0, 2)
    hexagon = [g.index(1, 0), g.index(1, 1), g.index(1, 2),
               g.index(2, 1), g.index(2, 2), g.index(2, 3)]
    nv, es = g.induced_edges(hexagon)
    assert nv == 6
    assert len(es) == 6  # a six-cycle
    deg = [0] * 6
    for a, b in es:
        deg[a] += 1
        deg[b] += 1
    assert deg == [2] * 6


def test_permutation_sign():
    assert permutation_sign([0, 1, 2]) == 1
    assert permutation_sign([1, 0, 2]) == -1
    assert permutation_sign([1, 2, 0]) == 1
    assert permutation_sign([0, 2, 1, 4, 3, 5, 6, 8, 7]) == -1


# -- Pascal family ----------------------------------------------------------------

def test_pascal_goldens():
    q4 = build_pascal("symmetric", 4)
    assert list(q4.rows[3]) == [1, 4, 10, 20, 35]
    assert build_pascal("lower", 0) == M([[1]])
    p4 = build_pascal("lower", 4)
    assert list(p4.rows[4]) == [1, 4, 6, 4, 1]
    inv = build_pascal("inverse-lower", 4)
    assert list(inv.rows[3]) == [-1, 3, -3, 1, 0]


def test_pascal_products():
    for n in range(6):
        p = build_pascal("lower", n)
        inv = build_pascal("inverse-lower", n)
        q = build_pascal("symmetric", n)
        assert p * inv == PolyMatrix.identity(n + 1)
        assert p * p.transpose() == q


def test_pascal_bad_kind():
    with pytest.raises(ValueError):
        build_pascal("upper", 2)


# -- reduced matrix ---------------------------------------------------------------

def test_reduced_trivial():
    assert build_reduced(2, 2) == M([[S(2)]])


def test_reduced_0_3_golden():
    r = build_reduced(0, 3)
    assert list(r.rows[0]) == [S(3), -3 * Y(3), 3 * Y(3), -Y(3)]
    assert list(r.rows[1]) == [3 * X(3), S(2), -2 * Y(2), Y(2)]
    assert list(r.rows[2]) == [3 * X(3), 2 * X(2), S(1), -Y(1)]
    assert list(r.rows[3]) == [X(3), X(2), X(1), S(0)]


def test_reduced_6_7_golden():
    assert build_reduced(6, 7) == M([[S(7), -7 * Y(7)], [7 * X(7), S(6)]])


def test_reduced_7_9_golden():
    r = build_reduced(7, 9)
    assert r == M([
        [S(9), -9 * Y(9), 36 * Y(9)],
        [9 * X(9), S(8), -8 * Y(8)],
        [36 * X(9), 8 * X(8), S(7)],
    ])


def test_reduced_bivariate_is_pascal_combination():
    # collapsing all pairs must give x * J P^T J + y * J P^-1 J entrywise
    for n in (1, 2, 3, 4):
        d = n + 1
        p = build_pascal("lower", n)
        inv = build_pascal("inverse-lower", n)
        rev = list(reversed(range(d)))
        jptj = p.transpose().permuted(rev)
        jpij = inv.permuted(rev)
        want = PolyMatrix(
            [
                [X(0) * jptj[i, j] + Y(0) * jpij[i, j] for j in range(d)]
                for i in range(d)
            ]
        )
        collapse = {f"x{m}": X(0) for m in range(n + 1)}
        collapse.update({f"y{m}": Y(0) for m in range(n + 1)})
        got = build_reduced(0, n).map_entries(lambda e: e.substitute(collapse))
        assert got == want


# -- general binomial --------------------------------------------------------------

def test_general_binomial_examples():
    assert build_general_binomial(0, 4, 0) == build_pascal("symmetric", 4)
    assert build_general_binomial(0, 0, 1) == M([[2]])
    # entry (j, k) = C(m+j+k, k)
    assert build_general_binomial(1, 1, 0) == M([[1, 2], [1, 3]])


def test_general_binomial_cyclotomic_lift():
    from huckelpascal.cyclotomic import CycInt

    g = build_general_binomial(0, 1, CycInt.omega3())
    assert g[0, 0] == CycInt(1) + CycInt.omega3()
    assert g[0, 1] == CycInt(1)


# -- bordered matrix ---------------------------------------------------------------

def test_alternating_unit_vector():
    assert alternating_unit_vector(1) == [1]
    assert alternating_unit_vector(3) == [1, 0, -1, 0, 1]
    assert alternating_unit_vector(4) == [1, 0, -1, 0, 1, 0, -1]


def test_bordered_1_golden():
    assert build_bordered(1) == M([[S(1), -X(1)], [Y(1), S(0)]])


def test_bordered_2_golden():
    assert build_bordered(2) == M([
        [S(2), 0, X(2), 0, -X(2)],
        [0, S(0), 0, 1, 0],
        [Y(2), 0, 0, 1, Y(1)],
        [0, 1, 1, 0, 1],
        [-Y(2), 0, X(1), 1, 0],
    ])


def test_bordered_3_golden():
    assert build_bordered(3) == BORDERED3_GOLDEN


# -- serialization -----------------------------------------------------------------

def test_json_and_grid():
    h = build_huckel(0, 1)
    js = h.to_json()
    assert js["nrows"] == js["ncols"] == 4
    assert js["entries"][0][0] == "x0^1 + y0^1"
    grid = h.to_grid()
    assert "y1^1" in grid and len(grid.splitlines()) == 4


def test_matrix_algebra_basics():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a * b == M([[2, 1], [4, 3]])
    assert a + b == M([[1, 3], [4, 4]])
    assert (a - a) == M([[0, 0], [0, 0]])
    assert a.scaled(2) == M([[2, 4], [6, 8]])
    with pytest.raises(ValueError):
        M([[1, 2], [3]])


_sparse_entries = {
    "int": st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
    "poly": st.sampled_from([0, 0, 0, 2, X(0), -Y(1), X(1) + Y(0)]),
}


@pytest.mark.parametrize("ring", sorted(_sparse_entries))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_product_matches_triple_loop(ring, data):
    m, k, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    entry = _sparse_entries[ring]
    a = [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    b = [data.draw(st.lists(entry, min_size=p, max_size=p)) for _ in range(k)]
    naive = [
        [sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(p)]
        for i in range(m)
    ]
    assert [list(row) for row in (M(a) * M(b)).rows] == naive
