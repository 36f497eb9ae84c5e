"""Matrix builders against hand-transcribed golden displays."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from huckelpascal.cyclotomic import CycInt, GaussInt, theta_point
from huckelpascal.matrices import (
    BadRange,
    PolyMatrix,
    TriangleGraph,
    _huckel_rows,
    _reduced_rows,
    _ring_rows,
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
from huckelpascal.poly import MultiPoly, svar, xvar, yvar, zvar

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
        assert full.submatrix(range(k * k, 16), range(k * k, 16)) == build_huckel(k, 3)


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


# weights for H_{k,n} by name of the case, None for symbolic: every ring,
# MultiPoly values (props' z * x_i), and weights assigned in part
HUCKEL_PARAMS = {
    "symbolic": lambda k, n: None,
    "int": lambda k, n: {f"{c}{m}": 3 * m - 7 if c == "x" else 2 - m
                         for m in range(k, n + 1) for c in "xy"},
    "cyc": lambda k, n: bivariate_params(k, n, *theta_point(1)),
    "gauss": lambda k, n: {f"{c}{m}": GaussInt(m + 1, -2 if c == "x" else 3)
                           for m in range(k, n + 1) for c in "xy"},
    "poly": lambda k, n: {f"{c}{m}": zvar() * (xvar(m) if c == "x" else yvar(m))
                          for m in range(k, n + 1) for c in "xy"},
    "partial": lambda k, n: {f"x{m}": m + 2 for m in range(k, n + 1, 2)},
    "fraction": lambda k, n: {f"{c}{m}": Fraction(1, m + 2) if c == "y" else m
                              for m in range(k, n + 1) for c in "xy"},
    # the apex weights cancel, so H_{0,n} has a zero there
    "apex-cancel-int": lambda k, n: {"x0": 5, "y0": -5, **{
        f"{c}{m}": m + 1 for m in range(1, n + 1) for c in "xy"}},
    "apex-cancel-cyc": lambda k, n: {
        **bivariate_params(k, n, *theta_point(2)), "x0": 5, "y0": -5},
    "apex-cancel-poly": lambda k, n: {"x0": xvar(0), "y0": -xvar(0)},
    "zero-corner": lambda k, n: {f"y{n}": CycInt(0), f"x{k}": 0},
}


def _entry_types(rows):
    return [[(j, type(e), getattr(e, "varcount", None)) for j, e in row.items()]
            for row in rows]


@pytest.mark.parametrize("case", sorted(HUCKEL_PARAMS))
def test_huckel_rows_equal_the_dense_read(case):
    """The sparse builder gives what the reader makes of the dense view: the
    same rows in the same column order, each entry of the same type at the
    same varcount, and the same ring."""
    for n in range(7):
        for k in range(n + 1):
            params = HUCKEL_PARAMS[case](k, n)
            rows, kind = _huckel_rows(k, n, params)
            want_rows, want_kind = _ring_rows(build_huckel(k, n, params))
            assert (rows, kind) == (want_rows, want_kind), (k, n)
            assert _entry_types(rows) == _entry_types(want_rows), (k, n)


def test_huckel_rows_drop_a_cancelled_apex():
    rows, kind = _huckel_rows(0, 2, HUCKEL_PARAMS["apex-cancel-cyc"](0, 2))
    assert kind == "cyc" and 0 not in rows[0] and rows[0] == {2: 1}
    rows, kind = _huckel_rows(0, 0, {"x0": 4, "y0": -4})
    assert (rows, kind) == ([{}], "int")


def test_dense_view_entry_types():
    # symbolic: int 1s, each weight at its own varcount, x_0 + y_0 at the apex
    g = TriangleGraph(0, 3)
    h = build_huckel(0, 3)
    corners = {(g.index(m, 0), g.index(m, 2 * m)): yvar(m) for m in range(1, 4)}
    corners.update({(g.index(m, 2 * m), g.index(m, 0)): xvar(m) for m in range(1, 4)})
    corners[0, 0] = svar(0)
    for i, row in enumerate(h.rows):
        for j, e in enumerate(row):
            if (i, j) in corners:
                want = corners[i, j]
                assert type(e) is MultiPoly and e == want and e.varcount == want.varcount
            else:
                assert type(e) is int and e in (0, 1)
    # CycInt weights: each entry is the very object given, the bonds int 1s
    params = bivariate_params(1, 3, *theta_point(1))
    g = TriangleGraph(1, 3)
    h = build_huckel(1, 3, params)
    for m in range(1, 4):
        left, right = g.index(m, 0), g.index(m, 2 * m)
        assert h[left, right] is params[f"y{m}"] and h[right, left] is params[f"x{m}"]
    weights = {id(w) for w in params.values()}
    assert {type(e) for row in h.rows for e in row if id(e) not in weights} == {int}


def test_bad_ranges():
    with pytest.raises(BadRange):
        _huckel_rows(2, 1)
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
    assert TriangleGraph(6, 7).vertex_count == 28


def test_graph_indexing_roundtrip():
    g = TriangleGraph(1, 4)
    for v in range(g.vertex_count):
        m, p = g.position(v)
        assert g.index(m, p) == v


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
    assert hat == hat.transpose()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_block_form_is_symmetric(n):
    hat, sign = symmetric_block_form(0, n)
    assert hat == hat.transpose()
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
        got = build_reduced(0, n).map_entries(lambda e: e.evaluate(collapse))
        assert got == want


# a weight of each ring, zero (as an int and as the ring's zero) included
_REDUCED_WEIGHTS = {
    "int": st.integers(-3, 3),
    "cyc": st.one_of(st.integers(-2, 2), st.sampled_from([CycInt(0), CycInt(1, -1, 0, 2)])),
    "gauss": st.one_of(st.integers(-2, 2), st.sampled_from([GaussInt(0), GaussInt(2, -1)])),
    "fraction": st.one_of(st.integers(-2, 2), st.just(Fraction(-1, 3))),
    "poly": st.one_of(st.integers(-2, 2), st.just(zvar() * xvar(1) - 1)),
}


@pytest.mark.parametrize("ring", sorted(_REDUCED_WEIGHTS))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_reduced_rows_equal_the_evaluated_dense_read(ring, data):
    """The reduced matrix written at a point is the symbolic one evaluated
    there and read: same rows, same ring, zero weights and a cancelled
    diagonal left out."""
    n = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, n))
    weight = _REDUCED_WEIGHTS[ring]
    params = {f"{c}{m}": data.draw(weight) for m in range(k, n + 1) for c in "xy"}
    if data.draw(st.booleans()):  # the diagonal at row n - k cancels
        params[f"y{k}"] = -params[f"x{k}"]
    rows, kind = _reduced_rows(k, n, params)
    want_rows, want_kind = _ring_rows(evaluate_matrix(build_reduced(k, n), params))
    assert (rows, kind) == (want_rows, want_kind)
    assert _entry_types(rows) == _entry_types(want_rows)


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
    with pytest.raises(ValueError):
        M([[1, 2], [3]])


@pytest.mark.parametrize("ring", [MultiPoly.const, Fraction, CycInt, GaussInt],
                         ids=["MultiPoly", "Fraction", "CycInt", "GaussInt"])
def test_ring_integers_hash_as_ints(ring):
    for n in (0, 1, -1, 3, 2**70):
        assert ring(n) == n and hash(ring(n)) == hash(n)
        assert len({ring(n), n}) == 1
    lifted, plain = M([[ring(1), 0], [ring(3), ring(-2)]]), M([[1, 0], [3, -2]])
    assert lifted == plain and hash(lifted) == hash(plain)


_sparse_entries = {
    "int": st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
    "poly": st.sampled_from([0, 0, 0, 2, X(0), -Y(1), X(1) + Y(0)]),
    "cyc": st.sampled_from([0, 0, 0, 1, CycInt(0, 1), -CycInt(2, 0, -1, 3)]),
}

_dense_entries = {
    "int": st.integers(-9, 9).filter(bool),
    "cyc": st.builds(CycInt, *[st.integers(-3, 3)] * 4).filter(bool),
}


@pytest.mark.parametrize(
    "ring, right",
    [pytest.param(r, "sparse", id=r) for r in sorted(_sparse_entries)]
    + [pytest.param(r, "dense", id=f"{r}-dense-right") for r in sorted(_dense_entries)],
)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_product_matches_triple_loop(ring, right, data):
    m, k, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    left = _sparse_entries[ring]
    entry = (_sparse_entries if right == "sparse" else _dense_entries)[ring]
    a = [data.draw(st.lists(left, min_size=k, max_size=k)) for _ in range(m)]
    b = [data.draw(st.lists(entry, min_size=p, max_size=p)) for _ in range(k)]
    naive = [
        [sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(p)]
        for i in range(m)
    ]
    assert [list(row) for row in (M(a) * M(b)).rows] == naive


@pytest.mark.parametrize("call, error", [
    (lambda: PolyMatrix([[1, 2]]) * PolyMatrix([[1, 2]]), ValueError),
    (lambda: PolyMatrix([[1]]) * 3, TypeError),  # only a matrix multiplies
    (lambda: build_T(-1), BadRange),
    (lambda: build_pascal("symmetric", -1), BadRange),
    (lambda: build_general_binomial(-1, 2, 1), BadRange),
    (lambda: TriangleGraph(0, 2).position(99), BadRange),
], ids=["product-shape", "scalar-product", "T-negative", "pascal-negative",
        "binomial-negative", "position-out-of-range"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
