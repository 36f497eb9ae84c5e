"""Z[zeta_12] and Z[i]: ring laws, Galois action, exact division."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huckelpascal import cyclotomic
from huckelpascal.cyclotomic import CycInt, GaussInt, RadicalValue, theta_point
from huckelpascal.poly import NotDivisible

Z = CycInt.zeta


def cycs(lo=-1000, hi=1000):
    coord = st.integers(lo, hi)
    return st.builds(CycInt, coord, coord, coord, coord)


def gauss(lo=-1000, hi=1000):
    return st.builds(GaussInt, st.integers(lo, hi), st.integers(lo, hi))


# -- zeta powers ------------------------------------------------------------

def test_zeta_power_table():
    assert Z(0) == CycInt(1)
    assert Z(1) == CycInt(0, 1)
    assert Z(2) == CycInt(0, 0, 1)
    assert Z(3) == CycInt(0, 0, 0, 1)
    assert Z(4) == CycInt(-1, 0, 1)       # z^4 = z^2 - 1
    assert Z(5) == CycInt(0, -1, 0, 1)    # z^5 = z^3 - z
    assert Z(6) == CycInt(-1)
    assert Z(12) == CycInt(1)
    assert Z(-1) == Z(11)


def test_zeta_is_primitive_12th_root():
    z = Z(1)
    powers = {z**k for k in range(12)}
    assert len(powers) == 12
    assert z**12 == CycInt(1)
    assert z**6 == CycInt(-1)


def test_special_elements():
    i = CycInt.zeta(3)
    assert i * i == CycInt(-1)
    s3 = CycInt.sqrt3()
    assert s3 * s3 == CycInt(3)
    w3 = CycInt.omega3()
    assert w3**3 == CycInt(1)
    assert w3 * w3 + w3 + 1 == CycInt(0)
    w6 = CycInt.omega6()
    assert w6**6 == CycInt(1)
    assert w6**2 == w3


def test_theta_point_inverse_pair():
    for s in range(-12, 13):
        x, y = theta_point(s)
        assert x * y == CycInt(1)


# -- ring laws ----------------------------------------------------------------

@given(cycs(), cycs(), cycs())
@settings(max_examples=50, deadline=None)
def test_cyc_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycInt(0)
    assert 1 * a == a


@given(cycs())
@settings(max_examples=50, deadline=None)
def test_conjugation_is_involution(a):
    assert a.conjugate().conjugate() == a
    prod = a * a.conjugate()
    assert prod.is_real()


@given(cycs())
@settings(max_examples=50, deadline=None)
def test_norm_multiplicative_embedding(a):
    # norm equals the product of |sigma(a)|^2 pairs, so it matches the
    # float embedding within relative tolerance
    n = a.norm()
    approx = abs(a.to_complex()) ** 2 * abs(a.galois(5).to_complex()) ** 2
    if n:
        assert abs(approx - n) <= 1e-9 * max(abs(n), approx)


@given(cycs(), cycs())
@settings(max_examples=50, deadline=None)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(cycs(), cycs())
@settings(max_examples=50, deadline=None)
def test_float_embedding_is_homomorphism(a, b):
    za, zb = a.to_complex(), b.to_complex()
    zp = (a * b).to_complex()
    assert abs(zp - za * zb) <= 1e-9 * max(1.0, abs(zp), abs(za * zb))


@given(cycs(), cycs())
@settings(max_examples=50, deadline=None)
def test_cyc_exact_div_roundtrip(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


def test_cyc_not_divisible():
    with pytest.raises(NotDivisible):
        CycInt(1).exact_div(CycInt(2))
    with pytest.raises(NotDivisible):
        CycInt.sqrt3().exact_div(CycInt(2))
    with pytest.raises(ZeroDivisionError):
        CycInt(1).exact_div(CycInt(0))


@given(cycs(), st.lists(cycs(-30, 30), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_cyc_divider_serves_many_dividends(b, quotients):
    if not b:
        return
    divide = b.divider()
    assert [divide(q * b) for q in quotients] == quotients


@pytest.mark.parametrize("ring, den, num", [
    ("cyc", CycInt(2), CycInt(1)),
    ("cyc", CycInt(2), CycInt.sqrt3()),
    ("cyc", Z(1) + 2, CycInt(1)),  # norm 13, not a unit
    ("gauss", GaussInt(1, 1), GaussInt(1)),
    ("gauss", GaussInt(3), GaussInt(6, 4)),
])
def test_divider_refuses_a_non_multiple(ring, den, num):
    divide = den.divider()
    with pytest.raises(NotDivisible):
        divide(num)
    # the divider stays usable for the multiples
    assert divide(num * den) == num


@pytest.mark.parametrize("zero", [CycInt(0), GaussInt(0)])
def test_divider_of_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        zero.divider()
    with pytest.raises(ZeroDivisionError):
        type(zero)(1).exact_div(zero)


def test_galois_fixes_integers():
    for k in (1, 5, 7, 11):
        assert CycInt(17).galois(k) == CycInt(17)
    with pytest.raises(ValueError):
        CycInt(1).galois(2)


def test_galois_is_homomorphism():
    a, b = CycInt(2, -1, 3, 5), CycInt(0, 4, -2, 1)
    for k in (5, 7, 11):
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def _convolve_folded(a, b):
    """Reference product: the 7-term convolution, folded by z^4 = z^2 - 1
    from the top, z^d = z^(d-2) - z^(d-4)."""
    c = [0] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for d in range(6, 3, -1):
        c[d - 2] += c[d]
        c[d - 4] -= c[d]
    return tuple(c[:4])


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))


@given(cycs(), cycs(), st.integers(-10**6, 10**6))
@settings(max_examples=80, deadline=None)
def test_cyc_ops_match_reference(a, b, n):
    A, B, N = a.coords, b.coords, (n, 0, 0, 0)
    plus = lambda u, v: tuple(x + y for x, y in zip(u, v))
    minus = lambda u, v: tuple(x - y for x, y in zip(u, v))
    cases = [
        (a * b, _convolve_folded(A, B), a.to_complex() * b.to_complex()),
        (a + b, plus(A, B), a.to_complex() + b.to_complex()),
        (a - b, minus(A, B), a.to_complex() - b.to_complex()),
        (-a, minus((0,) * 4, A), -a.to_complex()),
        (a * n, _convolve_folded(A, N), a.to_complex() * n),
        (n * a, _convolve_folded(N, A), n * a.to_complex()),
        (a + n, plus(A, N), a.to_complex() + n),
        (n + a, plus(N, A), n + a.to_complex()),
        (a - n, minus(A, N), a.to_complex() - n),
        (n - a, minus(N, A), n - a.to_complex()),
    ]
    for got, coords, value in cases:
        assert type(got) is CycInt
        assert got.coords == coords and all(type(c) is int for c in got.coords)
        assert _close(got.to_complex(), value)
    assert (a == n) == (A == N) and (a * 1 == a) and (a * 0 == 0)


@given(gauss(), gauss(), st.integers(-10**6, 10**6))
@settings(max_examples=80, deadline=None)
def test_gauss_ops_match_reference(a, b, n):
    za, zb = a.to_complex(), b.to_complex()
    cases = [
        (a * b, za * zb), (a + b, za + zb), (a - b, za - zb), (-a, -za),
        (a * n, za * n), (n * a, n * za), (a + n, za + n), (n + a, n + za),
        (a - n, za - n), (n - a, n - za),
    ]
    for got, value in cases:
        assert type(got) is GaussInt
        assert type(got.re) is int and type(got.im) is int
        assert (got.re, got.im) == (value.real, value.imag)
        assert _close(got.to_complex(), value)
    assert (a == n) == ((a.re, a.im) == (n, 0))


@pytest.mark.parametrize("k", (1, 5, 7, 11))
def test_galois_table_matches_zeta(k):
    assert cyclotomic._GALOIS[k] == tuple(Z(k * i).coords for i in (1, 2, 3))
    for i in range(12):
        assert Z(i).galois(k) == Z(k * i)
    assert Z(1).galois(k + 12) == Z(k)


def test_exact_div_multiplies_back(monkeypatch):
    # sigma_5 wrongly sends z to z^3: the "norm" of z comes out as
    # z * z^3 * z^7 * z^11 = 1 - z^2, whose constant 1 divides everything,
    # so only the multiply-back can refuse the wrong quotient
    a = CycInt(3, 1, -4, 1)
    assert (a * Z(1)).exact_div(Z(1)) == a
    monkeypatch.setitem(cyclotomic._GALOIS, 5, (Z(3).coords,) + cyclotomic._GALOIS[5][1:])
    with pytest.raises(NotDivisible):
        (a * Z(1)).exact_div(Z(1))
    # the per-divisor form, which elimination uses, trips the same way
    with pytest.raises(NotDivisible):
        Z(1).divider()(a * Z(1))


def test_wrong_conjugate_fails_when_the_divider_is_built(monkeypatch):
    # a non-unit divider never multiplies a quotient back: b * aux == norm,
    # checked once when it is built, is what makes its quotients exact
    b = Z(1) + 2  # norm 13
    assert b.divider()(b * CycInt(3, 1, -4, 1)) == CycInt(3, 1, -4, 1)
    monkeypatch.setitem(cyclotomic._GALOIS, 5, (Z(3).coords,) + cyclotomic._GALOIS[5][1:])
    with pytest.raises(NotDivisible):
        b.divider()
    with pytest.raises(NotDivisible):
        cyclotomic._lattice_divider(GaussInt(2, 1), GaussInt(2, 1), 5)


# -- realness ---------------------------------------------------------------

def test_real_classification():
    assert CycInt(42).is_real()
    assert CycInt.sqrt3().is_real()
    assert not CycInt.zeta(3).is_real()
    assert (CycInt(5) + 2 * CycInt.sqrt3()).as_real_pair() == (5, 2)
    with pytest.raises(ValueError):
        CycInt.zeta(3).as_real_pair()


@given(cycs())
@settings(max_examples=50, deadline=None)
def test_is_real_matches_embedding(a):
    if a.is_real():
        assert abs(a.to_complex().imag) < 1e-6
        x, y = a.as_real_pair()
        value = x + y * 3**0.5
        assert cmath.isclose(a.to_complex(), value, rel_tol=1e-9, abs_tol=1e-9)


def test_rational_int_extraction():
    assert CycInt(-7).as_int() == -7
    assert CycInt(0).is_rational_int()
    with pytest.raises(ValueError):
        Z(1).as_int()


# -- Gaussian integers -----------------------------------------------------------

@given(gauss(), gauss(), gauss())
@settings(max_examples=50, deadline=None)
def test_gauss_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(gauss(), gauss())
@settings(max_examples=50, deadline=None)
def test_gauss_exact_div_roundtrip(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


def _embed(g: GaussInt) -> CycInt:
    """a + b*i as a + b*z^3 in Z[zeta_12]."""
    return CycInt(g.re, 0, 0, g.im)


@given(gauss(-50, 50), gauss(-50, 50), gauss(-50, 50))
@settings(max_examples=60, deadline=None)
def test_both_rings_divide_alike_on_gaussian_integers(a, b, r):
    # the one lattice divider, fed Z[i]'s conjugate and norm or Z[zeta_12]'s
    # conjugate product and norm, gives the same quotients and refusals
    if not a or not b:
        return
    assert (a * b).exact_div(b) == a
    assert _embed(a * b).exact_div(_embed(b)) == _embed(a)
    if b.norm() > 1:  # 1 is a multiple of units only
        with pytest.raises(NotDivisible):
            (a * b + 1).exact_div(b)
    for c in (a * b + r, a * b + 1):
        try:
            q = c.exact_div(b)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                _embed(c).exact_div(_embed(b))
        else:
            assert _embed(c).exact_div(_embed(b)) == _embed(q)


def test_gauss_basics():
    i = GaussInt(0, 1)
    assert i * i == GaussInt(-1)
    assert (GaussInt(1, 1) ** 2) == GaussInt(0, 2)
    assert GaussInt(5, 3).conjugate() == GaussInt(5, -3)
    assert GaussInt(3, 4).norm() == 25
    with pytest.raises(NotDivisible):
        GaussInt(1).exact_div(GaussInt(1, 1))
    assert GaussInt(2).exact_div(GaussInt(1, 1)) == GaussInt(1, -1)


def test_gauss_negative_power():
    assert GaussInt(0, 1) ** -1 == GaussInt(0, -1)


def test_cyc_negative_power():
    assert Z(1) ** -1 == Z(11)
    assert Z(5) ** -3 == Z(-15)
    unit = 2 + CycInt.sqrt3()  # (2 + sqrt 3)(2 - sqrt 3) = 1
    assert unit ** -3 == (2 - CycInt.sqrt3()) ** 3
    with pytest.raises(NotDivisible):
        CycInt(2) ** -1


# -- radical values ----------------------------------------------------------

def test_radical_value_from_cyc():
    assert RadicalValue.from_cyc(CycInt(20)) == RadicalValue(20)
    assert RadicalValue.from_cyc(9 * CycInt.sqrt3()) == RadicalValue(9, 3)
    assert str(RadicalValue(9, 3)) == "9*sqrt(3)"
    assert str(RadicalValue(7)) == "7"
    assert float(RadicalValue(8, 2)) == pytest.approx(8 * 2**0.5)
    with pytest.raises(ValueError):
        RadicalValue.from_cyc(CycInt(1) + CycInt.sqrt3())
    with pytest.raises(ValueError):
        RadicalValue(1, 5)


def test_radical_zero_normalizes():
    assert RadicalValue(0, 3) == RadicalValue(0, 1)


# -- polynomial interop -------------------------------------------------------

def test_poly_evaluate_with_cyc_values():
    from huckelpascal.poly import xvar, yvar

    p = xvar(0) ** 2 + xvar(0) * yvar(0) + yvar(0) ** 2
    x, y = theta_point(2)
    v = p.evaluate({"x0": x, "y0": y})
    # x = z^-2, y = z^2: x^2 + 1 + y^2 = z^-4 + 1 + z^4 = (z^2-1) inverted pair
    assert v == Z(-4) + 1 + Z(4)
    assert v.is_real()


@pytest.mark.parametrize("call, error", [
    (lambda: CycInt(1).exact_div(GaussInt(1)), TypeError),
], ids=["cycint-by-gaussint"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
