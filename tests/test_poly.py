"""Polynomial ring: arithmetic, ordering, division, round-trips."""

from fractions import Fraction
from math import prod

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huckelpascal.poly import (
    MAX_DEGREE,
    MultiPoly,
    NotDivisible,
    UnboundVariable,
    poly_from_text,
    svar,
    xvar,
    yvar,
    zvar,
)


# -- strategies ---------------------------------------------------------------

def polys(varcount=2, max_terms=5, max_exp=3, max_coef=50):
    exps = st.tuples(
        *[st.integers(0, max_exp) for _ in range(2 * varcount + 1)]
    )
    term = st.tuples(exps, st.integers(-max_coef, max_coef))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(
            (MultiPoly({e: c}, varcount) for e, c in ts),
            MultiPoly.zero(varcount),
        )
    )


# -- basic arithmetic ---------------------------------------------------------

def test_constants_and_variables():
    assert MultiPoly.const(0) == MultiPoly.zero()
    assert MultiPoly.const(7).to_text() == "7"
    assert xvar(0).to_text() == "x0^1"
    assert yvar(2).to_text() == "y2^1"
    assert zvar().to_text() == "z^1"
    assert svar(1) == xvar(1) + yvar(1)


def test_cross_varcount_promotion():
    p = xvar(0) * yvar(2)
    assert p.varcount == 3
    assert p.coefficient({"x0": 1, "y2": 1}) == 1


def test_known_product():
    p = (xvar(0) + yvar(0)) ** 2
    assert p.coefficient({"x0": 2}) == 1
    assert p.coefficient({"x0": 1, "y0": 1}) == 2
    assert p.coefficient({"y0": 2}) == 1
    assert p.total_degree() == 2


def test_int_mixing():
    p = 3 * xvar(0) - 1
    q = p + 1
    assert q == 3 * xvar(0)
    assert (2 - p) == 3 - 3 * xvar(0)


def test_pow_small_cases():
    x = xvar(0)
    assert x**0 == 1
    assert x**1 == x
    assert x**4 == x * x * x * x
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_zero_behaviour():
    z = MultiPoly.zero(1)
    assert not z
    assert z.total_degree() == -1
    assert z + xvar(0) == xvar(0)
    assert z * xvar(0) == z


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero(2) == a
    assert a * MultiPoly.const(1, 2) == a
    assert a - a == MultiPoly.zero(2)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_exact_div_roundtrip(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        (xvar(0) + 1).exact_div(xvar(0))
    with pytest.raises(NotDivisible):
        MultiPoly.const(3).exact_div(MultiPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        xvar(0).exact_div(MultiPoly.zero())


def test_exact_div_multivariate():
    s = svar(0)
    p = s * (xvar(0) ** 2 - yvar(0) * xvar(0) + 5)
    assert p.exact_div(s) == xvar(0) ** 2 - yvar(0) * xvar(0) + 5


# -- ordering and text --------------------------------------------------------

def test_canonical_order_bivariate():
    # x0^3 + 9 x0^2 y0 + 9 x0 y0^2 + y0^3, descending powers of x0
    p = xvar(0) ** 3 + 9 * xvar(0) ** 2 * yvar(0) + 9 * xvar(0) * yvar(0) ** 2 + yvar(0) ** 3
    assert p.to_text() == "x0^3 + 9*x0^2*y0^1 + 9*x0^1*y0^2 + y0^3"


def test_canonical_order_high_index_first():
    p = xvar(0) * yvar(1) + xvar(1) * yvar(0)
    # x1 outranks x0 which outranks every y
    assert p.to_text() == "x1^1*y0^1 + x0^1*y1^1"


def test_text_negative_leading():
    p = -xvar(0) + 2
    assert p.to_text() == "-x0^1 + 2"
    assert poly_from_text(p.to_text()) == p


@given(polys(varcount=2))
@settings(max_examples=60, deadline=None)
def test_text_roundtrip(p):
    assert poly_from_text(p.to_text(), varcount=2) == p


@given(polys(varcount=2))
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(p):
    assert MultiPoly.from_json_terms(p.to_json_terms(), 2) == p


def test_parse_flexible_input():
    # ^1 optional: the printer always writes it but the parser is lenient
    assert poly_from_text("x1*y1 - 2*z") == xvar(1) * yvar(1) - 2 * zvar()
    assert poly_from_text("x0^2*y0") == xvar(0) ** 2 * yvar(0)
    assert poly_from_text("- x0 + x0") == MultiPoly.zero(1)
    assert poly_from_text("0") == MultiPoly.zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        poly_from_text("x0 $ y0")


@pytest.mark.parametrize("text", ["x0^1 - - y0^1", "x0^1 - -3", "x0^1 +", "--x0", "-", "x0 + + 1"])
def test_parse_rejects_doubled_or_dangling_signs(text):
    with pytest.raises(ValueError):
        poly_from_text(text)


# -- evaluation ---------------------------------------------------------------

def test_evaluate_int_and_fraction():
    p = xvar(0) ** 2 + 3 * yvar(0)
    assert p.evaluate({"x0": 5, "y0": -1}) == 22
    val = p.evaluate({"x0": Fraction(1, 2), "y0": Fraction(1, 3)})
    assert val == Fraction(1, 4) + 1


def test_evaluate_complex():
    p = xvar(0) * yvar(0)
    assert p.evaluate({"x0": 1j, "y0": -1j}) == 1 + 0j


def test_evaluate_missing_variable():
    with pytest.raises(UnboundVariable):
        (xvar(0) + yvar(0)).evaluate({"x0": 1})


# -- structural reports ---------------------------------------------------------

def test_swap_xy_involution():
    p = xvar(0) ** 2 * yvar(1) + 3 * xvar(1)
    assert p.swap_xy().swap_xy() == p


def test_homogeneous_detection():
    assert (xvar(0) * yvar(1)).is_homogeneous(2)
    assert not (xvar(0) + 1).is_homogeneous()
    assert MultiPoly.zero().is_homogeneous()


def test_hash_consistency():
    a = xvar(0) + yvar(0)
    b = yvar(0) + xvar(0)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_polynomials_hash_equal_across_varcounts():
    assert len({xvar(0), xvar(0).promoted(3)}) == 1
    assert len({MultiPoly.const(5), 5}) == 1


# -- packed monomials against a tuple-keyed reference ----------------------------
#
# The reference keeps each polynomial as (dict of exponent tuple -> nonzero
# coefficient, varcount), with the tuple layout of the public surface.


def tuple_polys_at(v, min_terms=0, max_terms=5, max_exp=3, max_coef=50):
    """(terms, varcount) references of varcount v; with min_terms=1 and
    max_terms=1, a single monomial."""
    exps = st.tuples(*[st.integers(0, max_exp)] * (2 * v + 1))
    coef = st.integers(-max_coef, max_coef)
    return st.dictionaries(
        exps, coef.filter(bool) if min_terms else coef,
        min_size=min_terms, max_size=max_terms,
    ).map(lambda t: ({e: c for e, c in t.items() if c}, v))


def tuple_polys(max_varcount=3, **kwargs):
    return st.integers(0, max_varcount).flatmap(lambda v: tuple_polys_at(v, **kwargs))


def _ref_promote(ref, v):
    terms, v0 = ref
    pad = (0,) * (v - v0)
    return {e[:v0] + pad + e[v0 : 2 * v0] + pad + e[-1:]: c for e, c in terms.items()}, v


def _ref_combine(a, b, op):
    v = max(a[1], b[1])
    (at, _), (bt, _) = _ref_promote(a, v), _ref_promote(b, v)
    out = {}
    if op == "*":
        for ea, ca in at.items():
            for eb, cb in bt.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    else:
        sign = 1 if op == "+" else -1
        out = dict(at)
        for e, c in bt.items():
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}, v


def _ref_sorted(ref):
    terms, v = ref

    def key(e):
        return sum(e), e[v - 1 :: -1] if v else (), e[2 * v - 1 : v - 1 : -1] if v else (), e[-1]

    return sorted(terms.items(), key=lambda t: key(t[0]), reverse=True)


def _ref_text(ref):
    v = ref[1]
    parts = []
    for e, c in _ref_sorted(ref):
        factors = [f"x{i}^{e[i]}" for i in reversed(range(v)) if e[i]]
        factors += [f"y{i}^{e[v + i]}" for i in reversed(range(v)) if e[v + i]]
        factors += [f"z^{e[-1]}"] if e[-1] else []
        mono = "*".join(factors)
        body = mono if mono and abs(c) == 1 else "*".join(filter(None, [str(abs(c)), mono]))
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) or "0"


def _ref_exact_div(num, den):
    v = max(num[1], den[1])
    num, den = _ref_promote(num, v), _ref_promote(den, v)
    if not den[0]:
        raise ZeroDivisionError
    dexp, dcoef = _ref_sorted(den)[0]
    rem, quot = num, {}
    while rem[0]:
        rexp, rcoef = _ref_sorted(rem)[0]
        mono = tuple(r - d for r, d in zip(rexp, dexp))
        if min(mono) < 0 or rcoef % dcoef:
            raise NotDivisible
        quot[mono] = rcoef // dcoef
        rem = _ref_combine(rem, _ref_combine(({mono: quot[mono]}, v), den, "*"), "-")
    return quot, v


def _assert_combinations_match(a, b):
    p, q = MultiPoly(*a), MultiPoly(*b)
    for op, got in (("*", p * q), ("+", p + q), ("-", p - q)):
        want = _ref_combine(a, b, op)
        assert got.varcount == want[1]
        assert got.sorted_terms() == _ref_sorted(want)
        assert got == MultiPoly(*want) and hash(got) == hash(MultiPoly(*want))
    # == and hash follow the terms, whatever the varcounts
    v = max(a[1], b[1])
    assert (p == q) == (_ref_promote(a, v)[0] == _ref_promote(b, v)[0])
    assert p == MultiPoly(*a) and hash(p) == hash(MultiPoly(*a))


@given(tuple_polys(), tuple_polys(), st.integers(-9, 9), st.data())
@settings(max_examples=100, deadline=None)
def test_packed_arithmetic_matches_the_tuple_reference(a, b, c, data):
    _assert_combinations_match(a, b)
    p = MultiPoly(*a)
    const = ({(0,) * (2 * a[1] + 1): c} if c else {}, a[1])
    assert (p * c).sorted_terms() == _ref_sorted(_ref_combine(a, const, "*"))
    assert (c - p).sorted_terms() == _ref_sorted(_ref_combine(const, a, "-"))
    assert (p + c) == MultiPoly(*_ref_combine(a, const, "+"))
    # operands at one shared varcount, and one-term operands
    v = a[1]
    monomial = tuple_polys_at(v, min_terms=1, max_terms=1)
    same, mono, other = data.draw(tuple_polys_at(v)), data.draw(monomial), data.draw(monomial)
    for left, right in [(a, same), (same, a), (a, a), (mono, other), (mono, mono),
                        (mono, a), (a, mono)]:
        _assert_combinations_match(left, right)


@given(tuple_polys(), st.integers(0, 4), st.sampled_from([1, -1]), st.data())
@settings(max_examples=100, deadline=None)
def test_unit_and_zero_shortcuts_match_the_tuple_reference(a, w, u, data):
    # the operand of varcount w is the unit u, or zero, as a MultiPoly; then
    # the same at a's own varcount v, beside a and a one-term polynomial
    p = MultiPoly(*a)
    v = a[1]
    mono = data.draw(tuple_polys_at(v, min_terms=1, max_terms=1))
    m = MultiPoly(*mono)
    cases = []
    for operand, ref, at in [(p, a, w), (p, a, v), (m, mono, v)]:
        unit = ({(0,) * (2 * at + 1): u}, at)
        zero = ({}, at)
        own = ({(0,) * (2 * ref[1] + 1): u}, ref[1])
        cases += [
            (operand * MultiPoly.const(u, at), ref, unit, "*"),
            (MultiPoly.const(u, at) * operand, unit, ref, "*"),
            (operand * MultiPoly.zero(at), ref, zero, "*"),
            (MultiPoly.zero(at) * operand, zero, ref, "*"),
            (operand * u, ref, own, "*"),
            (u * operand, own, ref, "*"),
            (operand + MultiPoly.zero(at), ref, zero, "+"),
            (MultiPoly.zero(at) + operand, zero, ref, "+"),
            (operand - MultiPoly.zero(at), ref, zero, "-"),
            (MultiPoly.zero(at) - operand, zero, ref, "-"),
            (operand + 0, ref, ({}, ref[1]), "+"),
            (0 + operand, ({}, ref[1]), ref, "+"),
            (sum([operand]), ({}, ref[1]), ref, "+"),
            (operand - 0, ref, ({}, ref[1]), "-"),
            (0 - operand, ({}, ref[1]), ref, "-"),
        ]
    for got, left, right, op in cases:
        want = _ref_combine(left, right, op)
        assert got.varcount == want[1] == max(left[1], right[1])
        assert got.sorted_terms() == _ref_sorted(want)
        assert got == MultiPoly(*want) and hash(got) == hash(MultiPoly(*want))
    # the unit 1 at the same varcount returns a nonconstant operand itself
    one = MultiPoly.const(1, v)
    for q in (p, m):
        if q.total_degree():
            assert q * one is q and one * q is q


@given(tuple_polys())
@settings(max_examples=100, deadline=None)
def test_packed_order_and_formats_match_the_tuple_reference(a):
    p = MultiPoly(*a)
    ordered = _ref_sorted(a)
    assert p.sorted_terms() == ordered
    assert p.to_text() == _ref_text(a)
    assert p.to_json_terms() == [
        {"exp": list(e), "coef": str(c)} for e, c in ordered
    ]
    if ordered:
        assert p.leading() == ordered[0]
        assert p.total_degree() == sum(ordered[0][0])


@pytest.mark.parametrize("v", range(13))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_text_from_packed_keys_matches_the_tuple_reference(v, data):
    # high powers of z, negative coefficients and constants at every varcount
    a = data.draw(tuple_polys_at(v, max_terms=6, max_exp=40, max_coef=10**20))
    p = MultiPoly(*a)
    for q in (p, p - zvar() ** 37, p * -3 + 1):
        ref = (dict(q.sorted_terms()), q.varcount)
        assert str(q) == _ref_text(ref)
        assert poly_from_text(str(q)) == q


@given(tuple_polys(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_packed_promotion_matches_the_tuple_reference(a, extra):
    p = MultiPoly(*a).promoted(a[1] + extra)
    want = _ref_promote(a, a[1] + extra)
    assert p.varcount == want[1]
    assert p.sorted_terms() == _ref_sorted(want)
    assert p == MultiPoly(*a) and hash(p) == hash(MultiPoly(*a))


@given(tuple_polys())
@settings(max_examples=100, deadline=None)
def test_packed_swap_xy_matches_the_tuple_reference(a):
    terms, v = a
    want = {e[v : 2 * v] + e[:v] + e[-1:]: c for e, c in terms.items()}, v
    got = MultiPoly(*a).swap_xy()
    assert got.varcount == v
    assert got.sorted_terms() == _ref_sorted(want)


@given(tuple_polys(), st.data())
@settings(max_examples=100, deadline=None)
def test_packed_evaluate_matches_the_tuple_reference(a, data):
    terms, v = a
    names = [f"x{i}" for i in range(v)] + [f"y{i}" for i in range(v)] + ["z"]
    values = data.draw(st.tuples(*[st.integers(-7, 7)] * len(names)))
    want = sum(c * prod(t**e for t, e in zip(values, exp)) for exp, c in terms.items())
    assert MultiPoly(*a).evaluate(dict(zip(names, values))) == want


@given(tuple_polys(max_terms=4), tuple_polys(max_terms=3))
@settings(max_examples=100, deadline=None)
def test_packed_exact_div_matches_the_tuple_reference(a, b):
    if not b[0]:
        return
    product = _ref_combine(a, b, "*")
    got = MultiPoly(*product).exact_div(MultiPoly(*b))
    assert got.sorted_terms() == _ref_sorted(_ref_promote(a, product[1]))
    # an arbitrary numerator: both divide, or both refuse
    try:
        want = _ref_exact_div(a, b)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            MultiPoly(*a).exact_div(MultiPoly(*b))
    else:
        assert MultiPoly(*a).exact_div(MultiPoly(*b)).sorted_terms() == _ref_sorted(want)


def test_degree_field_limit():
    x = xvar(0)
    assert (x ** (MAX_DEGREE - 1) * x).total_degree() == MAX_DEGREE
    with pytest.raises(OverflowError, match="exceeds the packed monomial limit"):
        x**MAX_DEGREE * yvar(0)
    with pytest.raises(ValueError, match="total degree"):
        MultiPoly({(MAX_DEGREE, 1, 0): 1}, 1)
    with pytest.raises(ValueError, match="exponents >= 0"):
        MultiPoly({(-1, 0, 0): 1}, 1)


def test_degree_overflow_raises_before_any_term_is_formed():
    # 3000 x 3000 terms would take seconds to multiply out
    wide = MultiPoly({(i, 3000 - i, 0): 1 for i in range(3000)}, 1)
    high = wide * xvar(0) ** (MAX_DEGREE - 4000)
    t0 = time.perf_counter()
    with pytest.raises(OverflowError):
        high * wide
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("call, error", [
    (lambda: xvar(0) ** -1, ValueError),
    (lambda: MultiPoly.zero().leading(), ValueError),
    (lambda: MultiPoly({(1, 2): 1}, 0), ValueError),  # tuple longer than 2v + 1
    (lambda: svar(0).coefficient({"q": 1}), KeyError),
], ids=["negative-power", "zero-leading", "exponent-length", "unknown-variable"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
