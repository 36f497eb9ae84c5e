"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial lives in Z[x_0..x_{v-1}, y_0..y_{v-1}, z] where ``v`` is the
``varcount`` (number of boundary-parameter pairs).  The trailing variable ``z``
is reserved for characteristic polynomials and scaling checks.

Terms are kept in a dict mapping packed monomials to nonzero integer
coefficients.  A packed monomial is one int of 2*v + 2 fields, each
``FIELD_BITS`` wide; from the most significant field down they hold

    total degree, e(x_{v-1}), ..., e(x_0), e(y_{v-1}), ..., e(y_0), e(z)

so the product of two monomials is the sum of their ints, and int order is
the canonical graded lexicographic order with variable precedence

    x_{v-1} > ... > x_0 > y_{v-1} > ... > y_0 > z

which is what printing and leading-term division use.  ``_split`` and its
inverse ``_join`` own that layout, and ``_pack`` and ``_unpack`` convert
exponent tuples through them: every rearrangement of the fields (packing,
promotion, hashing, the x-y swap) goes through them, evaluation reads each
term's exponents through ``_unpack``, and only the degree is read by a
shift of its own.  The top bit of every field stays clear: a total degree,
and so every exponent, is at most ``MAX_DEGREE`` = 2^(FIELD_BITS - 1) - 1.
Since no exponent exceeds the total degree, one check per product (the two
degrees add up to at most ``MAX_DEGREE``) keeps every field from
overflowing.  It lives in ``_products``, the one product loop, and runs
before any term is formed, raising OverflowError.  ``*`` goes through that
loop, and so does ``_less_products``, which subtracts products term by term
into one copy of a polynomial's terms for the division-free determinant.
The clear top bits also let exact division test whether one monomial
divides another by one subtraction.  Addition and subtraction share one
term loop, which adds or subtracts each term of the right operand into a
copy of the left one's terms.

``*``, ``+``, ``-`` and ``==`` dispatch in one order.  A MultiPoly of the
same varcount comes first and goes straight to the term loop: every entry
of a condensation step and of a division-free determinant shares its
matrix's varcount.  Then an int, then a MultiPoly of another varcount
(the smaller operand is promoted), and any other type is NotImplemented.
A product with the constant 1 or -1 returns the other operand or its
negation, and a product with zero returns zero, without a term loop; a sum
or difference with zero returns the other operand or its negation.  Such a
product skips the degree check, since a constant factor cannot raise the
total degree, and every product that can raise it is checked.  No
operation writes into an operand's terms, so ``xvar`` and ``yvar`` hand
out one memoized object per index.  A polynomial holds its terms and its
varcount and nothing else: no hash is cached, ``hash`` reads the terms on
every call.

The public surface speaks exponent tuples of length ``2*v + 1``,

    (e(x_0), ..., e(x_{v-1}), e(y_0), ..., e(y_{v-1}), e(z))

in the constructor, ``sorted_terms``, ``leading``, the JSON terms and the
text form.  Polynomials of different varcounts combine freely: the smaller
operand is promoted, so ``x_1 * y_0`` works without ceremony.

Text format example: ``x0^3 + 9*x0^2*y0^1 + 9*x0^1*y0^2 + y0^3``.
JSON term format: ``[{"exp": [3,0,0], "coef": "1"}, ...]`` with coefficients
as decimal strings so consumers never overflow 64-bit integers.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from operator import add, or_, sub
from typing import Iterable, Mapping

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed (nonzero remainder)."""


class UnboundVariable(KeyError):
    """Evaluation hit a variable with no assigned value."""


def _exp_len(varcount: int) -> int:
    return 2 * varcount + 1


def _power(base, k: int, one):
    """base ** k for k >= 0 by square-and-multiply, from the ring's ``one``;
    the power of MultiPoly and of CycInt and GaussInt, whose k < 0 rules
    differ (``cyclotomic._lattice_power``)."""
    acc = one
    while k:
        if k & 1:
            acc = acc * base
        base = base * base if k > 1 else base
        k >>= 1
    return acc


class MultiPoly:
    """Immutable sparse polynomial over Z.

    Construct via :func:`xvar`, :func:`yvar`, :func:`zvar`,
    :meth:`MultiPoly.const` or arithmetic on those.  The constructor takes
    exponent tuples and checks each one against ``varcount``.
    """

    __slots__ = ("terms", "varcount")

    def __init__(self, terms: Mapping[tuple, int], varcount: int):
        _set_terms(self, {_pack(exp, varcount): c for exp, c in terms.items() if c != 0})
        _set_varcount(self, varcount)

    @staticmethod
    def _of(terms: dict, varcount: int) -> "MultiPoly":
        """Wrap a dict of packed monomials to nonzero coefficients, unchecked."""
        p = _new(MultiPoly)
        _set_terms(p, terms)
        _set_varcount(p, varcount)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(varcount: int = 0) -> "MultiPoly":
        return MultiPoly._of({}, varcount)

    @staticmethod
    def const(c: int, varcount: int = 0) -> "MultiPoly":
        return MultiPoly._of({0: int(c)} if c else {}, varcount)

    # -- promotion ---------------------------------------------------------

    def promoted(self, varcount: int) -> "MultiPoly":
        """Re-embed into a ring with at least ``varcount`` parameter pairs."""
        v0 = self.varcount
        if varcount <= v0:
            return self
        # the blocks keep their fields; each gains zero fields at its top
        top = FIELD_BITS * _exp_len(v0)
        return MultiPoly._of(
            {_join(k >> top, *_split(k, v0), varcount): c for k, c in self.terms.items()},
            varcount,
        )

    def _pair(self, other) -> tuple["MultiPoly", "MultiPoly"]:
        """Both operands at one varcount; an int becomes a constant there."""
        if isinstance(other, int):
            return self, MultiPoly.const(other, self.varcount)
        if self.varcount == other.varcount:
            return self, other
        v = max(self.varcount, other.varcount)
        return self.promoted(v), other.promoted(v)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({k: -c for k, c in self.terms.items()}, self.varcount)

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def _sum(self, other, step):
        """self + other when ``step`` is operator.add, self - other when it
        is operator.sub: one step per term of other, into a copy of self's."""
        if other.__class__ is MultiPoly and other.varcount == self.varcount:
            a, b = self, other
        elif isinstance(other, int) and not other:
            return self
        elif isinstance(other, (int, MultiPoly)):
            a, b = self._pair(other)
        else:
            return NotImplemented
        if not b.terms:
            return a
        if not a.terms:
            return b if step is add else -b
        out = dict(a.terms)
        for k, c in b.terms.items():
            s = step(out.get(k, 0), c)
            if s:
                out[k] = s
            else:
                del out[k]
        return MultiPoly._of(out, a.varcount)

    def __mul__(self, other):
        if other.__class__ is MultiPoly and other.varcount == self.varcount:
            return _times(self, other)
        if isinstance(other, int):
            if other == 1 or other == -1:
                return self if other > 0 else -self
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return _times(*self._pair(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        return _power(self, k, MultiPoly.const(1, self.varcount))

    def __eq__(self, other):
        if other.__class__ is MultiPoly and other.varcount == self.varcount:
            return self.terms == other.terms
        if isinstance(other, int):
            if not other:
                return not self.terms
            return len(self.terms) == 1 and self.terms.get(0) == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._pair(other)
        return a.terms == b.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        # Equal polynomials hash equal whatever their varcount: a constant
        # hashes as the integer it equals, and every other monomial is keyed
        # by its x block, y block and z exponent, which promotion leaves as
        # they are (it only adds zero fields above each block).  Nothing is
        # cached: the hash is computed from the terms on every call.
        if not any(self.terms):
            return hash(sum(self.terms.values()))
        v = self.varcount
        return hash(frozenset((*_split(k, v), c) for k, c in self.terms.items()))

    # -- term order --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in canonical (descending graded-lex) order."""
        v = self.varcount
        return [(_unpack(k, v), c) for k, c in sorted(self.terms.items(), reverse=True)]

    def leading(self) -> tuple[tuple, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.terms)
        return _unpack(k, self.varcount), self.terms[k]

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> (FIELD_BITS * _exp_len(self.varcount))

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        shift = FIELD_BITS * _exp_len(self.varcount)
        degs = {k >> shift for k in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def swap_xy(self) -> "MultiPoly":
        """Apply the involution x_i <-> y_i for every pair simultaneously."""
        v = self.varcount
        top = FIELD_BITS * _exp_len(v)
        out = {}
        for k, c in self.terms.items():
            x, y, z = _split(k, v)
            out[_join(k >> top, y, x, z, v)] = c
        return MultiPoly._of(out, v)

    def coefficient(self, assignment: Mapping[str, int]) -> int:
        """Coefficient of the monomial given by ``{"x2": 1, "y2": 1, ...}``.

        Variables not listed are taken to exponent zero; asking about a
        variable beyond this polynomial's ring silently widens the ring.
        """
        need = self.varcount
        for name in assignment:
            m = _VAR_RE.match(name)
            if m and name != "z":
                need = max(need, int(m.group(2)) + 1)
        exp = [0] * _exp_len(need)
        for name, e in assignment.items():
            exp[_var_slot(name, need)] = e
        return self.promoted(need).terms.get(_pack(exp, need), 0)

    def used_variables(self) -> set[str]:
        v = self.varcount
        # a field of the OR of all keys is nonzero iff some term uses it
        exp = _unpack(reduce(or_, self.terms, 0), v)
        return {_slot_name(slot, v) for slot, e in enumerate(exp) if e}

    # -- exact division ----------------------------------------------------

    def exact_div(self, den: "MultiPoly | int") -> "MultiPoly":
        """Exact quotient self/den; raises NotDivisible on any remainder."""
        num, den = self._pair(den)
        if not den.terms:
            raise ZeroDivisionError("division by zero polynomial")
        v = num.varcount
        dterms = den.terms
        dexp = max(dterms)
        dcoef = dterms[dexp]
        # (r | guard) - d keeps the top bit of a field iff r's field is at
        # least d's there, since every field of r and d is below the top bit
        guard = _guard_bits(v)
        rem = dict(num.terms)
        quot = {}
        while rem:
            rexp = max(rem)
            rcoef = rem[rexp]
            if ((rexp | guard) - dexp) & guard != guard or rcoef % dcoef:
                raise NotDivisible(f"{num} is not divisible by {den}")
            mono = rexp - dexp
            c = rcoef // dcoef
            quot[mono] = c
            for e, dc in dterms.items():
                k = mono + e
                s = rem.get(k, 0) - c * dc
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return MultiPoly._of(quot, v)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate with values from any commutative ring (int, Fraction,
        CycInt, GaussInt, complex); MultiPoly values substitute polynomials
        for the variables.  Every variable appearing with a nonzero
        exponent must be assigned, otherwise UnboundVariable is raised.
        Terms are summed in canonical order, and each term multiplies its
        factors in the order x_0..x_{v-1}, y_0..y_{v-1}, z.
        """
        v = self.varcount
        names = _slot_names(v)
        total = 0
        for key, coef in sorted(self.terms.items(), reverse=True):
            acc = coef
            for name, e in zip(names, _unpack(key, v)):
                if e:
                    try:
                        value = assignment[name]
                    except KeyError:
                        raise UnboundVariable(name) from None
                    acc = acc * value**e
            total = total + acc
        return total

    # -- formatting ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``x1^1*y1^1 - 2*z^1 + 3``."""
        if not self.terms:
            return "0"
        parts = []
        for i, (exp, coef) in enumerate(self.sorted_terms()):
            mono = self._mono_text(exp)
            mag = abs(coef)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def _mono_text(self, exp: tuple) -> str:
        v = self.varcount
        factors = []
        for i in range(v - 1, -1, -1):
            if exp[i]:
                factors.append(f"x{i}^{exp[i]}")
        for i in range(v - 1, -1, -1):
            if exp[v + i]:
                factors.append(f"y{i}^{exp[v + i]}")
        if exp[-1]:
            factors.append(f"z^{exp[-1]}")
        return "*".join(factors)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    def to_json_terms(self) -> list[dict]:
        return [
            {"exp": list(exp), "coef": str(coef)}
            for exp, coef in self.sorted_terms()
        ]

    @staticmethod
    def from_json_terms(data: Iterable[Mapping], varcount: int) -> "MultiPoly":
        terms = {}
        for item in data:
            exp = tuple(int(e) for e in item["exp"])
            terms[exp] = terms.get(exp, 0) + int(item["coef"])
        return MultiPoly(terms, varcount)


def _times(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a * b at one varcount: a constant factor 1 or -1 returns the other
    operand or its negation with no term loop, and a zero factor the zero
    polynomial; every other product runs the one product loop."""
    at, bt = a.terms, b.terms
    if len(at) > len(bt):
        a, b, at, bt = b, a, bt, at
    if len(at) == 1:
        u = at.get(0)
        if u == 1 or u == -1:
            return b if u > 0 else -b
        if len(bt) == 1:
            u = bt.get(0)
            if u == 1 or u == -1:
                return a if u > 0 else -a
    elif not at:
        return a
    return MultiPoly._of(_products(at, bt, a.varcount), a.varcount)


def _products(at: dict, bt: dict, varcount: int, out: dict | None = None) -> dict:
    """The one product loop, on the terms of two nonzero polynomials of one
    varcount: the terms of a * b as a new dict or, given ``out``, subtracted
    from ``out`` term by term in place.  The degree check runs first, before
    any term is formed: the product's total degree is at most MAX_DEGREE,
    or OverflowError."""
    if len(at) > len(bt):
        at, bt = bt, at
    degree = (max(at) + max(bt)) >> FIELD_BITS * (2 * varcount + 1)
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"product of total degree {degree} exceeds the packed "
            f"monomial limit {MAX_DEGREE}"
        )
    if out is None:
        if len(at) == 1:
            [(ea, ca)] = at.items()
            if len(bt) == 1:
                [(eb, cb)] = bt.items()
                return {ea + eb: ca * cb}
            return {ea + eb: ca * cb for eb, cb in bt.items()}
        out, sign = {}, 1
    else:
        sign = -1
    get = out.get
    for ea, ca in at.items():
        ca *= sign
        for eb, cb in bt.items():
            k = ea + eb
            s = get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _less_products(acc: MultiPoly | None, pairs, varcount: int) -> MultiPoly:
    """acc - sum(a * b for a, b in pairs), every operand a nonzero
    polynomial of this varcount and a None acc standing for zero: each
    product is subtracted term by term, through the one product loop, into
    one copy of acc's terms, never into an operand's."""
    out = dict(acc.terms) if acc is not None else {}
    for a, b in pairs:
        _products(a.terms, b.terms, varcount, out)
    return MultiPoly._of(out, varcount)


_new = object.__new__
_set_terms = MultiPoly.terms.__set__
_set_varcount = MultiPoly.varcount.__set__


# -- packed monomials ---------------------------------------------------------


def _split(key: int, varcount: int) -> tuple[int, int, int]:
    """A packed monomial's x block, y block and e(z); the degree is left
    out.  Each block holds its v fields with index 0 at the bottom."""
    block = FIELD_BITS * varcount
    mask = (1 << block) - 1
    return (key >> (block + FIELD_BITS)) & mask, (key >> FIELD_BITS) & mask, key & _FIELD


def _join(degree: int, x: int, y: int, z: int, varcount: int) -> int:
    """The packed monomial with these fields, the inverse of ``_split``."""
    block = FIELD_BITS * varcount
    return (((((degree << block) | x) << block) | y) << FIELD_BITS) | z


def _pack(exp: tuple, varcount: int) -> int:
    """The packed monomial of an exponent tuple, checked against the layout."""
    if len(exp) != _exp_len(varcount):
        raise ValueError(f"exponent tuple {exp} does not fit varcount {varcount}")
    degree = sum(exp)
    if min(exp) < 0 or degree > MAX_DEGREE:
        raise ValueError(
            f"exponent tuple {exp} needs exponents >= 0 and total degree "
            f"<= {MAX_DEGREE}"
        )
    x = y = 0
    for i in range(varcount - 1, -1, -1):
        x = (x << FIELD_BITS) | exp[i]
        y = (y << FIELD_BITS) | exp[varcount + i]
    return _join(degree, x, y, exp[-1], varcount)


def _unpack(key: int, varcount: int) -> tuple:
    """The exponent tuple of a packed monomial."""
    x, y, z = _split(key, varcount)
    fields = []
    for block in (x, y):
        for _ in range(varcount):
            fields.append(block & _FIELD)
            block >>= FIELD_BITS
    return (*fields, z)


@lru_cache(maxsize=None)
def _guard_bits(varcount: int) -> int:
    """The top bit of every field, the degree's included."""
    top = 1 << (FIELD_BITS - 1)
    return sum(top << (FIELD_BITS * i) for i in range(_exp_len(varcount) + 1))


@lru_cache(maxsize=None)
def _slot_names(varcount: int) -> tuple[str, ...]:
    return tuple(_slot_name(slot, varcount) for slot in range(_exp_len(varcount)))


# -- variable helpers -------------------------------------------------------

_VAR_RE = re.compile(r"^(x|y)(\d+)$|^z$")


def _var_slot(name: str, varcount: int) -> int:
    m = _VAR_RE.match(name)
    if not m:
        raise KeyError(f"unknown variable {name!r}")
    if name == "z":
        return 2 * varcount
    kind, idx = m.group(1), int(m.group(2))
    if idx >= varcount:
        raise KeyError(f"variable {name!r} outside varcount {varcount}")
    return idx if kind == "x" else varcount + idx


def _slot_name(slot: int, varcount: int) -> str:
    if slot == 2 * varcount:
        return "z"
    if slot < varcount:
        return f"x{slot}"
    return f"y{slot - varcount}"


def _var_poly(name: str, varcount: int) -> MultiPoly:
    exp = [0] * _exp_len(varcount)
    exp[_var_slot(name, varcount)] = 1
    return MultiPoly({tuple(exp): 1}, varcount)


@lru_cache(maxsize=None)
def xvar(i: int) -> MultiPoly:
    """The variable x_i (minimal varcount i+1), one object per i."""
    return _var_poly(f"x{i}", i + 1)


@lru_cache(maxsize=None)
def yvar(i: int) -> MultiPoly:
    """The variable y_i (minimal varcount i+1), one object per i."""
    return _var_poly(f"y{i}", i + 1)


def zvar() -> MultiPoly:
    """The extra variable z used for characteristic polynomials."""
    return MultiPoly({(1,): 1}, 0)


def svar(i: int) -> MultiPoly:
    """Convenience: the row sum S_i = x_i + y_i."""
    return xvar(i) + yvar(i)


# -- text parsing ------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([+-])\s*")
_FACTOR_RE = re.compile(r"^(?:(\d+)|([xy]\d+|z)(?:\^(\d+))?)$")


def poly_from_text(text: str, varcount: int | None = None) -> MultiPoly:
    """Parse the canonical text format back into a polynomial.

    Accepts any +/- separated list of ``coef*var^e*...`` terms; ``^1`` and a
    unit coefficient may be omitted.  Every sign must be followed by a term:
    a doubled or dangling sign raises ValueError.  If ``varcount`` is None
    the smallest ring containing all mentioned variables is used.
    """
    text = text.strip()
    if text in ("", "0"):
        return MultiPoly.zero(varcount or 0)
    pieces: list[tuple[int, str]] = []
    sign = 1
    pos = 0
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        pos = 1
    while True:
        m = _TOKEN_RE.search(text, pos)
        end = m.start() if m else len(text)
        chunk = text[pos:end].strip()
        if not chunk:  # a doubled or dangling sign
            raise ValueError(f"missing term after a sign in {text!r}")
        pieces.append((sign, chunk))
        if not m:
            break
        sign = -1 if m.group(1) == "-" else 1
        pos = m.end()
    if varcount is None:
        varcount = 0
        for _, chunk in pieces:
            for name in re.findall(r"[xy]\d+", chunk):
                varcount = max(varcount, int(name[1:]) + 1)
    total = MultiPoly.zero(varcount)
    for sgn, chunk in pieces:
        coef = sgn
        exp = [0] * _exp_len(varcount)
        for factor in chunk.split("*"):
            fm = _FACTOR_RE.match(factor.strip())
            if not fm:
                raise ValueError(f"cannot parse term factor {factor!r}")
            if fm.group(1) is not None:
                coef *= int(fm.group(1))
            else:
                e = int(fm.group(3)) if fm.group(3) else 1
                exp[_var_slot(fm.group(2), varcount)] += e
        total = total + MultiPoly({tuple(exp): coef}, varcount)
    return total

