"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial lives in Z[x_0..x_{v-1}, y_0..y_{v-1}, z] where ``v`` is the
``varcount`` (number of boundary-parameter pairs).  The trailing variable ``z``
is reserved for characteristic polynomials and scaling checks.  Terms are kept
in a dict mapping exponent tuples to nonzero integer coefficients; the
exponent tuple has length ``2*v + 1`` and is laid out as

    (e(x_0), ..., e(x_{v-1}), e(y_0), ..., e(y_{v-1}), e(z))

The canonical term order is graded lexicographic with variable precedence

    x_{v-1} > ... > x_0 > y_{v-1} > ... > y_0 > z

which is what printing and leading-term division use.  Polynomials
of different varcounts combine freely: the smaller operand is promoted, so
``x_1 * y_0`` works without ceremony.

Text format example: ``x0^3 + 9*x0^2*y0^1 + 9*x0^1*y0^2 + y0^3``.
JSON term format: ``[{"exp": [3,0,0], "coef": "1"}, ...]`` with coefficients
as decimal strings so consumers never overflow 64-bit integers.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed (nonzero remainder)."""


class UnboundVariable(KeyError):
    """Evaluation hit a variable with no assigned value."""


def _exp_len(varcount: int) -> int:
    return 2 * varcount + 1


class MultiPoly:
    """Immutable sparse polynomial over Z.

    Construct via :func:`xvar`, :func:`yvar`, :func:`zvar`,
    :meth:`MultiPoly.const` or arithmetic on those.
    """

    __slots__ = ("terms", "varcount", "_hash")

    def __init__(self, terms: Mapping[tuple, int], varcount: int):
        clean = {exp: c for exp, c in terms.items() if c != 0}
        for exp in clean:
            if len(exp) != _exp_len(varcount):
                raise ValueError(
                    f"exponent tuple {exp} does not fit varcount {varcount}"
                )
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "varcount", varcount)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(varcount: int = 0) -> "MultiPoly":
        return MultiPoly({}, varcount)

    @staticmethod
    def const(c: int, varcount: int = 0) -> "MultiPoly":
        if c == 0:
            return MultiPoly.zero(varcount)
        return MultiPoly({(0,) * _exp_len(varcount): int(c)}, varcount)

    # -- promotion ---------------------------------------------------------

    def promoted(self, varcount: int) -> "MultiPoly":
        """Re-embed into a ring with at least ``varcount`` parameter pairs."""
        v0 = self.varcount
        if varcount <= v0:
            return self
        pad = varcount - v0
        out = {}
        for exp, c in self.terms.items():
            xs = exp[:v0] + (0,) * pad
            ys = exp[v0 : 2 * v0] + (0,) * pad
            out[xs + ys + (exp[-1],)] = c
        return MultiPoly(out, varcount)

    @staticmethod
    def _pair(a, b) -> tuple["MultiPoly", "MultiPoly"]:
        if isinstance(a, int):
            a = MultiPoly.const(a)
        if isinstance(b, int):
            b = MultiPoly.const(b)
        v = max(a.varcount, b.varcount)
        return a.promoted(v), b.promoted(v)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (MultiPoly, int)):
            return NotImplemented
        a, b = MultiPoly._pair(self, other)
        out = dict(a.terms)
        for exp, c in b.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(out, a.varcount)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self.terms.items()}, self.varcount)

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int)):
            return NotImplemented
        a, b = MultiPoly._pair(self, other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (MultiPoly, int)):
            return NotImplemented
        a, b = MultiPoly._pair(self, other)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exp = tuple(i + j for i, j in zip(ea, eb))
                s = out.get(exp, 0) + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return MultiPoly(out, a.varcount)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        acc = MultiPoly.const(1, self.varcount)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._pair(self, other)
        return a.terms == b.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        # Equal polynomials hash equal whatever their varcount: a constant
        # hashes as the integer it equals, and every other monomial is keyed
        # by its x, y and z exponents with trailing zero exponents dropped.
        h = object.__getattribute__(self, "_hash")
        if h is None:
            if not any(map(any, self.terms)):
                h = hash(sum(self.terms.values()))
            else:
                v = self.varcount
                h = hash(frozenset(
                    (_trimmed(exp[:v]), _trimmed(exp[v : 2 * v]), exp[-1], c)
                    for exp, c in self.terms.items()
                ))
            object.__setattr__(self, "_hash", h)
        return h

    # -- term order --------------------------------------------------------

    def _order_key(self, exp: tuple) -> tuple:
        """Graded-lex key; larger key means earlier (leading) term."""
        v = self.varcount
        xs = exp[:v]
        ys = exp[v : 2 * v]
        arranged = tuple(reversed(xs)) + tuple(reversed(ys)) + (exp[-1],)
        return (sum(exp), arranged)

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda t: self._order_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=self._order_key)
        return exp, self.terms[exp]

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def swap_xy(self) -> "MultiPoly":
        """Apply the involution x_i <-> y_i for every pair simultaneously."""
        v = self.varcount
        out = {}
        for exp, c in self.terms.items():
            out[exp[v : 2 * v] + exp[:v] + (exp[-1],)] = c
        return MultiPoly(out, v)

    def is_palindromic(self) -> bool:
        return self.terms == self.swap_xy().terms

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
        p = self.promoted(need)
        exp = [0] * _exp_len(need)
        for name, e in assignment.items():
            exp[_var_slot(name, need)] = e
        return p.terms.get(tuple(exp), 0)

    def used_variables(self) -> set[str]:
        v = self.varcount
        names = set()
        for exp in self.terms:
            for slot, e in enumerate(exp):
                if e:
                    names.add(_slot_name(slot, v))
        return names

    # -- exact division ----------------------------------------------------

    def exact_div(self, den: "MultiPoly | int") -> "MultiPoly":
        """Exact quotient self/den; raises NotDivisible on any remainder."""
        if isinstance(den, int):
            den = MultiPoly.const(den)
        num, den = MultiPoly._pair(self, den)
        if not den.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not num.terms:
            return MultiPoly.zero(num.varcount)
        dexp, dcoef = den.leading()
        quot: dict = {}
        rem = num
        while rem.terms:
            rexp, rcoef = rem.leading()
            mono = tuple(r - d for r, d in zip(rexp, dexp))
            if any(e < 0 for e in mono) or rcoef % dcoef != 0:
                raise NotDivisible(f"{num} is not divisible by {den}")
            c = rcoef // dcoef
            quot[mono] = quot.get(mono, 0) + c
            rem = rem - MultiPoly({mono: c}, num.varcount) * den
        return MultiPoly({e: c for e, c in quot.items() if c}, num.varcount)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate with values from any commutative ring (int, Fraction,
        CycInt, GaussInt, complex).  Every variable appearing with a nonzero
        exponent must be assigned, otherwise UnboundVariable is raised.
        """
        v = self.varcount
        total = 0
        for exp, coef in self.sorted_terms():
            acc = coef
            for slot, e in enumerate(exp):
                if e == 0:
                    continue
                name = _slot_name(slot, v)
                if name not in assignment:
                    raise UnboundVariable(name)
                acc = acc * (assignment[name] ** e)
            total = total + acc
        return total

    def substitute(self, mapping: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Replace variables by polynomials; unlisted variables are kept."""
        v = self.varcount
        vc = max(
            [v]
            + [p.varcount for p in mapping.values() if isinstance(p, MultiPoly)]
        )
        out = MultiPoly.zero(vc)
        for exp, coef in self.terms.items():
            term = MultiPoly.const(coef, vc)
            for slot, e in enumerate(exp):
                if e == 0:
                    continue
                name = _slot_name(slot, v)
                if name in mapping:
                    rep = mapping[name]
                    if isinstance(rep, int):
                        rep = MultiPoly.const(rep)
                    term = term * rep**e
                else:
                    term = term * _var_poly(name, vc) ** e
            out = out + term
        return out

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


# -- variable helpers -------------------------------------------------------

_VAR_RE = re.compile(r"^(x|y)(\d+)$|^z$")


def _trimmed(exps: tuple) -> tuple:
    end = len(exps)
    while end and not exps[end - 1]:
        end -= 1
    return exps[:end]


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


def xvar(i: int) -> MultiPoly:
    """The variable x_i (minimal varcount i+1)."""
    return _var_poly(f"x{i}", i + 1)


def yvar(i: int) -> MultiPoly:
    """The variable y_i (minimal varcount i+1)."""
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
    unit coefficient may be omitted.  If ``varcount`` is None the smallest
    ring containing all mentioned variables is used.
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
    while pos < len(text):
        m = _TOKEN_RE.search(text, pos)
        end = m.start() if m else len(text)
        chunk = text[pos:end].strip()
        if chunk:
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


# -- structural property report ----------------------------------------------


def poly_properties(p: MultiPoly, degree: int) -> dict:
    """Report homogeneity, palindromy and monic boundary coefficients.

    ``monic_extremes`` checks that the unique all-x monomial (no y, no z) and
    its x<->y mirror both carry coefficient 1; in the bivariate case that is
    the pair x^degree, y^degree.
    """
    v = p.varcount
    pure_x = [
        (exp, c)
        for exp, c in p.terms.items()
        if all(e == 0 for e in exp[v : 2 * v]) and exp[-1] == 0
    ]
    pure_y = [
        (exp, c)
        for exp, c in p.terms.items()
        if all(e == 0 for e in exp[:v]) and exp[-1] == 0
    ]
    monic = (
        len(pure_x) == 1
        and len(pure_y) == 1
        and pure_x[0][1] == 1
        and pure_y[0][1] == 1
    )
    return {
        "homogeneous": p.is_homogeneous(degree),
        "palindromic": p.is_palindromic(),
        "monic_extremes": monic,
    }
