"""Closed-form counting products and predicted determinant values.

Two product sequences drive everything: A(n), the alternating-sign-matrix
/ descending-plane-partition counts (1, 2, 7, 42, 429, ...), and AHT(n),
the half-turn-symmetric counterpart (1, 2, 3, 10, 25, 140, 588, ...).
``predicted_det`` packages the determinant values these sequences imply
for the symmetric Pascal matrix Q_n shifted by a root of unity - and,
equivalently, for the triangle matrix H_n evaluated on the unit circle -
as exact elements of Z[zeta_12].  The pi/4 shift leaves that ring, so it
is handled separately over the Gaussian integers with an explicit sqrt(2)
bookkeeping, together with the asymptotic ratio it is known to approach.

All products are computed in exact rational arithmetic and integrality is
asserted rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cyclotomic import CycInt, GaussInt, RadicalValue
from .linalg import det
from .matrices import BadRange, PolyMatrix, build_pascal

PREDICTED_CASES = (
    "theta0",
    "thetaPi6",
    "thetaPi3",
    "thetaPi2",
    "andrewsQI",
    "ciucuMinusI",
    "ciucuOmega3",
    "ciucuOmega6",
)

# leading terms of the asymptotic bracket for the i-shifted determinant
MITRA_CONSTANT = 0.81099753
_MITRA_C3 = -0.028861
_MITRA_C4 = 0.021012


class CaseMismatch(ValueError):
    """Unknown predicted-determinant case label."""


class BadParity(ValueError):
    """The i-shifted asymptotics need an even dimension."""


def _int_product(factors) -> int:
    total = Fraction(1)
    for f in factors:
        total *= f
    if total.denominator != 1:
        raise ArithmeticError(f"product {total} is not an integer")
    return int(total)


@lru_cache(maxsize=None)
def formula_A(n: int) -> int:
    """Alternating-sign-matrix counts: prod_{k<n} (3k+1)!/(n+k)!."""
    if n < 0:
        raise BadRange("n must be >= 0")
    return _int_product(
        Fraction(factorial(3 * k + 1), factorial(n + k)) for k in range(n)
    )


@lru_cache(maxsize=None)
def formula_AHT(n: int) -> int:
    """Half-turn symmetric counts; even case is a clean product, odd case
    hangs one extra factor onto the even one below it."""
    if n < 0:
        raise BadRange("n must be >= 0")
    half, odd = divmod(n, 2)
    even = _int_product(
        Fraction(
            factorial(3 * k) * factorial(3 * k + 2), factorial(half + k) ** 2
        )
        for k in range(half)
    )
    if not odd:
        return even
    extra = Fraction(
        factorial(half) * factorial(3 * half), factorial(2 * half) ** 2
    )
    return _int_product([even, extra])


@lru_cache(maxsize=None)
def _superfactorial(k: int) -> int:
    out = 1
    for j in range(1, k):
        out *= factorial(j)
    return out


def formula_macmahon(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box,
    H(a)H(b)H(c)H(a+b+c) / (H(a+b)H(a+c)H(b+c)) with H the superfactorial."""
    if min(a, b, c) < 0:
        raise BadRange("box sides must be >= 0")
    h = _superfactorial
    return _int_product(
        [
            Fraction(h(a) * h(b), h(a + b)),
            Fraction(h(c) * h(a + b + c), h(a + c) * h(b + c)),
        ]
    )


def eq5_identity(n: int) -> Fraction:
    """prod_{k=0}^{n} k!(n+k+1)! / ((2k)!(2k+1)!); identically 1."""
    total = Fraction(1)
    for k in range(n + 1):
        total *= Fraction(
            factorial(k) * factorial(n + k + 1),
            factorial(2 * k) * factorial(2 * k + 1),
        )
    return total


def unit_shift_det(n: int) -> int:
    """det(Q_n + I) as the quotient-of-factorials product."""
    return _int_product(
        Fraction(factorial(k) * factorial(3 * k + 2), 3 * k + 1)
        / (factorial(2 * k) * factorial(2 * k + 1))
        for k in range(n + 1)
    )


def unit_shift_det_asm(n: int) -> int:
    """det(Q_n + I) again, through the ASM counts:
    A(n+1) * prod (3k+2)/(3k+1)."""
    return _int_product(
        [Fraction(formula_A(n + 1))]
        + [Fraction(3 * k + 2, 3 * k + 1) for k in range(n + 1)]
    )


def predicted_det(case: str, n: int) -> CycInt:
    """Predicted exact determinant in Z[zeta_12].

    theta* cases give det H_n(theta) (real, nonnegative); the remaining
    cases give the shifted Pascal determinants det(Q_n + omega I), phases
    included.
    """
    if n < 0:
        raise BadRange("n must be >= 0")
    if case == "theta0" or case == "andrewsQI":
        return CycInt(unit_shift_det_asm(n))
    if case == "thetaPi3":
        return CycInt(formula_A(n + 1))
    if case == "thetaPi6":
        square = formula_AHT(n + 1) ** 2
        if n % 2 == 1:
            return CycInt(square)
        return CycInt.sqrt3() * square
    if case == "thetaPi2":
        if n % 2 == 0:
            return CycInt(0)
        return CycInt(formula_A((n - 1) // 2 + 1) ** 4)
    if case == "ciucuMinusI":
        if n % 2 == 0:
            return CycInt(0)
        m = (n - 1) // 2
        return CycInt((-1) ** (m + 1) * formula_A(m + 1) ** 4)
    if case == "ciucuOmega3":
        return CycInt.zeta(2 * (n + 1)) * formula_A(n + 1)
    if case == "ciucuOmega6":
        base = CycInt.zeta(n + 1) * formula_AHT(n + 1) ** 2
        if n % 2 == 0:
            base = base * CycInt.sqrt3()
        return base
    raise CaseMismatch(f"unknown case {case!r}; choose from {PREDICTED_CASES}")


# -- the pi/4 (Gaussian) column --------------------------------------------------


def _gauss_shifted_pascal(n: int) -> PolyMatrix:
    q = build_pascal("symmetric", n)
    i = GaussInt(0, 1)
    return PolyMatrix(
        [
            [GaussInt(q[r, c]) + (i if r == c else 0) for c in range(n + 1)]
            for r in range(n + 1)
        ]
    )


def pi4_magnitude(n: int) -> RadicalValue:
    """|det H_n(pi/4)| exactly, as an integer or an integer times sqrt 2.

    det(Q_n + i I) lies in Z[i]; multiplying by (1-i)^(n+1) strips the
    phase e^{-i(n+1)pi/4} (up to the real factor sqrt(2)^(n+1)), which
    must leave a plain integer behind - asserted, not assumed.
    """
    d = det(_gauss_shifted_pascal(n))
    va = d * (GaussInt(1, -1)) ** (n + 1)
    if va.im != 0:
        raise ArithmeticError(f"phase stripping failed at n={n}: {va}")
    v = va.re
    if (n + 1) % 2 == 0:
        return RadicalValue(_exact_shift(v, (n + 1) // 2), 1)
    return RadicalValue(_exact_shift(v, (n + 2) // 2), 2)


def _exact_shift(v: int, halves: int) -> int:
    q, r = divmod(v, 2**halves)
    if r:
        raise ArithmeticError(f"{v} not divisible by 2^{halves}")
    return q


def mitra_ratio(L: int) -> float:
    """Rescaled i-shifted Pascal determinant det(Q_{L-1} + i I_L).

    Strips the i^{L/2} phase exactly, divides by AHT(L)^2 in exact
    rational arithmetic, and returns the float ratio times L^{5/48};
    the sequence approaches MITRA_CONSTANT from its asymptotic series.
    """
    if L % 2 != 0:
        raise BadParity(f"need even L, got {L}")
    if not 4 <= L <= 20:
        raise BadRange(f"L must be in [4, 20], got {L}")
    d = det(_gauss_shifted_pascal(L - 1))
    r = d * GaussInt(0, -1) ** (L // 2)
    if r.im != 0 or r.re <= 0:
        raise ArithmeticError(f"phase stripping failed at L={L}: {r}")
    return float(Fraction(r.re, formula_AHT(L) ** 2)) * L ** (5 / 48)


def mitra_estimate(L: int) -> float:
    """Three-term asymptotic value of |det(Q_{L-1} + i I_L)|."""
    if L % 2 != 0:
        raise BadParity(f"need even L, got {L}")
    bracket = MITRA_CONSTANT + _MITRA_C3 * L**-1.5 + _MITRA_C4 * L**-2
    return L ** (-5 / 48) * formula_AHT(L) ** 2 * bracket


# -- table assembly ---------------------------------------------------------------


def theta_table_row(n: int) -> dict:
    """One row of predicted unit-circle determinant values for H_n."""
    pi6 = predicted_det("thetaPi6", n)
    row = {
        "n": n,
        "theta0": predicted_det("theta0", n).as_int(),
        "thetaPi6": RadicalValue.from_cyc(pi6),
        "thetaPi4": pi4_magnitude(n),
        "thetaPi3": predicted_det("thetaPi3", n).as_int(),
        "thetaPi2": predicted_det("thetaPi2", n).as_int(),
        "asm": formula_A(n + 1),
    }
    row["mitra"] = mitra_estimate(n + 1) if (n + 1) % 2 == 0 else None
    return row


def theta_table(max_n: int) -> list[dict]:
    """Rows n = 2..max_n in ascending order, computed largest first so that
    the elimination guard trips before any smaller row is computed."""
    return [theta_table_row(n) for n in range(max_n, 1, -1)][::-1]
