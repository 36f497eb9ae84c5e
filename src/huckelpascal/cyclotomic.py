"""Exact arithmetic in Z[zeta_12] and Z[i].

``CycInt`` stores an element of the 12th cyclotomic ring on the power basis
(1, z, z^2, z^3) with z = exp(i*pi/6), using the minimal polynomial
z^4 = z^2 - 1.  This ring contains every value the boundary weights take at
the angles 0, pi/6, pi/3, pi/2 (via x = z^-s, y = z^s) together with
sqrt(3) = 2z - z^3, i = z^3, and the primitive roots omega_3 = z^4 and
omega_6 = z^2.  Each Galois map z -> z^k is linear on that basis: it reads
the images of z, z^2, z^3 from a table built once from ``CycInt.zeta``.

``GaussInt`` is the analogous two-coordinate ring Z[i], used where the angle
pi/4 leaves Z[zeta_12].

Both rings divide through one lattice divider, ``_lattice_divider(b, aux,
norm)``: each ring's ``divider`` supplies only its own ``aux`` (the product
of the three other Galois conjugates in Z[zeta_12], the complex conjugate in
Z[i]) and the integer norm b * aux, once per divisor, and gets the division
as a function of the dividend; ``exact_div`` is that function applied once.
The divider checks b * aux == norm != 0 once, when it is built, and then
divides a by multiplying with ``aux`` and dividing coordinate by coordinate
by the norm: a * aux = norm * q and b * aux = norm give q * b = a, so the
quotient needs no multiply-back, and a wrong conjugate fails when the
divider is built, never returning a wrong quotient.  A unit (norm 1) divides
every element, so its division is multiplication by ``aux``, its inverse.

The public constructors coerce each coordinate with ``int()``; ring
operations build their results through the unchecked ``_of``, and take a
plain ``int`` operand as it is.
"""

from __future__ import annotations

import cmath
import operator
from functools import partial

from .poly import NotDivisible, _power

_HALF_PI6 = cmath.exp(1j * cmath.pi / 6)


def _lattice_divider(b, aux, norm: int):
    """Exact division by ``b`` as a function of the dividend, where
    b * aux = norm, a nonzero integer, checked here once (NotDivisible
    otherwise).  A unit (norm 1) divides by multiplying with ``aux``, its
    inverse.  Any other divisor multiplies by ``aux`` and divides coordinate
    by coordinate by the norm, raising NotDivisible on a non-multiple; as
    a * aux = norm * q and b * aux = norm, the quotient q multiplies back
    to a by the check made here."""
    if not norm or b * aux != norm:
        raise NotDivisible(f"{b!r} * {aux!r} is not the norm {norm}")
    if norm == 1:
        return partial(operator.mul, aux)
    divide_coords = type(b)._divide_coords

    def div(a):
        q = divide_coords(a * aux, norm)
        if q is None:
            raise NotDivisible(f"{a!r} not divisible by {b!r}")
        return q

    return div


def _lattice_exact_div(a, b):
    """Exact quotient a / b in a's ring, b an element of it or an int;
    raises NotDivisible otherwise."""
    cls = type(a)
    if isinstance(b, int):
        b = cls(b)
    elif not isinstance(b, cls):
        raise TypeError(f"cannot coerce {type(b).__name__} to {cls.__name__}")
    return b.divider()(a)


def _lattice_power(x, k: int):
    """x ** k in CycInt or GaussInt; for k < 0 the exact inverse of
    x ** -k, which raises NotDivisible unless x is a unit."""
    one = type(x)(1)
    if k < 0:
        return one.exact_div(x ** (-k))
    return _power(x, k, one)


class CycInt:
    """An element a0 + a1*z + a2*z^2 + a3*z^3 of Z[zeta_12]."""

    __slots__ = ("coords",)

    def __init__(self, a0: int, a1: int = 0, a2: int = 0, a3: int = 0):
        object.__setattr__(self, "coords", (int(a0), int(a1), int(a2), int(a3)))

    @staticmethod
    def _of(coords: tuple) -> "CycInt":
        """Wrap a tuple of four ints, unchecked."""
        c = _new(CycInt)
        _set_coords(c, coords)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeta(k: int) -> "CycInt":
        """z^k for any integer k (reduced mod 12)."""
        k %= 12
        acc = CycInt(1)
        for _ in range(k):
            acc = acc._times_zeta()
        return acc

    @staticmethod
    def sqrt3() -> "CycInt":
        return CycInt(0, 2, 0, -1)

    @staticmethod
    def omega3() -> "CycInt":
        """Primitive cube root of unity exp(2*pi*i/3)."""
        return CycInt.zeta(4)

    @staticmethod
    def omega6() -> "CycInt":
        """Primitive sixth root of unity exp(pi*i/3)."""
        return CycInt.zeta(2)

    def _times_zeta(self) -> "CycInt":
        a0, a1, a2, a3 = self.coords
        # shift up one power, folding z^4 = z^2 - 1
        return CycInt._of((-a3, a0, a1 + a3, a2))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        a0, a1, a2, a3 = self.coords
        if isinstance(other, CycInt):
            b0, b1, b2, b3 = other.coords
            return CycInt._of((a0 + b0, a1 + b1, a2 + b2, a3 + b3))
        if isinstance(other, int):
            return CycInt._of((a0 + other, a1, a2, a3))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.coords
        return CycInt._of((-a0, -a1, -a2, -a3))

    def __sub__(self, other):
        a0, a1, a2, a3 = self.coords
        if isinstance(other, CycInt):
            b0, b1, b2, b3 = other.coords
            return CycInt._of((a0 - b0, a1 - b1, a2 - b2, a3 - b3))
        if isinstance(other, int):
            return CycInt._of((a0 - other, a1, a2, a3))
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        a0, a1, a2, a3 = self.coords
        return CycInt._of((other - a0, -a1, -a2, -a3))

    def __mul__(self, other):
        a0, a1, a2, a3 = self.coords
        if isinstance(other, CycInt):
            b0, b1, b2, b3 = other.coords
        elif isinstance(other, int):
            return CycInt._of((a0 * other, a1 * other, a2 * other, a3 * other))
        else:
            return NotImplemented
        # the coefficients of z^4, z^5, z^6 in the 4x4 convolution, folded by
        # z^4 = z^2 - 1, z^5 = z^3 - z, z^6 = -1
        c4 = a1 * b3 + a2 * b2 + a3 * b1
        c5 = a2 * b3 + a3 * b2
        return CycInt._of((
            a0 * b0 - c4 - a3 * b3,
            a0 * b1 + a1 * b0 - c5,
            a0 * b2 + a1 * b1 + a2 * b0 + c4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + c5,
        ))

    __rmul__ = __mul__

    __pow__ = _lattice_power

    def __eq__(self, other):
        if isinstance(other, CycInt):
            return self.coords == other.coords
        if isinstance(other, int):
            return self.coords == (other, 0, 0, 0)
        return NotImplemented

    def __bool__(self):
        return any(self.coords)

    def __hash__(self):  # a rational integer hashes as the int it equals
        return hash(self.coords[0]) if not any(self.coords[1:]) else hash(("CycInt", self.coords))

    def __repr__(self):
        return f"CycInt{self.coords}"

    # -- Galois theory and division ---------------------------------------------

    def galois(self, k: int) -> "CycInt":
        """Apply the automorphism z -> z^k, k coprime to 12 (1, 5, 7, 11)."""
        images = _GALOIS.get(k % 12)
        if images is None:
            raise ValueError("k must be a unit mod 12")
        a0, a1, a2, a3 = self.coords
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3) = images
        return CycInt._of((
            a0 + a1 * p0 + a2 * q0 + a3 * r0,
            a1 * p1 + a2 * q1 + a3 * r1,
            a1 * p2 + a2 * q2 + a3 * r2,
            a1 * p3 + a2 * q3 + a3 * r3,
        ))

    def conjugate(self) -> "CycInt":
        """Complex conjugation, the automorphism z -> z^-1."""
        return self.galois(11)

    def _other_conjugates(self) -> "CycInt":
        """The product of the three Galois conjugates other than self."""
        return self.galois(5) * self.galois(7) * self.galois(11)

    def norm(self) -> int:
        """Field norm: product over all four Galois conjugates, in Z."""
        a0, a1, a2, a3 = (self * self._other_conjugates()).coords
        if (a1, a2, a3) != (0, 0, 0):
            raise ArithmeticError("norm did not land in Z (internal error)")
        return a0

    exact_div = _lattice_exact_div

    def divider(self):
        """Exact division by this element, as a function of the dividend,
        through ``_lattice_divider`` with the product of the three other
        Galois conjugates and the norm, computed here once; z^k and
        2 + sqrt(3) are units.  Zero raises ZeroDivisionError."""
        if not self:
            raise ZeroDivisionError("division by zero in Z[zeta_12]")
        aux = self._other_conjugates()
        return _lattice_divider(self, aux, (self * aux).coords[0])

    def _divide_coords(self, n: int):
        """self / n coordinate by coordinate, or None unless n divides each."""
        t0, t1, t2, t3 = self.coords
        if t0 % n or t1 % n or t2 % n or t3 % n:
            return None
        return CycInt._of((t0 // n, t1 // n, t2 // n, t3 // n))

    # -- structure ----------------------------------------------------------------

    def is_rational_int(self) -> bool:
        return self.coords[1:] == (0, 0, 0)

    def as_int(self) -> int:
        if not self.is_rational_int():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coords[0]

    def is_real(self) -> bool:
        a0, a1, a2, a3 = self.coords
        return a2 == 0 and a1 == -2 * a3

    def as_real_pair(self) -> tuple[int, int]:
        """Write a real element as (a, b) meaning a + b*sqrt(3)."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        a0, _, _, a3 = self.coords
        return (a0, -a3)

    def to_complex(self) -> complex:
        a0, a1, a2, a3 = self.coords
        return a0 + a1 * _HALF_PI6 + a2 * _HALF_PI6**2 + a3 * _HALF_PI6**3


_new = object.__new__
_set_coords = CycInt.coords.__set__

# the images of z, z^2, z^3 under z -> z^k, by unit k mod 12: the Galois
# action as a linear map on the power basis
_GALOIS = {k: tuple(CycInt.zeta(k * i).coords for i in (1, 2, 3)) for k in (1, 5, 7, 11)}


def theta_point(s: int) -> tuple[CycInt, CycInt]:
    """Boundary weights (x, y) = (z^-s, z^s) at the angle theta = s*pi/6."""
    return CycInt.zeta(-s), CycInt.zeta(s)


class GaussInt:
    """A Gaussian integer re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        object.__setattr__(self, "re", int(re))
        object.__setattr__(self, "im", int(im))

    @staticmethod
    def _of(re: int, im: int) -> "GaussInt":
        """Wrap two ints, unchecked."""
        g = _new(GaussInt)
        _set_re(g, re)
        _set_im(g, im)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("GaussInt is immutable")

    def __add__(self, other):
        if isinstance(other, GaussInt):
            return GaussInt._of(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return GaussInt._of(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussInt._of(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussInt):
            return GaussInt._of(self.re - other.re, self.im - other.im)
        if isinstance(other, int):
            return GaussInt._of(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return GaussInt._of(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussInt):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussInt._of(a * c - b * d, a * d + b * c)
        if isinstance(other, int):
            return GaussInt._of(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    __pow__ = _lattice_power

    def __eq__(self, other):
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.re == other and self.im == 0
        return NotImplemented

    def __bool__(self):
        return bool(self.re or self.im)

    def __hash__(self):  # a rational integer hashes as the int it equals
        return hash(self.re) if not self.im else hash(("GaussInt", self.re, self.im))

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"

    def conjugate(self) -> "GaussInt":
        return GaussInt._of(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    exact_div = _lattice_exact_div

    def divider(self):
        """Exact division by this element, as a function of the dividend,
        through ``_lattice_divider`` with the conjugate and the norm,
        computed here once.  The units are ±1 and ±i.  Zero raises
        ZeroDivisionError."""
        if not self:
            raise ZeroDivisionError("division by zero in Z[i]")
        return _lattice_divider(self, self.conjugate(), self.norm())

    def _divide_coords(self, n: int):
        """self / n coordinate by coordinate, or None unless n divides each."""
        re, im = self.re, self.im
        if re % n or im % n:
            return None
        return GaussInt._of(re // n, im // n)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


_set_re = GaussInt.re.__set__
_set_im = GaussInt.im.__set__


class RadicalValue:
    """A number a*sqrt(r) with integer a and squarefree r in {1, 2, 3}.

    This is the shape every angle-table entry takes; keeping the radical
    symbolic lets the tables stay exact end to end.
    """

    __slots__ = ("scale", "radical")

    def __init__(self, scale: int, radical: int = 1):
        if radical not in (1, 2, 3):
            raise ValueError("radical must be 1, 2 or 3")
        if scale == 0:
            radical = 1
        object.__setattr__(self, "scale", int(scale))
        object.__setattr__(self, "radical", int(radical))

    def __setattr__(self, name, value):
        raise AttributeError("RadicalValue is immutable")

    def __eq__(self, other):
        if not isinstance(other, RadicalValue):
            return NotImplemented
        return (self.scale, self.radical) == (other.scale, other.radical)

    def __hash__(self):
        return hash(("RadicalValue", self.scale, self.radical))

    def __float__(self):
        return self.scale * self.radical**0.5

    def __repr__(self):
        return f"RadicalValue({self.scale}, {self.radical})"

    def __str__(self):
        if self.radical == 1:
            return str(self.scale)
        return f"{self.scale}*sqrt({self.radical})"

    @staticmethod
    def from_cyc(v: CycInt) -> "RadicalValue":
        """Classify a real cyclotomic value as n or n*sqrt(3)."""
        a, b = v.as_real_pair()
        if a and b:
            raise ValueError(f"{v!r} is not of the form n or n*sqrt(3)")
        return RadicalValue(b, 3) if b else RadicalValue(a, 1)
