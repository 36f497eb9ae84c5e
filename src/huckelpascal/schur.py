"""Exact block condensation of the triangle/trapezium matrices.

The cyclic blocks T_m are invertible up to the scalar S_m = x_m + y_m:
``invert_T`` returns the polynomial matrix W = S_m * T_m^{-1} in closed
form (period-4 column patterns) and always validates it by multiplying
back.  Since det T_m = S_m (the two orientations of an odd cycle), a
Schur complement that eliminates a trailing T_m block can be re-bordered
into a matrix of the same determinant with no prefactor at all:

    det [[A, B], [C, T_m]] = det [[S_m, w^T], [v, A - P]]

where v and w come from the rank-1 residue of B T_m^{-1} C at the pole
S_m = 0 and P = (B W C - v w^T) / S_m is polynomial (the division is
performed exactly, entry by entry, and any remainder is a hard error).
The residue vectors are the null vectors of T_m at y_m = -x_m, written so
the odd entries of the right one carry y_m and of the left one x_m; with
that choice the pure matrix part of P vanishes and the next T-block
survives untouched, so the step iterates.  Iterating down the rows shrinks
a triangle matrix of size (n+1)^2 to size n+1 and a trapezium of size
(n+1)^2 - k^2 to size n+1-k, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import _exact_div, _lift, det, ring_kind, size_guard
from .matrices import BadRange, PolyMatrix, _weight, build_huckel, build_T
from .poly import MultiPoly


class BlockMismatch(ValueError):
    """The trailing block of the matrix is not the stated T_m."""


# -- closed-form block inverse ---------------------------------------------------


def invert_T(m: int, params=None) -> PolyMatrix:
    """W = (x_m + y_m) * T_m^{-1}, size 2m+1, validated by multiply-back.

    Columns follow a period-4 pattern seeded by two boundary values and
    the three-term recurrence w[i+1] = S*delta_ij - w[i-1]; the first row
    repeats (-1, y, 1, -y) for odd m and (1, y, -1, -y) for even m.
    """
    if m < 1:
        raise BadRange(f"invert_T needs m >= 1, got {m}")
    if params is None:
        return _invert_symbolic(m)
    return _invert_build(m, params)


@lru_cache(maxsize=None)
def _invert_symbolic(m: int) -> PolyMatrix:
    return _invert_build(m, None)


def _invert_build(m: int, params) -> PolyMatrix:
    n = 2 * m + 1
    x = _weight(f"x{m}", params)
    y = _weight(f"y{m}", params)
    s = x + y
    sgn = (-1) ** m
    cols = []
    for j in range(n):
        sig_e = sgn * (-1) ** ((j + 1) // 2) if j % 2 == 1 else 0
        sig_o = 0
        if j % 2 == 0 and 2 <= j <= 2 * (m - 1):
            sig_o = -sgn * (-1) ** (j // 2)
        b0 = (1 if j == 0 else 0) - y * sig_e
        b1 = (1 if j == n - 1 else 0) - sig_o
        w = [0] * n
        w[0] = sgn * b0 + b1
        w[1] = x * b0 - sgn * (y * b1)
        for i in range(1, n - 1):
            w[i + 1] = (s if i == j else 0) - w[i - 1]
        cols.append(w)
    result = PolyMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
    if build_T(m, params) * result != PolyMatrix.identity(n, one=s):
        raise ArithmeticError(f"closed-form inverse failed multiply-back at m={m}")
    return result


def _null_pair(m: int, params):
    """Right/left null vectors of T_m at y_m = -x_m, kept polynomial.

    Odd entries of the right vector carry y_m, of the left one x_m; the
    two agree modulo x_m + y_m but the mixed choice is what cancels the
    coupling residue exactly.
    """
    x = _weight(f"x{m}", params)
    y = _weight(f"y{m}", params)
    n = 2 * m + 1
    r = []
    left = []
    for t in range(n):
        if t % 2 == 0:
            r.append((-1) ** (t // 2))
            left.append((-1) ** (t // 2))
        else:
            c = (-1) ** ((t - 1) // 2 + m + 1)
            r.append(y * c)
            left.append(x * c)
    return r, left


def _is_negative(e) -> bool:
    if isinstance(e, MultiPoly):
        lead = e.leading()
        return lead is not None and lead[1] < 0
    if isinstance(e, (int, Fraction)):
        return e < 0
    return False


# -- one elimination step ------------------------------------------------------


def schur_det_step(M: PolyMatrix, m: int, params=None):
    """Eliminate a trailing T_m block, returning (prefactor, reduced).

    The prefactor is always 1: the border absorbs det T_m = S_m.  Raises
    BlockMismatch when the trailing block is not T_m with these params,
    and refuses specializations with S_m = 0 (the block is singular there).
    """
    n = 2 * m + 1
    d = M.dim
    a = d - n
    if a < 0:
        raise BlockMismatch(f"matrix of size {d} has no trailing T_{m}")
    tail = M.submatrix(range(a, d), range(a, d))
    if tail != build_T(m, params):
        raise BlockMismatch(f"trailing {n}x{n} block is not T_{m}")
    x = _weight(f"x{m}", params)
    y = _weight(f"y{m}", params)
    s = x + y
    if s == 0:
        raise ZeroDivisionError(f"x_{m} + y_{m} vanishes at this specialization")
    if a == 0:
        return 1, PolyMatrix([[s]])

    w_inv = invert_T(m, params)
    mu = w_inv[0, 0]  # constant (-1)^m; the y -> -x residue scale
    rows_a = range(a)
    cols_t = range(a, d)
    A = M.submatrix(rows_a, rows_a)
    B = M.submatrix(rows_a, cols_t)
    C = M.submatrix(cols_t, rows_a)
    Y = B * w_inv * C
    r, left = _null_pair(m, params)
    v = [mu * sum(B[i, t] * r[t] for t in range(n)) for i in range(a)]
    w = [sum(C[t, j] * left[t] for t in range(n)) for j in range(a)]
    lead = next((e for e in v if not (e == 0)), None)
    if lead is not None and _is_negative(lead):
        v = [-e for e in v]
        w = [-e for e in w]
    kind = ring_kind(tail)  # the ring of s
    reduced = [[s] + list(w)]
    for i in range(a):
        row = [v[i]]
        for j in range(a):
            num = Y[i, j] - v[i] * w[j]
            if isinstance(num, int):
                num = _lift(num, kind)
            p_ij = _exact_div(num, s, kind)
            row.append(A[i, j] - p_ij)
        reduced.append(row)
    return 1, PolyMatrix(reduced)


# -- iterated condensation ------------------------------------------------------


@dataclass(frozen=True)
class CondensationStep:
    m: int
    border: str
    size: int


@dataclass
class CondensationTrace:
    steps: list[CondensationStep] = field(default_factory=list)
    final: PolyMatrix | None = None


def condense(n: int, params=None) -> CondensationTrace:
    """Shrink the size-(n+1)^2 triangle matrix to size n+1, one block
    per step, keeping the determinant exactly equal throughout."""
    if n < 1:
        raise BadRange(f"condense needs n >= 1, got {n}")
    size_guard((n + 1) ** 2, 36, "condensation trace vertex count")
    trace = CondensationTrace()
    M = build_huckel(0, n, params)
    for m in range(n, 0, -1):
        _, M = schur_det_step(M, m, params)
        trace.steps.append(CondensationStep(m=m, border=str(M[0, 0]), size=M.dim))
    trace.final = M
    return trace


def condensation_det(k: int, n: int, params=None):
    """det H_{k,n} through iterated condensation (never through a full
    Laplace/elimination pass on the big matrix)."""
    default = 64 if params is None else 144
    size_guard((n + 1) ** 2 - k * k, default, "condensation vertex count")
    M = build_huckel(k, n, params)
    stop = 0 if k == 0 else k - 1
    for m in range(n, stop, -1):
        _, M = schur_det_step(M, m, params)
    return det(M)

