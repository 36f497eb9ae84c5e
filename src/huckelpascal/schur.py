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

A step works only where T_m couples to the rest.  A kept row with no
nonzero in B has a zero row in B W C and v, and a kept column with no
nonzero in C a zero column in B W C and w, so A - P equals A outside the
coupled rows and columns, and every other row is copied as it is.  On
H_{k,n} the coupled rows (and columns) are the n - m borders of earlier
steps and the m vertices of row m-1 bonded to the block, at most n in
all.  So a step makes at most n^2 exact divisions where the dense formula
made one per entry of A: 1 331 in place of 42 779 over the eleven steps
of the 144-vertex triangle H_{0,11}.  Over MultiPoly entries the built
matrix and each step's W, null pair and S_m share one varcount, so no
product pays for a promotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import (
    NUMERIC_ELIMINATION_ROWS,
    _divider,
    _lift,
    det,
    huckel_guard,
    ring_kind,
    symbolic_division_free_guard,
)
from .matrices import BadRange, PolyMatrix, _nz, _weight, build_huckel, build_T
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

    Only the kept rows with a nonzero in the block's columns (the coupled
    rows) and the kept columns with a nonzero in its rows are touched:
    every other entry of A - P equals A's, so those rows are copied.
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

    kind = ring_kind(tail)  # the ring of s
    w_inv = invert_T(m, params).rows
    r, left = _null_pair(m, params)
    if kind == "poly":
        # one varcount, the block's as stored in M, so no product pays for
        # a promotion
        vc = max(e.varcount for e in (tail[0, n - 1], tail[n - 1, 0], s)
                 if isinstance(e, MultiPoly))
        w_inv, (r, left, [s]) = _promoted(w_inv, vc), _promoted((r, left, [s]), vc)
    divide = _divider(s, kind)
    mu = w_inv[0][0]  # constant (-1)^m; the y -> -x residue scale
    rows = M.rows
    # nonzero (t, B[i, t]) of each coupled row i, (t, C[t, j]) of each column j
    coupled = {}
    for i in range(a):
        nz = [(t, e) for t, e in enumerate(rows[i][a:]) if _nz(e)]
        if nz:
            coupled[i] = nz
    cols: dict[int, list] = {}
    for t in range(n):
        for j, e in enumerate(rows[a + t][:a]):
            if _nz(e):
                cols.setdefault(j, []).append((t, e))
    v = {i: mu * sum(e * r[t] for t, e in nz) for i, nz in coupled.items()}
    w = {j: sum(e * left[t] for t, e in nz) for j, nz in cols.items()}
    lead = next((e for e in v.values() if _nz(e)), None)
    if lead is not None and _is_negative(lead):
        v = {i: -e for i, e in v.items()}
        w = {j: -e for j, e in w.items()}
    reduced = [[s] + [w.get(j, 0) for j in range(a)]]
    for i in range(a):
        nz = coupled.get(i)
        if nz is None:
            reduced.append((0,) + rows[i][:a])
            continue
        bw = [sum(e * w_inv[t][u] for t, e in nz) for u in range(n)]
        row = list(rows[i][:a])
        for j, cj in cols.items():
            y_ij = sum(bw[u] * c for u, c in cj if _nz(bw[u]))
            num = y_ij - v[i] * w[j]
            if isinstance(num, int):
                num = _lift(num, kind)
            row[j] = row[j] - divide(num)
        reduced.append([v[i]] + row)
    return 1, PolyMatrix(reduced)


def _promoted(rows, varcount: int):
    return [
        [e.promoted(varcount) if isinstance(e, MultiPoly) else e for e in row]
        for row in rows
    ]


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
    per step, keeping the determinant exactly equal throughout; at most
    144 vertices, checked before the triangle is built."""
    if n < 1:
        raise BadRange(f"condense needs n >= 1, got {n}")
    huckel_guard(0, n, NUMERIC_ELIMINATION_ROWS, "condensation trace")
    trace = CondensationTrace()
    M = _huckel(0, n, params)
    for m in range(n, 0, -1):
        _, M = schur_det_step(M, m, params)
        trace.steps.append(CondensationStep(m=m, border=str(M[0, 0]), size=M.dim))
    trace.final = M
    return trace


def condensation_det(k: int, n: int, params=None):
    """det H_{k,n} through iterated condensation (never through a full
    Laplace/elimination pass on the big matrix).  The final size-(n+1-k)
    matrix goes to the division-free algorithm over MultiPoly entries and
    to fraction-free elimination over numbers.  Checked before anything is
    built: at most 144 vertices, and without params the division-free caps
    on n + 1 - k rows over 2(n + 1 - k) weights, so at most 8 rows."""
    huckel_guard(k, n, NUMERIC_ELIMINATION_ROWS, "condensation")
    if params is None:
        symbolic_division_free_guard(n + 1 - k, 2 * (n + 1 - k))
    return _condensed_det(_huckel(k, n, params), k, n, params)


def _condensed_det(M: PolyMatrix, k: int, n: int, params):
    """``condensation_det`` on H_{k,n} as built already (by ``_huckel``, or
    by ``build_huckel`` at a numeric point), with no guard: for a caller
    that has checked the caps and runs other routes on the same matrix."""
    stop = 0 if k == 0 else k - 1
    for m in range(n, stop, -1):
        _, M = schur_det_step(M, m, params)
    return det(M, "division-free") if ring_kind(M) == "poly" else det(M)


def _huckel(k: int, n: int, params) -> PolyMatrix:
    """H_{k,n} with every polynomial entry promoted to varcount n + 1."""
    M = build_huckel(k, n, params)
    names = (f"{c}{m}" for m in range(k, n + 1) for c in "xy")
    if any(isinstance(_weight(name, params), MultiPoly) for name in names):
        return PolyMatrix(_promoted(M.rows, n + 1))
    return M
