"""Exact block condensation of the triangle/trapezium matrices.

The cyclic blocks T_m are invertible up to the scalar S_m = x_m + y_m:
W = S_m * T_m^{-1} has closed-form columns 0 and 1 (period-4 patterns),
from which one row solve gives any row of W and checks it by multiplying
back; ``invert_T`` builds W row by row that way.  Since det T_m =
S_m (the two orientations of an odd cycle), a Schur complement that
eliminates a trailing T_m block can be re-bordered into a matrix of the
same determinant with no prefactor at all:

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

A step never forms W.  For each kept row b of B the same row solve gives
z = b W from z T_m = S_m b and multiplies z back through T_m by its shape
(the block was checked against the nonzeros of T_m written from x_m and
y_m), so the check proves the very product the step goes on to use.

A step works only where T_m couples to the rest.  Between steps the
matrix is a dict of sparse rows (label -> {label: nonzero entry}) and a
list of labels in position order.  They start as the rows of H that
``matrices._huckel_rows`` writes from the row geometry, every entry in
one ring, with no dense matrix built; original vertices keep their labels
and each border gets a fresh one at the front.  A kept row with no nonzero in B
has a zero row in B W C and v, and a kept column with no nonzero in C a
zero column in B W C and w, so A - P equals A outside the coupled rows
and columns.  Each coupled row is replaced by an updated copy and every
other row is left as it is, so the rows a caller passes in never change.
On H_{k,n} the coupled rows (and columns) are the n - m borders
of earlier steps and the m vertices of row m-1 bonded to the block, at
most n in all.  So a step costs O(n m) ring operations for the solves and
at most n^2 exact divisions, where the dense formula made one division
per entry of A: 1 331 in place of 42 779 over the eleven steps of the
144-vertex triangle H_{0,11}.  Over MultiPoly entries every entry, x_m
and y_m as the block stores them included, has the matrix's largest
varcount, so every product, sum and comparison takes MultiPoly's
same-varcount branch and none pays for a promotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    _det_rows,
    _divider,
    huckel_guard,
    symbolic_division_free_guard,
)
from .matrices import (
    BadRange,
    PolyMatrix,
    _dense,
    _huckel_nonzeros,
    _huckel_rows,
    _ring_rows,
    _weight,
)
from .poly import MultiPoly


class BlockMismatch(ValueError):
    """The trailing block of the matrix is not the stated T_m."""


# -- closed-form block inverse ---------------------------------------------------


def invert_T(m: int, params=None) -> PolyMatrix:
    """W = (x_m + y_m) * T_m^{-1}, size 2m+1, row i solved from e_i by
    ``_solve``: two entries from W's closed-form columns 0 and 1, the rest
    by the tridiagonal recurrence, each row checked by multiply-back."""
    if m < 1:
        raise BadRange(f"invert_T needs m >= 1, got {m}")
    x = _weight(f"x{m}", params)
    y = _weight(f"y{m}", params)
    seeds = _seeds(m, x, y)
    return PolyMatrix([_solve({i: 1}, m, x, y, seeds) for i in range(2 * m + 1)])


def _seeds(m: int, x, y) -> tuple[list, list]:
    """Columns 0 and 1 of W = (x + y) * T_m^{-1} in closed form.  With
    s = (-1)^m, column 0 repeats (s, x, -s, -x); column 1 is y, then
    repeats (s xy, x, -s xy, -x)."""
    s = (-1) ** m
    sxy = s * (x * y)
    c0, c1 = (s, x, -s, -x), (sxy, x, -sxy, -x)
    n = 2 * m + 1
    return [c0[i % 4] for i in range(n)], [y] + [c1[i % 4] for i in range(n - 1)]


def _solve(b: dict, m: int, x, y, seeds) -> list:
    """z = b W for a sparse row b ({column: entry}), from z T_m = S_m b.

    Two entries come from W's columns 0 and 1 (``seeds``), and the
    tridiagonal interior gives the rest by z[u+1] = S_m b[u] - z[u-1].
    Then z goes back through T_m, by its shape (ones beside the diagonal,
    x at (2m, 0) and y at (0, 2m)); unless every column equals S_m b the
    solve raises, and as z is the unique solution that proves it."""
    w0, w1 = seeds
    n = 2 * m + 1
    s = x + y
    sb = [0] * n
    for t, e in b.items():
        sb[t] = s * e
    z = [sum(e * w0[t] for t, e in b.items()),
         sum(e * w1[t] for t, e in b.items())]
    for u in range(1, n - 1):
        z.append(sb[u] - z[u - 1] if sb[u] else -z[u - 1])
    back = [z[1] + z[-1] * x if x else z[1]]
    back += [z[u - 1] + z[u + 1] for u in range(1, n - 1)]
    back.append(z[-2] + z[0] * y if y else z[-2])
    if back != sb:
        raise ArithmeticError(f"row solve failed multiply-back at m={m}")
    return z


def _null_pair(m: int, x, y):
    """Right/left null vectors of T_m at y_m = -x_m, kept polynomial.

    Odd entries of the right vector carry y_m, of the left one x_m; the
    two agree modulo x_m + y_m but the mixed choice is what cancels the
    coupling residue exactly.  Each repeats four values with period 4.
    """
    c = -((-1) ** m)  # the sign of the entries at t = 1
    ry, lx = y * c, x * c
    right, left = (1, ry, -1, -ry), (1, lx, -1, -lx)
    return [right[t % 4] for t in range(2 * m + 1)], [left[t % 4] for t in range(2 * m + 1)]


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

    The step runs on M's nonzero entries, lifted into one ring, and touches
    only the kept rows with a nonzero in the block's columns (the coupled
    rows) and the kept columns with a nonzero in its rows: every other
    entry of A - P equals A's.  A zero comes back as the int 0 and every
    other entry lifted, where a dense computation over CycInt or GaussInt
    would leave that ring's zero and M's ints; the two compare, and hash,
    equal.
    """
    M.dim  # raises on a non-square matrix
    rows, kind = _ring_rows(M)
    rows, pos = dict(enumerate(rows)), list(range(len(rows)))
    _condense(rows, pos, m, params, kind)
    return 1, _dense(_renumbered(rows, pos))


def _renumbered(rows: dict, pos: list) -> list[dict]:
    """The sparse matrix's rows in position order, each column renumbered
    to its position."""
    at = {label: p for p, label in enumerate(pos)}
    return [{at[j]: e for j, e in rows[label].items()} for label in pos]


def _block_nonzeros(m: int, x, y) -> list[dict]:
    """T_m's nonzeros, one {column: entry} dict per row, written by the
    geometry of H_{m,m} (which is T_m) with int 1s and x, y as given."""
    return [{j: e for j, e in row.items() if e}
            for row in _huckel_nonzeros(m, m, 1, [x], [y])]


def _condense(rows: dict, pos: list, m: int, params, kind: str) -> None:
    """One Schur step on the sparse matrix (rows, pos) over the ring
    ``kind``: the block T_m at the last 2m+1 positions is deleted and its
    border, labelled -m, goes to the front.  The dict and the list change
    in place; a row dict never does, since a coupled row is replaced."""
    n = 2 * m + 1
    a = len(pos) - n
    if a < 0:
        raise BlockMismatch(f"matrix of size {len(pos)} has no trailing T_{m}")
    block, kept = pos[a:], pos[:a]
    at = {label: t for t, label in enumerate(block)}
    in_block = at.keys()
    # each block row's entries inside the block (T_m) and outside it (C)
    inner, outer = [], []
    for label in block:
        row = rows[label]
        inner.append({at[j]: e for j, e in row.items() if j in at})
        outer.append([(j, e) for j, e in row.items() if j not in at])
    x = _weight(f"x{m}", params)
    y = _weight(f"y{m}", params)
    if inner != _block_nonzeros(m, x, y):
        raise BlockMismatch(f"trailing {n}x{n} block is not T_{m}")
    if x + y == 0:
        raise ZeroDivisionError(f"x_{m} + y_{m} vanishes at this specialization")
    border = -m
    if a == 0:
        rows.clear()
        rows[border] = {border: x + y}
        pos[:] = [border]
        return
    if m < 1:
        raise BadRange(f"a condensation step needs m >= 1, got {m}")
    # x_m and y_m as the block stores them (just matched to T_m's corners),
    # so over MultiPoly every product below shares the matrix's varcount
    x, y = inner[-1].get(0, 0), inner[0].get(n - 1, 0)
    s = x + y
    divide = _divider(s, kind)
    seeds = _seeds(m, x, y)
    mu = seeds[0][0]  # constant (-1)^m; the y -> -x residue scale
    r, left = _null_pair(m, x, y)
    w: dict = {}
    for t, entries in enumerate(outer):
        for j, e in entries:
            w[j] = w[j] + e * left[t] if j in w else e * left[t]
    v = {}  # nonzero v in position order
    for i in kept:
        if rows[i].keys().isdisjoint(in_block):
            continue
        # the coupled row is replaced by an updated copy, never changed
        b = {at[j]: e for j, e in rows[i].items() if j in at}
        row = rows[i] = {j: e for j, e in rows[i].items() if j not in at}
        z = _solve(b, m, x, y, seeds)
        vi = mu * sum(e * r[t] for t, e in b.items())
        # numerators of P's row: (b W) C - v_i w; the sign rule below flips
        # v and w together, so it leaves v_i w_j alone
        num = {}
        for zu, entries in zip(z, outer):
            if zu:
                for j, c in entries:
                    p = zu if c == 1 else zu * c
                    num[j] = num[j] + p if j in num else p
        if vi:
            for j, wj in w.items():
                num[j] = num[j] - vi * wj if j in num else -(vi * wj)
            v[i] = vi
        for j, q in num.items():
            e = row.get(j, 0) - divide(q)
            if e:
                row[j] = e
            else:
                row.pop(j, None)
    lead = next(iter(v.values()), None)
    if lead is not None and _is_negative(lead):
        v = {i: -e for i, e in v.items()}
        w = {j: -e for j, e in w.items()}
    for i, e in v.items():
        rows[i][border] = e
    for label in block:
        del rows[label]
    rows[border] = {border: s}
    rows[border].update((j, e) for j, e in w.items() if e)
    pos[:] = [border] + kept


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
    entries = "symbolic" if params is None else "numeric"
    huckel_guard(0, n, "fraction-free-elimination", entries, "condensation trace")
    (rows, _), steps = _condensation(_huckel_rows(0, n, params), 0, n, params)
    return CondensationTrace(
        steps=[CondensationStep(m=m, border=str(b), size=size) for m, b, size in steps],
        final=_dense(rows),
    )


def condensation_det(k: int, n: int, params=None):
    """det H_{k,n} through iterated condensation (never through a full
    Laplace/elimination pass on the big matrix).  The final size-(n+1-k)
    matrix goes to the division-free algorithm over MultiPoly entries and
    to fraction-free elimination over numbers.  Checked before anything is
    built: at most 144 vertices, and without params the division-free caps
    on n + 1 - k rows over 2(n + 1 - k) weights, so at most 8 rows."""
    entries = "symbolic" if params is None else "numeric"
    huckel_guard(k, n, "fraction-free-elimination", entries, "condensation")
    if params is None:
        symbolic_division_free_guard(n + 1 - k, 2 * (n + 1 - k))
    return _condensed_det(_huckel_rows(k, n, params), k, n, params)


def _condensed_det(h: tuple[list[dict], str], k: int, n: int, params):
    """``condensation_det`` on the rows of H_{k,n} as ``_huckel_rows``
    built them, with no guard: for a caller that has checked the caps.
    The n + 1 - k rows condensation leaves go straight to the determinant
    on rows: division-free over MultiPoly entries, fraction-free
    elimination over numbers."""
    condensed, _ = _condensation(h, k, n, params)
    return _det_rows(condensed, "division-free") if h[1] == "poly" else _det_rows(condensed)


def _condensation(h: tuple[list[dict], str], k: int, n: int, params):
    """Condense the rows of H_{k,n}, as ``_huckel_rows`` built them, by the
    blocks T_n, ..., T_max(k, 1), one step each.  Returns the
    n + 1 - k rows left, numbered 0..n-k in position order, with their
    ring, and each step's (m, border entry S_m, size after it)."""
    rows, kind = h
    rows, pos = dict(enumerate(rows)), list(range(len(rows)))
    steps = []
    for m in range(n, max(k - 1, 0), -1):
        _condense(rows, pos, m, params, kind)
        steps.append((m, rows[pos[0]][pos[0]], len(pos)))
    return (_renumbered(rows, pos), kind), steps
