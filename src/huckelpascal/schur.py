"""Exact block condensation of the triangle/trapezium matrices.

The cyclic blocks T_m are invertible up to the scalar S_m = x_m + y_m:
W = S_m * T_m^{-1} has closed-form columns 0 and 1 (period-4 patterns),
from which one checked row solve gives the q with q T_m = b whenever
b W / S_m is polynomial; ``invert_T`` builds W row by row from
b = S_m e_i.  Since det T_m = S_m (the two orientations of an odd
cycle), a Schur complement that eliminates a trailing T_m block can be
re-bordered into a matrix of the same determinant with no prefactor:

    det [[A, B], [C, T_m]] = det [[S_m, w^T], [v, A - P]]

where v and w come from the rank-1 residue of B T_m^{-1} C at the pole
S_m = 0 and P = (B W C - v w^T) / S_m.  The border row is w = l C with
l = row 2m of W, so l T_m = S_m e_2m^T and B W C - v w^T =
(B - v e_2m^T) W C.  And v_i = mu (b . r), with r the right null vector
of T_m at y_m = -x_m (odd entries carrying y_m) and mu = (-1)^m, so
mu r_2m = 1 and b' = b - v_i e_2m has b' W = 0 at y_m = -x_m.  So P's
row is q C with q T_m = b', q polynomial: the two seeds of its solve,
(b' . w0) / S_m and (b' . w1) / S_m with w0, w1 W's columns 0 and 1, are
the step's only exact divisions (a remainder is a hard error), and no
numerator of P is formed.  With that choice of r the pure matrix part of
P vanishes and the next T-block survives untouched, so the step
iterates, shrinking a triangle matrix of size (n+1)^2 to size n+1 and a
trapezium of size (n+1)^2 - k^2 to size n+1-k, exactly.

A step never forms W.  From the two seeds the tridiagonal recurrence
gives the interior of q and so makes the interior equations of
q T_m = b' hold, and the two corner equations are checked by T_m's shape
(the block was checked against the nonzeros of T_m written from x_m and
y_m).  l comes from the same solve with b = S_m e_2m, whose seeds are
entries 2m of w0 and w1, so no border entry rests on an unchecked vector:
a wrong v makes a seed division fail, and any v keeps the determinant
once l is right.

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
most n in all, and q C runs over q's nonzero entries only.  On the
144-vertex triangle H_{0,11} at a seeded integer point the eleven steps
divide 117 times, where dividing P's nonzero numerators took 430 of
1 287 coupled pairs; on symbolic H_{3,7} 32 times (56 of 212 pairs); on
symbolic H_{0,30} they form 40 455 products (188 850 numerator products).
Over MultiPoly entries every entry, x_m and y_m as the block stores them
included, has the matrix's largest varcount, so no operation pays for a
promotion; and minus each entry of q C is summed term by term into one
dict through the product loop ``poly._products``, then wrapped once.
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
from .poly import MultiPoly, _products


class BlockMismatch(ValueError):
    """The trailing block of the matrix is not the stated T_m."""


# -- closed-form block inverse ---------------------------------------------------


def invert_T(m: int, params=None) -> PolyMatrix:
    """W = (x_m + y_m) * T_m^{-1}, size 2m+1: row i is the q with
    q T_m = S_m e_i, from the one row solve ``_solve`` seeded by W's
    closed-form columns 0 and 1, so every row is checked by its two corner
    equations."""
    if m < 1:
        raise BadRange(f"invert_T needs m >= 1, got {m}")
    x = _weight(f"x{m}", params)
    y = _weight(f"y{m}", params)
    s, (w0, w1) = x + y, _seeds(m, x, y)
    return PolyMatrix([_solve({i: s}, [w0[i], w1[i]], m, x, y) for i in range(2 * m + 1)])


def _seeds(m: int, x, y) -> tuple[list, list]:
    """Columns 0 and 1 of W = (x + y) * T_m^{-1} in closed form.  With
    s = (-1)^m, column 0 repeats (s, x, -s, -x); column 1 is y, then
    repeats (s xy, x, -s xy, -x)."""
    s = (-1) ** m
    sxy = s * (x * y)
    c0, c1 = (s, x, -s, -x), (sxy, x, -sxy, -x)
    n = 2 * m + 1
    return [c0[i % 4] for i in range(n)], [y] + [c1[i % 4] for i in range(n - 1)]


def _solve(b: dict, q: list, m: int, x, y) -> list:
    """The q with q T_m = b for a sparse row b ({column: entry}), that is
    q = b W / S_m, from its first two entries ``q`` (extended in place):
    (b . w0) / S_m and (b . w1) / S_m with w0, w1 the columns 0 and 1 of W,
    which a caller divides exactly, or for b = S_m e_i entries i of w0, w1.

    The tridiagonal interior gives the rest by q[u+1] = b[u] - q[u-1],
    which makes equations 1..2m-1 of q T_m = b hold.  So the checks are the
    seed divisions and the two corner equations, by T_m's shape (x at
    (2m, 0), y at (0, 2m)); unless both hold the solve raises, and as T_m
    is invertible (S_m != 0) that proves q."""
    n = 2 * m + 1
    bl = [0] * n
    for t, e in b.items():
        bl[t] = e
    for u in range(1, n - 1):
        if bl[u]:
            q.append(bl[u] - q[u - 1])
        elif u >= 3 and not bl[u - 2]:
            q.append(q[u - 3])  # q[u+1] = -q[u-1] = q[u-3]
        else:
            q.append(-q[u - 1])
    if q[1] + q[-1] * x != bl[0] or q[-2] + q[0] * y != bl[-1]:
        raise ArithmeticError(f"row solve failed multiply-back at m={m}")
    return q


def _null_vector(m: int, y) -> list:
    """The right null vector r of T_m at y_m = -x_m, kept polynomial: its
    odd entries carry y_m, and it repeats four values with period 4.  The
    residue of a coupled row b is v = mu (b . r), with mu = (-1)^m the
    constant W[0, 0], so that mu r[2m] = 1."""
    ry = y * -((-1) ** m)  # the entry at t = 1
    right = (1, ry, -1, -ry)
    return [right[t % 4] for t in range(2 * m + 1)]


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
    r = _null_vector(m, y)
    # the border row w is row 2m of W times C, that row solved and checked
    # like any other
    left = _solve({n - 1: s}, [col[-1] for col in seeds], m, x, y)
    w: dict = {}
    for t, entries in enumerate(outer):
        for j, e in entries:
            w[j] = w[j] + e * left[t] if j in w else e * left[t]
    w = {j: e for j, e in w.items() if e}
    varcount = s.varcount if kind == "poly" else None
    v = {}  # nonzero v in position order
    for i in kept:
        if rows[i].keys().isdisjoint(in_block):
            continue
        # the coupled row is replaced by an updated copy, never changed
        b = {at[j]: e for j, e in rows[i].items() if j in at}
        row = rows[i] = {j: e for j, e in rows[i].items() if j not in at}
        vi = mu * sum(e * r[t] for t, e in b.items())
        if vi:
            v[i] = vi
            b[n - 1] = b[n - 1] - vi if n - 1 in b else -vi
        # P's row is q C with q T_m = b - v_i e_2m, as (B W C - v w^T) / S_m
        # = (B - v e_2m^T) W C / S_m; the sign rule below flips v and w
        # together, so it leaves P alone.  A zero entry of q C leaves A's
        # entry as it is.  Over MultiPoly minus q C is summed in place; the
        # other rings keep their direct sums.
        q = [sum(e * col[t] for t, e in b.items()) for col in seeds]
        q = _solve(b, [divide(e) if e else e for e in q], m, x, y)
        if varcount is None:
            new = ((j, row.get(j, 0) - p) for j, p in _times_C(q, outer).items() if p)
        else:
            new = ((j, row.get(j, 0) + MultiPoly._of(t, varcount))
                   for j, t in _less_times_C(q, outer, varcount).items() if t)
        for j, e in new:
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
    rows[border].update(w)
    pos[:] = [border] + kept


def _times_C(q: list, outer: list) -> dict:
    """A coupled row of P, q C, by column, over q's nonzero entries: each
    product summed into the column's value."""
    out = {}
    for qu, entries in zip(q, outer):
        if qu:
            for j, c in entries:
                p = qu if c == 1 else qu * c
                out[j] = out[j] + p if j in out else p
    return out


def _less_times_C(q: list, outer: list, varcount: int) -> dict:
    """``_times_C`` negated over MultiPoly, as one dict of terms per
    column: each product is subtracted into it in place through the one
    product loop (``poly._products``), so no product or partial sum is
    built as a polynomial of its own."""
    out: dict = {}
    for qu, entries in zip(q, outer):
        if qu:
            at = qu.terms
            for j, c in entries:
                acc = out.get(j)
                if acc is None:
                    acc = out[j] = {}
                _products(at, c.terms, varcount, acc)
    return out


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
    matrix goes to fraction-free elimination over numbers and, for
    independence from the walk, not speed, to division-free over MultiPoly
    entries.  Checked before anything is built: at most 144 vertices, and
    without params the division-free caps on n + 1 - k rows over
    2(n + 1 - k) weights, so at most 8 rows."""
    entries = "symbolic" if params is None else "numeric"
    huckel_guard(k, n, "fraction-free-elimination", entries, "condensation")
    if params is None:
        symbolic_division_free_guard(n + 1 - k, 2 * (n + 1 - k))
    return _condensed_det(_huckel_rows(k, n, params), k, n, params)


def _condensed_det(h: tuple[list[dict], str], k: int, n: int, params):
    """``condensation_det`` on the rows of H_{k,n} as ``_huckel_rows``
    built them, with no guard: for a caller that has checked the caps.
    The n + 1 - k rows condensation leaves go straight to the determinant
    on rows: fraction-free elimination over numbers, division-free over
    MultiPoly entries.  That is for independence, not speed: conj1/conj2,
    conj3 and the deletion recursion check condensation against the
    faster walk, ``det``'s default there."""
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
