"""Exact determinants, permanents and characteristic polynomials.

All algorithms work over whichever exact ring the matrix entries live in
(plain integers, Fraction, MultiPoly, CycInt, GaussInt); the only operation
a ring must provide beyond +,-,* is exact division, and the division-free
algorithm does without it.  Every route reads its matrix as a {column:
nonzero entry} dict per row, every entry in one ring (ints lifted,
MultiPoly entries at one varcount): ``matrices._ring_rows`` reads them from
a dense matrix, and ``matrices._huckel_rows`` and ``_reduced_rows`` write
those of H_{k,n} and of its reduced matrix straight from their patterns,
for the private ``_det_rows`` and ``_permanent_rows``.  ``_divider``
builds the exact division by one divisor once, for every entry divided by
it.  An integer unit ±1 divides by keeping or negating the sign, and any
other integer by testing the remainder of divmod.  CycInt and GaussInt
both divide through the one lattice divider,
``cyclotomic._lattice_divider``: a unit (norm 1) multiplies by its
inverse, checked once to multiply back to 1, and any other divisor tests
norm divisibility and multiplies back on every entry.

Determinant strategies, each taking the matrix alone (all return identical
values where applicable):

* ``fraction-free-elimination``: one-step Bareiss over sparse rows, every
  division exact by construction, in a fill-reducing column order with
  deferred row scaling (``_det_bareiss``); a matrix with every entry
  nonzero and A = A^T (Q_n, Q_n + omega I) takes the upper-triangle branch
  (``_det_symmetric``).  Their docstrings give the full account.
* ``sparse-minor-expansion``: the signed frontier walk (below); thrives on
  the very sparse adjacency matrices.
* ``division-free``: Berkowitz's algorithm, O(n^4) ring products and no
  division, which also yields the whole characteristic polynomial (a
  determinant takes only the last coefficient of its last step); for the
  small dense matrices (the reduced matrices, symbolic and written at the
  specialized sample points, the last step of symbolic condensation,
  ``charpoly``).

Fraction-free elimination refuses MultiPoly entries (StrategyPrecondition).
Each strategy's row caps, by the entries it runs on (numeric, symbolic and,
for elimination, a dense numeric matrix), are one entry of ``_ROUTE_ROWS``;
HUCKEL_MAX_SIZE raises them all.  ``route_guard`` checks them: each route
on the rows it is given, and every caller, naming the route and entries it
feeds, on the size it would build, before building anything
(``huckel_guard`` on the vertices of H_{k,n}).  A symbolic division-free
determinant is also refused over 16 distinct variables, a fixed cap.
Without a strategy, ``det`` runs division-free over MultiPoly entries and
elimination over every other ring.

The frontier walk expands row by row over the set of still-free columns,
visiting only each row's nonzero entries and keeping one partial sum per
set.  Signed, it is the determinant; unsigned, the permanent, over every
ring.  Its state guard bounds the number of free-column sets from the
support pattern and raises TooLarge before any expansion when the bound
exceeds a fixed budget.  That budget counts states, not polynomial terms,
so over every entry but an integer the walk takes its symbolic cap.
"""

from __future__ import annotations

import operator
import os
from itertools import chain
from math import comb

from .matrices import (
    PolyMatrix,
    TriangleGraph,
    _lift,
    _ring_of,
    _ring_rows,
    permutation_sign,
)
from .poly import MultiPoly, NotDivisible, _less_products

# each strategy's row caps by the entries it runs on.  "numeric": integer,
# rational and cyclotomic entries.  "symbolic": MultiPoly entries; the walk
# (and the permanent, the unsigned walk) takes it over every ring but int.
# "dense", elimination's only: a numeric matrix of binomial entries, nearly
# all nonzero, as the reduced matrix at a point (0.63 s at 75 rows, 3.6 s at
# 101, 36 s at 144) and Q_n + iI, on the symmetric branch (1.35 s at 76
# rows, 5.8 s at 101, 41 s at 144).
# Elimination refuses symbolic entries outright: its symbolic cap bounds
# block condensation of symbolic H_{k,n}, and refuses an oversized symbolic
# request before anything is built.
_ROUTE_ROWS = {
    "fraction-free-elimination": {"numeric": 144, "dense": 75, "symbolic": 144},
    "sparse-minor-expansion": {"numeric": 144, "symbolic": 16},
    "division-free": {"numeric": 49, "symbolic": 16},
}
DET_STRATEGIES = tuple(_ROUTE_ROWS)


class StrategyPrecondition(ValueError):
    """The chosen determinant strategy cannot run on this matrix."""


class TooLarge(ValueError):
    """A cost guard tripped before the work started, or HUCKEL_MAX_SIZE is
    malformed.  Every size cap raises it through ``size_guard`` (and
    HUCKEL_MAX_SIZE raises those caps); the fixed budgets on frontier
    states and division-free variables raise it directly."""


class NotRankOne(ValueError):
    """rank1_factor input does not have the scaled rank-1 shape."""


def size_guard(size: int, default: int, what: str) -> None:
    """Raise TooLarge when ``size`` exceeds the cap ``default``, or the
    HUCKEL_MAX_SIZE override when that is larger."""
    raw = os.environ.get("HUCKEL_MAX_SIZE", "0")
    try:
        limit = max(default, int(raw))
    except ValueError:
        raise TooLarge(f"HUCKEL_MAX_SIZE must be an integer, got {raw!r}") from None
    if size > limit:
        raise TooLarge(
            f"{what} capped at {limit}, got {size} "
            "(set HUCKEL_MAX_SIZE to raise the cap)"
        )


def route_guard(strategy: str, rows: int, entries: str, what: str) -> None:
    """Raise TooLarge when ``rows`` exceed the cap of ``strategy`` over
    ``entries``: "numeric", "symbolic" or, for elimination, "dense"."""
    size_guard(rows, _ROUTE_ROWS[strategy][entries], what)


def huckel_guard(k: int, n: int, strategy: str, entries: str, what: str) -> None:
    """Refuse H_{k,n} before building it when its vertex count is over the
    cap of the route it goes to; a bad (k, n) raises BadRange."""
    route_guard(strategy, TriangleGraph(k, n).vertex_count, entries, f"{what} vertex count")


# -- ring plumbing -----------------------------------------------------------


def ring_kind(M: PolyMatrix) -> str:
    """The ring of M's nonzero entries, classified without lifting them."""
    return _ring_of(filter(None, chain.from_iterable(M.rows)))


def _divider(b, kind: str):
    """Exact division by ``b`` as a function of the dividend, built once per
    divisor and applied to every entry divided by it.  A unit divides by
    multiplying with its inverse: an int ±1 is ``operator.pos`` or
    ``operator.neg``.  Otherwise integers test the remainder of divmod;
    CycInt and GaussInt divide through their ``divider``, the one lattice
    divider; MultiPoly divides with remainder check.  A non-multiple raises
    NotDivisible."""
    if kind == "int":
        if b == 1 or b == -1:
            return operator.pos if b > 0 else operator.neg

        def div(a):
            q, r = divmod(a, b)
            if r:
                raise NotDivisible(f"{a} not divisible by {b}")
            return q
        return div
    if kind == "fraction":
        return lambda a: a / b
    if kind == "poly":
        return lambda a: a.exact_div(b)
    return b.divider()


# -- determinants ----------------------------------------------------------------


def det(M: PolyMatrix, strategy: str | None = None):
    """Exact determinant of a square matrix via the chosen strategy; without
    one, division-free over MultiPoly entries and fraction-free elimination
    over every other ring."""
    M.dim  # raises on a non-square matrix
    return _det_rows(_ring_rows(M), strategy)


def _det_rows(ring_rows: tuple[list[dict], str], strategy: str | None = None):
    """``det`` of a square matrix read already: its nonzero rows and their
    ring, as ``_ring_rows`` and ``matrices._huckel_rows`` return them."""
    rows, kind = ring_rows
    if strategy is None:
        strategy = "division-free" if kind == "poly" else "fraction-free-elimination"
    if strategy == "fraction-free-elimination":
        if kind == "poly":
            raise StrategyPrecondition(
                "fraction-free elimination does not take polynomial entries; "
                "use division-free"
            )
        route_guard("fraction-free-elimination", len(rows), "numeric",
                    "numeric elimination rows")
        value = _det_symmetric(rows, kind)
        return _det_bareiss(rows, kind) if value is None else value
    if strategy == "sparse-minor-expansion":
        return _frontier_walk(rows, kind, signed=True)
    if strategy == "division-free":
        c = _berkowitz(rows, kind, det_only=True)
        return c if len(rows) % 2 == 0 else -c
    raise StrategyPrecondition(f"unknown strategy {strategy!r}")


# distinct variables a symbolic division-free determinant may carry: 16 at
# 8 rows takes about 2 s, 18 at 9 rows about 30 s
_DIVISION_FREE_VARIABLE_LIMIT = 16


def symbolic_division_free_guard(rows: int, variables: int) -> None:
    """Refuse a symbolic division-free determinant over the route's
    symbolic row cap or over 16 distinct variables (fixed)."""
    route_guard("division-free", rows, "symbolic", "symbolic division-free rows")
    if variables > _DIVISION_FREE_VARIABLE_LIMIT:
        raise TooLarge(
            f"symbolic division-free determinant capped at "
            f"{_DIVISION_FREE_VARIABLE_LIMIT} distinct variables, got {variables}"
        )


def _det_bareiss(a: list[dict], kind: str):
    """One-step Bareiss over sparse rows with a fill-reducing pivot order
    and lazy row scaling.

    Each row is a dict of its nonzero entries; the elimination runs on
    copies, so the rows given never change.  Each column keeps its holder
    set, the live rows holding it: a row joins on fill, leaves on
    cancellation, and leaves every column it still holds when it pivots.
    Step s eliminates the live column held by the fewest live rows, ties
    going to the lowest index (Markowitz's rule, by columns), and pivots on
    the lowest-index row of its holder set.  Only the other rows of that
    set are updated, over the union of the two supports; a row with a zero
    there would just be multiplied by pivots[s + 1] / pivots[s], so it is
    left alone.  A row last current at step t < s is thus stored as the
    true row r_s times pivots[t] / pivots[s], and its update

        (pc * r_s - r_s[c] * p) / pivots[s] = (pc * r - r[c] * p) / pivots[t]

    divides by the pivot it was last current at, with no catch-up first
    (exact: the true updated entries are minors).  A skipped row is caught
    up, by pivots[s] / pivots[t], only when it pivots.  Each pivot gets one
    exact divider, used by its step and by every later update or catch-up
    of a row last current at it; a unit pivot's divider multiplies by its
    inverse.  The determinant is the last pivot, signed by the row and
    column orders of the pivots.

    On H_{k,n} the sparsest-column order makes less fill than index order,
    and the deferral saves the catch-up of every updated row: 3 636 exact
    divisions on the 144-vertex triangle, against 4 865 when each updated
    row was caught up first and 12 606 in index order.
    """
    n = len(a)
    a = [dict(row) for row in a]
    # holders[j] is the set of live rows holding column j, and key[j] =
    # n * len(holders[j]) + j while column j is live, and `dead` above every
    # such key once it is eliminated, so min(key) names the sparsest live
    # column, ties to the lowest index
    holders = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for j in row:
            holders[j].add(i)
    key = [n * len(users) + j for j, users in enumerate(holders)]
    dead = n * (n + 1)
    # pivots[t] is the divisor after t steps, divide[t] its exact divider; a
    # row at level t is current through step t - 1
    pivots = [_lift(1, kind)]
    divide = []
    level = [0] * n
    pivot_rows, pivot_cols = [], []

    for s in range(n):
        c = min(key)
        if c < n:  # no live row holds that column
            return _lift(0, kind)
        c %= n
        key[c] = dead
        users = holders[c]
        p = min(users)
        users.remove(p)
        pivot_rows.append(p)
        pivot_cols.append(c)
        divide.append(_divider(pivots[s], kind))
        prow, t = a[p], level[p]
        if t != s:  # a skipped row is caught up when it pivots
            up, down = pivots[s], divide[t]
            for j, e in prow.items():
                prow[j] = down(e * up)
        pc = prow.pop(c)
        for j in prow:  # the pivot row holds no live column any more
            holders[j].remove(p)
            key[j] -= n
        for i in users:
            row = a[i]
            div = divide[level[i]]  # the pivot it was last current at
            ric = row.pop(c)
            cancelled = []
            for j, e in row.items():
                pe = prow.get(j)
                v = pc * e if pe is None else pc * e - ric * pe
                if v:
                    row[j] = div(v)
                else:
                    cancelled.append(j)
            for j, pe in prow.items():
                if j not in row:  # fill: a product of two nonzeros
                    row[j] = div(-(ric * pe))
                    holders[j].add(i)
                    key[j] += n
            for j in cancelled:
                del row[j]
                holders[j].remove(i)
                key[j] -= n
            level[i] = s + 1
        holders[c] = a[p] = None  # neither is read again
        pivots.append(pc)
    last = pivots[n]
    sign = permutation_sign(pivot_rows) * permutation_sign(pivot_cols)
    return last if sign > 0 else -last


def _det_symmetric(a: list[dict], kind: str):
    """One-step Bareiss in natural order on the upper triangle of a matrix
    with every entry nonzero and A = A^T, or None when the matrix is not
    such, or when a leading principal minor before the last vanishes.

    Pivoting on the diagonal keeps every reduced matrix symmetric, so step
    s updates only a_ij, j >= i > s, reading a_si as a_is:

        a_ij <- (a_ss * a_ij - a_si * a_sj) / p_(s-1),

    with p_(-1) = 1 and p_s = a_ss through one exact divider per pivot.
    The last pivot is the determinant, and the row and column orders leave
    no sign.  The rows given never change.  Against the sparse loop this
    halves the updates (1 330 exact divisions on Q_19 + iI against 2 470)
    and keeps no holder sets; a None sends the rows given to that loop
    unchanged.
    """
    n = len(a)
    if not n or any(len(row) != n for row in a):
        return None
    if any(a[j][i] != e for i, row in enumerate(a) for j, e in row.items() if j > i):
        return None
    u = [[row[j] for j in range(n)] for row in a]
    prev = _lift(1, kind)
    for s in range(n - 1):
        rs = u[s]
        p = rs[s]
        if not p:
            return None
        div = _divider(prev, kind)
        for i in range(s + 1, n):
            ri, q = u[i], rs[i]
            ri[i:] = [div(p * e - q * f) for e, f in zip(ri[i:], rs[i:])]
        prev = p
    return u[n - 1][n - 1]


def _berkowitz(a: list[dict], kind: str, det_only: bool = False):
    """Coefficients [c_0 = 1, c_1, ..., c_n] of det(zI - A) = sum c_i z^(n-i),
    by Berkowitz's division-free algorithm; with ``det_only``, c_n alone.

    Split the leading (r+1)-square block as [[A_r, C], [R, a_rr]].  Its
    coefficient vector is the lower-triangular Toeplitz matrix with first
    column [1, -a_rr, -R C, -R A_r C, ..., -R A_r^(r-1) C] times that of
    A_r.  Only ring +, - and * run, never on a zero operand: O(n^4) products
    for a dense matrix, and no division.  The determinant needs only the
    last row of the last Toeplitz product, so with ``det_only`` that step
    forms c_n alone: n products in place of n(n+1)/2.  Over MultiPoly each
    coefficient's products are subtracted term by term into one copy of
    its old terms (``poly._less_products``), not by a copy per product.
    """
    n = len(a)
    if kind == "poly":
        entries = [e for row in a for e in row.values()]
        names = set().union(*(e.used_variables() for e in entries))
        symbolic_division_free_guard(n, len(names))
        varcount = entries[0].varcount  # every entry's
        one = MultiPoly.const(1, varcount)
    else:
        route_guard("division-free", n, "numeric", "division-free rows")
        one = _lift(1, kind)
    coeffs = [one]  # None stands for a zero coefficient
    for r in range(n):
        # the rows of A_r and R, as (column, entry) pairs
        block = [[(j, e) for j, e in a[i].items() if j < r] for i in range(r + 1)]
        col = {i: a[i][r] for i in range(r) if r in a[i]}  # C
        # s = a_rr, R C, R A_r C, ...: the Toeplitz column, negated
        s = [a[r].get(r)]
        for k in range(r):
            s.append(_dot(block[r], col))
            if k + 1 < r:
                col = {i: v for i in range(r) if (v := _dot(block[i], col)) is not None}
        new = []
        # c_i of the (r+1)-block is c_i - s_1 c_(i-1) - ... of A_r; for the
        # determinant the last block needs c_n alone
        for i in range(r + 1 if det_only and r == n - 1 else 0, r + 2):
            acc = coeffs[i] if i <= r else None
            pairs = [(sk, c) for k in range(max(1, i - r), i + 1)
                     if (sk := s[k - 1]) is not None and (c := coeffs[i - k]) is not None]
            if kind == "poly":
                acc = _less_products(acc, pairs, varcount)
            else:
                for sk, c in pairs:
                    p = sk if c is one else sk * c
                    acc = -p if acc is None else acc - p
            new.append(acc or None)
        coeffs = new
    zero = one - one
    coeffs = [zero if c is None else c for c in coeffs]
    return coeffs[-1] if det_only else coeffs


def _dot(entries, vec: dict):
    """sum e * vec[j] over (j, e) in entries, skipping zeros; None if empty
    or zero."""
    acc = None
    for j, e in entries:
        v = vec.get(j)
        if v is not None:
            acc = e * v if acc is None else acc + e * v
    return acc or None


def permutation_parity_census(M: PolyMatrix) -> tuple[int, int]:
    """Count permutations with entirely nonzero support, split by parity.

    Over symbolic entries "nonzero support" means no structurally zero
    factor, so (even, odd) counts the loop coverings of the underlying graph
    by contribution sign.  On the 0/1 support matrix S every such
    permutation contributes exactly +-1, so perm S = even + odd (frontier
    walk) and det S = even - odd (fraction-free elimination).
    """
    M.dim  # raises on a non-square matrix
    return _parity_census(_ring_rows(M)[0])


def _parity_census(rows: list[dict]) -> tuple[int, int]:
    """``permutation_parity_census`` of a square matrix given as its nonzero
    rows."""
    support = [dict.fromkeys(row, 1) for row in rows]
    total = _frontier_walk(support, "int", signed=False)
    signed = _det_rows((support, "int"), "fraction-free-elimination")
    return (total + signed) // 2, (total - signed) // 2


# -- frontier walk ------------------------------------------------------------

# bound on the frontier walk's partial sums, checked before it starts
_FRONTIER_STATE_BUDGET = 2_000_000


def _frontier_walk(rows: list[dict], kind: str, signed: bool):
    """Sum over the permutations with nonzero support of the products of
    their entries, signed by parity (the determinant) or not (the permanent).

    After row r the walk holds, for each set of columns still free, the sum
    of the products of the entries chosen in rows 0..r.  Choosing column j
    flips the sign once for each free column left of j, which is the parity
    of a Laplace expansion along the row.  A column with no nonzero entry
    below row r must be taken by then, so sets that leave one free are
    dropped, as are sets whose partial sum cancels to zero.  The sums start
    from the ring's one.  The walk's row cap is checked first: the
    numeric one over int entries, the symbolic one over every other ring.
    """
    n = len(rows)
    entries, ring = ("numeric", "integer") if kind == "int" else ("symbolic", "non-integer")
    route_guard("sparse-minor-expansion", n, entries, f"{ring} frontier walk dimension")
    zero = _lift(0, kind)
    last = [-1] * n
    for r, row in enumerate(rows):
        for j in row:
            last[j] = r
    if not all(rows) or -1 in last:
        return zero  # a zero row or column
    # closed[r]: the columns whose last nonzero entry is in row r or above
    closed = [0] * n
    for j, r in enumerate(last):
        closed[r] |= 1 << j
    for r in range(1, n):
        closed[r] |= closed[r - 1]
    # After row r the taken columns are r + 1 of those rows 0..r reach, and
    # include closed[r]; summing the choices bounds the states kept.
    states = 0
    reach = 0
    for r, row in enumerate(rows):
        for j in row:
            reach |= 1 << j
        fixed = closed[r].bit_count()
        if fixed <= r + 1:
            states += comb(reach.bit_count() - fixed, r + 1 - fixed)
        if states > _FRONTIER_STATE_BUDGET:
            raise TooLarge(
                f"frontier expansion guard: the {n}x{n} walk may keep more "
                f"than {_FRONTIER_STATE_BUDGET} states"
            )
    layer = {(1 << n) - 1: _lift(1, kind)}
    for r, row in enumerate(rows):
        steps = [(1 << j, (1 << j) - 1, e, -e) for j, e in row.items()]
        dead = closed[r]
        nxt: dict = {}
        get = nxt.get
        for free, value in layer.items():
            for bit, below, e, neg in steps:
                key = free ^ bit
                if free & bit and not key & dead:
                    odd = signed and (free & below).bit_count() & 1
                    term = value * (neg if odd else e)
                    old = get(key)
                    nxt[key] = term if old is None else old + term
        layer = {free: v for free, v in nxt.items() if v}
        if not layer:
            return zero
    return layer[0]


# -- permanents ------------------------------------------------------------------


def permanent(M: PolyMatrix):
    """Exact permanent: the unsigned frontier walk, over any ring.

    The walk goes row by row over the set of still-free columns, visiting
    only each row's nonzero entries.  Its cost is the number of free-column
    sets it keeps, which is bounded from the support pattern alone; a matrix
    whose bound exceeds the state budget raises TooLarge before any
    expansion.  That budget is fixed: HUCKEL_MAX_SIZE does not raise it.
    The walk's row caps apply too: 144 over integer entries and 16 over
    every other ring, which HUCKEL_MAX_SIZE raises; the signed walk shares
    every guard.
    """
    M.dim  # raises on a non-square matrix
    return _permanent_rows(_ring_rows(M))


def _permanent_rows(ring_rows: tuple[list[dict], str]):
    """``permanent`` of a square matrix read already, as for ``_det_rows``."""
    return _frontier_walk(*ring_rows, signed=False)


# -- characteristic polynomial ------------------------------------------------------


def charpoly(M: PolyMatrix) -> MultiPoly:
    """det(zI + M) for an integer matrix (note the +z convention: the
    coefficient list read off this polynomial is symmetric for matrices
    whose eigenvalues come in reciprocal pairs)."""
    rows, kind = _ring_rows(M)
    if kind != "int":
        raise StrategyPrecondition("charpoly expects an integer matrix")
    n = M.dim  # raises on a non-square matrix
    # det(zI + M) = det(zI - (-M)), whose coefficients Berkowitz returns
    coeffs = _berkowitz([{j: -e for j, e in row.items()} for row in rows], "int")
    return MultiPoly({(n - i,): c for i, c in enumerate(coeffs) if c}, 0)


def coefficient_list(p: MultiPoly, var: str, degree: int) -> list[int]:
    """Coefficients [c_0..c_degree] of a univariate polynomial in ``var``."""
    return [p.coefficient({var: k}) for k in range(degree + 1)]


# -- rank-1 factorization -------------------------------------------------------------


def rank1_factor(W: PolyMatrix, denominator: MultiPoly | int = 1):
    """Decompose W = numerator * u u^T with u over {0, +1, -1}.

    ``W`` is the polynomial matrix ``denominator * M`` for the rational
    matrix M of interest; the return packages M = (numerator/denominator)
    u u^T.  u is normalized so its first nonzero entry is +1.
    Raises NotRankOne when the shape does not hold (including W = 0).
    """
    n = W.dim
    i0 = next((i for i in range(n) if any(W.rows[i])), None)
    if i0 is None:
        raise NotRankOne("zero matrix")
    j0 = next(j for j in range(n) if W[i0, j])
    scale = W[i0, j0]
    u = []
    for i in range(n):
        e = W[i, j0]
        if not e:
            u.append(0)
        elif e == scale:
            u.append(1)
        elif e == -scale:
            u.append(-1)
        else:
            raise NotRankOne(f"row {i} is not a sign multiple of row {i0}")
    # u[i0] = +1 and rows above i0 are zero, so u is already normalized
    numerator = scale if u[j0] > 0 else -scale
    for i in range(n):
        for j in range(n):
            s = u[i] * u[j]
            have = W[i, j]
            if s == 0:
                if have:
                    raise NotRankOne(f"entry ({i},{j}) should be zero")
            elif have != (numerator if s > 0 else -numerator):
                raise NotRankOne(f"entry ({i},{j}) breaks the rank-1 shape")
    return numerator, denominator, tuple(u)
