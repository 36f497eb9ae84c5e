"""Exact determinants, permanents and characteristic polynomials.

All algorithms work over whichever exact ring the matrix entries live in
(plain integers, Fraction, MultiPoly, CycInt, GaussInt); the only operation
a ring must provide beyond +,-,* is exact division, which integers do by
divmod-with-check and the custom rings via their ``exact_div``.

Determinant strategies (all return identical values where applicable):

* ``fraction-free-elimination``: one-step Bareiss over sparse rows, every
  division exact by construction.  Each row keeps only its nonzero entries,
  and a step updates only the rows holding the pivot column, never forming
  a product with a zero operand.  A row skipped by a step would only have
  been scaled by pivot / previous pivot, so that scaling is deferred and
  applied once, as a ratio of two pivots, when the row is next used.  Fill
  stays inside the band, so a matrix of bandwidth b costs about N*b^2 ring
  operations instead of N^3.
* ``sparse-minor-expansion``: the signed frontier walk (below); thrives on
  the very sparse adjacency matrices.
* ``bivariate-interpolation``: for matrices whose entries involve a single
  parameter pair and whose determinant is homogeneous of known degree d,
  sample at (1, t) for t = 0..d and solve the Vandermonde system exactly.

Fraction-free elimination refuses more than 144 rows over integer,
cyclotomic and rational entries, and over MultiPoly entries more than 25 rows
or more than a fixed number of distinct variables.  HUCKEL_MAX_SIZE raises
both row caps.  So ``det``, ``charpoly``, the interpolation samples and the
final step of condensation share one guard.

The frontier walk expands row by row over the set of still-free columns,
visiting only each row's nonzero entries and keeping one partial sum per
set.  Signed, it is the determinant; unsigned, the permanent, over every
ring.  Its state guard bounds the number of free-column sets from the
support pattern and raises TooLarge before any expansion when the bound
exceeds a fixed budget.  That budget counts states, not polynomial terms,
so over non-integer entries the walk is also capped at dimension 16
(HUCKEL_MAX_SIZE raises that cap).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb
from typing import Sequence

from .cyclotomic import CycInt, GaussInt
from .matrices import PolyMatrix, _nz, permutation_sign
from .poly import MultiPoly, NotDivisible

DET_STRATEGIES = (
    "fraction-free-elimination",
    "sparse-minor-expansion",
    "bivariate-interpolation",
)


class StrategyPrecondition(ValueError):
    """The chosen determinant strategy cannot run on this matrix."""


class TooLarge(ValueError):
    """A cost guard tripped before the work started, or HUCKEL_MAX_SIZE is
    malformed.  Every size cap raises it through ``size_guard`` (and
    HUCKEL_MAX_SIZE raises those caps); the fixed budgets on frontier
    states and elimination variables raise it directly."""


class NotRankOne(ValueError):
    """rank1_factor input does not have the scaled rank-1 shape."""


def size_limit(default: int) -> int:
    """The larger of ``default`` and the HUCKEL_MAX_SIZE override."""
    raw = os.environ.get("HUCKEL_MAX_SIZE", "0")
    try:
        override = int(raw)
    except ValueError:
        raise TooLarge(f"HUCKEL_MAX_SIZE must be an integer, got {raw!r}") from None
    return max(default, override)


def size_guard(size: int, default: int, what: str) -> None:
    """Raise TooLarge when ``size`` exceeds the cap ``default``, or the
    HUCKEL_MAX_SIZE override when that is larger."""
    limit = size_limit(default)
    if size > limit:
        raise TooLarge(
            f"{what} capped at {limit}, got {size} "
            "(set HUCKEL_MAX_SIZE to raise the cap)"
        )


# -- ring plumbing -----------------------------------------------------------


def ring_kind(M: PolyMatrix) -> str:
    kinds = set()
    for row in M.rows:
        for e in row:
            if isinstance(e, MultiPoly):
                kinds.add("poly")
            elif isinstance(e, CycInt):
                kinds.add("cyc")
            elif isinstance(e, GaussInt):
                kinds.add("gauss")
            elif isinstance(e, Fraction):
                kinds.add("fraction")
            elif isinstance(e, int):
                pass
            else:
                raise TypeError(f"unsupported entry type {type(e).__name__}")
    if len(kinds) > 1:
        raise TypeError(f"mixed entry rings {sorted(kinds)}")
    return kinds.pop() if kinds else "int"


_LIFTS = {
    "int": int,
    "poly": lambda c: MultiPoly.const(c),
    "cyc": CycInt,
    "gauss": GaussInt,
    "fraction": Fraction,
}


def _lift(c: int, kind: str):
    return _LIFTS[kind](c)


def _exact_div(a, b, kind: str):
    if kind == "int":
        q, r = divmod(a, b)
        if r:
            raise NotDivisible(f"{a} not divisible by {b}")
        return q
    if kind == "fraction":
        return a / b
    return a.exact_div(b)


# -- determinants ----------------------------------------------------------------


def det(M: PolyMatrix, strategy: str = "fraction-free-elimination", degree: int | None = None):
    """Exact determinant of a square matrix via the chosen strategy."""
    M.dim  # raises on a non-square matrix
    kind = ring_kind(M)
    if strategy == "fraction-free-elimination":
        return _det_bareiss(M.rows, kind)
    if strategy == "sparse-minor-expansion":
        return _frontier_walk(M.rows, kind, signed=True)
    if strategy == "bivariate-interpolation":
        return _det_interpolation(M, degree)
    raise StrategyPrecondition(f"unknown strategy {strategy!r}")


# row cap of fraction-free elimination over integer, rational and cyclotomic
# entries, and dimension cap of the frontier walk over non-integer entries;
# callers that would build a large matrix for them check these first
NUMERIC_ELIMINATION_ROWS = 144
NON_INTEGER_WALK_DIM = 16

# distinct variables a symbolic elimination may carry: 12 at 6 rows takes
# about 3 s, 14 at 7 rows runs past 30 s
_ELIMINATION_VARIABLE_LIMIT = 12


def _det_bareiss(rows: Sequence[Sequence], kind: str):
    """One-step Bareiss over sparse rows with lazy row scaling.

    Each row is a dict of its nonzero entries.  The pivot of step c is the
    lowest-index live row holding column c.  Only the rows holding column c
    are updated, (pc*r - r[c]*p) / prev over the union of the two supports;
    a row with a zero there would just be multiplied by pc / prev, so it is
    left alone and, when next used, caught up by pivots[c] / pivots[t] from
    the step t it was last current at (exact: the true entries are minors).
    """
    n = len(rows)
    if kind == "poly":
        size_guard(n, 25, "symbolic elimination rows")
    else:
        size_guard(n, NUMERIC_ELIMINATION_ROWS, "numeric elimination rows")
    lift = _LIFTS[kind]
    a = [
        {j: lift(e) if isinstance(e, int) else e
         for j, e in enumerate(row) if _nz(e)}
        for row in rows
    ]
    if kind == "poly":
        names = set().union(*(e.used_variables() for r in a for e in r.values()))
        if len(names) > _ELIMINATION_VARIABLE_LIMIT:
            raise TooLarge(
                f"symbolic elimination capped at {_ELIMINATION_VARIABLE_LIMIT} "
                f"distinct variables, got {len(names)}"
            )
    # pivots[t] is the divisor after t steps; a row at level t is current
    # through step t - 1
    pivots = [lift(1)]
    level = [0] * n
    live = list(range(n))
    order = []

    def current(i: int, c: int) -> dict:
        row, t = a[i], level[i]
        if t != c:
            up, down = pivots[c], pivots[t]
            for j, e in row.items():
                row[j] = _exact_div(e * up, down, kind)
            level[i] = c
        return row

    for c in range(n):
        users = [i for i in live if c in a[i]]
        if not users:
            return lift(0)
        p = users[0]
        live.remove(p)
        order.append(p)
        prow = current(p, c)
        pc = prow.pop(c)
        prev = pivots[c]
        for i in users[1:]:
            row = current(i, c)  # r[c] is stale until the row is caught up
            ric = row.pop(c)
            cancelled = []
            for j, e in row.items():
                pe = prow.get(j)
                v = pc * e if pe is None else pc * e - ric * pe
                if v:
                    row[j] = _exact_div(v, prev, kind)
                else:
                    cancelled.append(j)
            for j, pe in prow.items():
                if j not in row:  # fill: a product of two nonzeros
                    row[j] = _exact_div(-(ric * pe), prev, kind)
            for j in cancelled:
                del row[j]
            level[i] = c + 1
        pivots.append(pc)
    last = pivots[n]
    return last if permutation_sign(order) > 0 else -last


def permutation_parity_census(M: PolyMatrix) -> tuple[int, int]:
    """Count permutations with entirely nonzero support, split by parity.

    Over symbolic entries "nonzero support" means no structurally zero
    factor, so (even, odd) counts the loop coverings of the underlying graph
    by contribution sign.  On the 0/1 support matrix S every such
    permutation contributes exactly +-1, so perm S = even + odd (frontier
    walk) and det S = even - odd (fraction-free elimination).
    """
    support = M.map_entries(lambda e: 1 if _nz(e) else 0)
    total = _frontier_walk(support.rows, "int", signed=False)
    signed = det(support)
    return (total + signed) // 2, (total - signed) // 2


def _det_interpolation(M: PolyMatrix, degree: int | None):
    if degree is None:
        raise StrategyPrecondition("bivariate interpolation needs the degree")
    if ring_kind(M) not in ("poly", "int"):
        raise StrategyPrecondition("bivariate interpolation needs polynomial entries")
    names: set[str] = set()
    for row in M.rows:
        for e in row:
            if isinstance(e, MultiPoly):
                names |= e.used_variables()
    pairs = {nm[1:] for nm in names if nm != "z"}
    if "z" in names or len(pairs) != 1:
        raise StrategyPrecondition(
            f"need exactly one parameter pair, found {sorted(names)}"
        )
    idx = int(pairs.pop())
    xn, yn = f"x{idx}", f"y{idx}"

    def sample(xv: int, yv: int) -> int:
        rows = [
            [
                e.evaluate({xn: xv, yn: yv}) if isinstance(e, MultiPoly) else e
                for e in row
            ]
            for row in M.rows
        ]
        return _det_bareiss(rows, "int")

    d = degree
    values = [sample(1, t) for t in range(d + 1)]
    coeffs = _solve_vandermonde(values)
    # homogeneity guard: det(2x, 2y) must equal 2^d det(x, y)
    if sample(2, 2) != 2**d * sum(coeffs):
        raise StrategyPrecondition(
            f"determinant is not homogeneous of degree {d}"
        )
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            exp = [0] * (2 * (idx + 1) + 1)
            exp[idx] = d - k
            exp[idx + 1 + idx] = k
            terms[tuple(exp)] = c
    return MultiPoly(terms, idx + 1)


def _solve_vandermonde(values: Sequence[int]) -> list[int]:
    """Coefficients of the unique degree<len polynomial with p(t)=values[t]."""
    d = len(values) - 1
    rows = [
        [Fraction(t**k) for k in range(d + 1)] + [Fraction(values[t])]
        for t in range(d + 1)
    ]
    for c in range(d + 1):
        piv = next(r for r in range(c, d + 1) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(d + 1):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    out = []
    for r in range(d + 1):
        v = rows[r][-1]
        if v.denominator != 1:
            raise StrategyPrecondition(f"non-integer coefficient {v} recovered")
        out.append(int(v))
    return out


# -- frontier walk ------------------------------------------------------------

# bound on the frontier walk's partial sums, checked before it starts
_FRONTIER_STATE_BUDGET = 2_000_000


def _frontier_walk(rows: Sequence[Sequence], kind: str, signed: bool):
    """Sum over the permutations with nonzero support of the products of
    their entries, signed by parity (the determinant) or not (the permanent).

    After row r the walk holds, for each set of columns still free, the sum
    of the products of the entries chosen in rows 0..r.  Choosing column j
    flips the sign once for each free column left of j, which is the parity
    of a Laplace expansion along the row.  A column with no nonzero entry
    below row r must be taken by then, so sets that leave one free are
    dropped, as are sets whose partial sum cancels to zero.  Plain integer
    entries may stand in for ring elements; the sums start from the ring's one.
    """
    n = len(rows)
    if kind != "int":
        size_guard(n, NON_INTEGER_WALK_DIM, "non-integer frontier walk dimension")
    zero = _lift(0, kind)
    support = [[(j, e) for j, e in enumerate(row) if _nz(e)] for row in rows]
    last = [-1] * n
    for r, entries in enumerate(support):
        for j, _ in entries:
            last[j] = r
    if not all(support) or -1 in last:
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
    for r, entries in enumerate(support):
        for j, _ in entries:
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
    for r, entries in enumerate(support):
        steps = [(1 << j, (1 << j) - 1, e, -e) for j, e in entries]
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
    Over non-integer entries the walk is also capped at dimension 16, which
    HUCKEL_MAX_SIZE raises; the signed walk shares both guards.
    """
    M.dim  # raises on a non-square matrix
    return _frontier_walk(M.rows, ring_kind(M), signed=False)


# -- characteristic polynomial ------------------------------------------------------


def charpoly(M: PolyMatrix) -> MultiPoly:
    """det(zI + M) for an integer matrix (note the +z convention: the
    coefficient list read off this polynomial is symmetric for matrices
    whose eigenvalues come in reciprocal pairs)."""
    if ring_kind(M) != "int":
        raise StrategyPrecondition("charpoly expects an integer matrix")
    M.dim  # raises on a non-square matrix
    z = MultiPoly({(1,): 1}, 0)
    rows = [
        [e + z if i == j else e for j, e in enumerate(row)]
        for i, row in enumerate(M.rows)
    ]
    return _det_bareiss(rows, "poly")


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
    i0 = next((i for i in range(n) if any(_nz(e) for e in W.rows[i])), None)
    if i0 is None:
        raise NotRankOne("zero matrix")
    j0 = next(j for j in range(n) if _nz(W[i0, j]))
    scale = W[i0, j0]
    u = []
    for i in range(n):
        e = W[i, j0]
        if not _nz(e):
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
                if _nz(have):
                    raise NotRankOne(f"entry ({i},{j}) should be zero")
            elif have != (numerator if s > 0 else -numerator):
                raise NotRankOne(f"entry ({i},{j}) breaks the rank-1 shape")
    return numerator, denominator, tuple(u)
