"""Honeycomb triangle/trapezium graphs and their matrix families.

The triangle with apex row 0 and base row n has zig-zag rows of
1, 3, ..., 2n+1 atoms; removing rows 0..k-1 leaves a trapezium.  Vertices are
numbered row-major, top to bottom, left to right within a row.  Atoms at even
positions within a row are "blue", odd positions "red" (the two triangular
sublattices).  Each row m carries two boundary weights: y_m on the directed
slot (left end -> right end) and x_m on (right end -> left end); row 0
collapses both onto the single apex, giving the self-weight x_0 + y_0.

The adjacency ("Hueckel") matrix of the trapezium is block tridiagonal with
row blocks T_k..T_n on the diagonal and vertical-edge blocks R_m below/above.
Its nonzeros are written in one place, ``_huckel_nonzeros``: the exact
routes take them as sparse rows in one ring (``_huckel_rows``, the same
rows ``_ring_rows`` reads from a dense matrix), and ``build_huckel`` and
``build_T`` (T_m is H_{m,m}) are the dense views.  Also built here: the symmetric Pascal family P_n, P_n^-1, Q_n, the reduced
binomial matrix conjectured to share the trapezium determinant, the
general binomial matrix with a diagonal shift, and the bordered matrix
produced by one Schur-complement step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from .cyclotomic import CycInt, GaussInt
from .poly import MultiPoly, svar, xvar, yvar


class BadRange(ValueError):
    """Row indices out of the valid 0 <= k <= n range."""


class PolyMatrix:
    """Immutable dense matrix; entries are ints or exact ring elements."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        # from a list, so the tuple is allocated at its final size: one built
        # from a generator is resized, and CPython's per-size tuple free
        # lists then keep one more dead tuple per matrix, up to 2000 a size
        rows = tuple([tuple(r) for r in rows])
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def dim(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)  # equal entries of two rings hash equal, unlike their text

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"

    @staticmethod
    def identity(d: int, one=1) -> "PolyMatrix":
        zero = one - one
        return PolyMatrix(
            [[one if i == j else zero for j in range(d)] for i in range(d)]
        )

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(list(zip(*self.rows))) if self.rows else self

    def map_entries(self, fn: Callable) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # each right row's nonzero (column, entry) pairs; every entry sums
        # a[i] * b over ascending i, from 0, as sum() would
        right = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for i, a in enumerate(row):
                if a:
                    for j, b in right[i]:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return PolyMatrix(out)

    def submatrix(self, rs: Sequence[int], cs: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.rows[i][j] for j in cs] for i in rs])

    def permuted(self, order: Sequence[int]) -> "PolyMatrix":
        """Conjugate by a permutation: entry (a,b) <- (order[a], order[b])."""
        return PolyMatrix(
            [[self.rows[i][j] for j in order] for i in order]
        )

    def row_permuted(self, order: Sequence[int]) -> "PolyMatrix":
        """Permute rows only: row a <- row order[a]."""
        return PolyMatrix([self.rows[i] for i in order])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [[str(e) for e in row] for row in self.rows],
        }

    def to_grid(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        widths = [
            max(len(cells[i][j]) for i in range(self.nrows))
            for j in range(self.ncols)
        ]
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
        )


def evaluate_matrix(M: PolyMatrix, assignment: Mapping[str, object]) -> PolyMatrix:
    """Evaluate every polynomial entry at the assignment; ints pass through."""
    return M.map_entries(
        lambda e: e.evaluate(assignment) if isinstance(e, MultiPoly) else e
    )


# -- ring rows -------------------------------------------------------------------

# entry types by ring, tried in order; plain ints fit every ring
_RING_TYPES = (
    (MultiPoly, "poly"),
    (CycInt, "cyc"),
    (GaussInt, "gauss"),
    (Fraction, "fraction"),
    (int, None),
)


def _ring_of(entries) -> str:
    kinds = set()
    # the distinct entry types, in the order they first appear
    for t in dict.fromkeys(map(type, entries)):
        for base, kind in _RING_TYPES:
            if issubclass(t, base):
                if kind is not None:
                    kinds.add(kind)
                break
        else:
            raise TypeError(f"unsupported entry type {t.__name__}")
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


def _lifter(kind: str, entries: Iterable) -> Callable:
    """The map that puts each of ``entries`` (nonzero, of the ring ``kind``
    but not "int") into that ring: ints are lifted, and MultiPoly entries
    promoted to the largest varcount among them, so no product promotes."""
    if kind == "poly":
        vc = max(e.varcount for e in entries if isinstance(e, MultiPoly))
        return lambda e: e.promoted(vc) if isinstance(e, MultiPoly) else MultiPoly.const(e, vc)
    return lambda e: _lift(e, kind) if isinstance(e, int) else e


def _ring_rows(M: PolyMatrix) -> tuple[list[dict], str]:
    """M's nonzero entries as one {column: entry} dict per row, each an
    element of their ring, and that ring (see ``_lifter``)."""
    rows = [dict(compress(enumerate(row), row)) for row in M.rows]
    kind = _ring_of(chain.from_iterable(map(dict.values, rows)))
    if kind == "int":
        return rows, kind
    lift = _lifter(kind, chain.from_iterable(map(dict.values, rows)))
    for row in rows:
        for j, e in row.items():
            row[j] = lift(e)
    return rows, kind


def _dense(rows: Sequence[dict]) -> PolyMatrix:
    """Square sparse rows, {column: entry} numbered 0..d-1, as a dense
    matrix with int 0 off them."""
    out = [[0] * len(rows) for _ in rows]
    for dense, row in zip(out, rows):
        for j, e in row.items():
            dense[j] = e
    return PolyMatrix(out)


# -- graph ---------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleGraph:
    """Honeycomb triangle (k=0) or trapezium (rows k..n) with the vertex
    numbering the matrix builders use."""

    k: int
    n: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise BadRange(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def vertex_count(self) -> int:
        return (self.n + 1) ** 2 - self.k**2

    def row_offset(self, m: int) -> int:
        if not self.k <= m <= self.n:
            raise BadRange(f"row {m} outside {self.k}..{self.n}")
        return m * m - self.k * self.k

    def index(self, m: int, p: int) -> int:
        if not 0 <= p <= 2 * m:
            raise BadRange(f"position {p} outside row {m}")
        return self.row_offset(m) + p

    def position(self, v: int) -> tuple[int, int]:
        for m in range(self.k, self.n + 1):
            off = self.row_offset(m)
            if v < off + 2 * m + 1:
                return m, v - off
        raise BadRange(f"vertex {v} out of range")

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """Undirected unit-weight edges (a < b): intra-row zig-zag neighbors
        plus vertical bonds (m, 2j+1)-(m-1, 2j)."""
        es = []
        for m in range(self.k, self.n + 1):
            off = self.row_offset(m)
            for p in range(2 * m):
                es.append((off + p, off + p + 1))
            if m > self.k:
                up = self.row_offset(m - 1)
                for j in range(m):
                    es.append((up + 2 * j, off + 2 * j + 1))
        return sorted(tuple(sorted(e)) for e in es)

    def color_sorted_order(self) -> list[int]:
        """Vertex order: row-end blues (per row: left, then right), inner
        blues, then all reds row-major.  This is the block form that groups
        the parameter-carrying entries in the top-left corner."""
        ends, inner, reds = [], [], []
        for m in range(self.k, self.n + 1):
            ends.append(self.index(m, 0))
            if m > 0:
                ends.append(self.index(m, 2 * m))
            for p in range(1, 2 * m):
                (reds if p % 2 else inner).append(self.index(m, p))
        return ends + inner + reds

    def mirror_permutation(self) -> list[int]:
        """The axial reflection (m, p) -> (m, 2m - p) as a vertex permutation."""
        out = []
        for v in range(self.vertex_count):
            m, p = self.position(v)
            out.append(self.index(m, 2 * m - p))
        return out

    def induced_edges(self, keep: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
        """Subgraph on ``keep`` (original vertex ids), reindexed 0..len-1.
        Returns (vertex count, edge list)."""
        pos = {v: i for i, v in enumerate(keep)}
        es = [
            (pos[a], pos[b]) for a, b in self.edges if a in pos and b in pos
        ]
        return len(keep), es


def permutation_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- builders --------------------------------------------------------------------


def _weight(name: str, params: Mapping[str, object] | None):
    if params and name in params:
        return params[name]
    i = int(name[1:])
    return xvar(i) if name[0] == "x" else yvar(i)


def build_T(m: int, params: Mapping[str, object] | None = None) -> PolyMatrix:
    """Row block: tridiagonal 1s of size 2m+1 with the boundary weights in
    the corners; T_0 degenerates to the 1x1 self-weight x_0 + y_0.  It is
    H_{m,m}, the trapezium of row m alone."""
    return build_huckel(m, m, params)  # TriangleGraph(m, m) raises BadRange


def build_R(m: int) -> PolyMatrix:
    """Vertical-edge block, (2m+1) x (2m-1): ones at (2j+1, 2j)."""
    if m < 1:
        raise BadRange("m must be >= 1")
    rows = [[0] * (2 * m - 1) for _ in range(2 * m + 1)]
    for j in range(m):
        rows[2 * j + 1][2 * j] = 1
    return PolyMatrix(rows)


def _corner_weights(k: int, n: int, params) -> tuple[list, list]:
    """x_m and y_m for the rows m = k..n, in row order."""
    rows = range(k, n + 1)
    return [_weight(f"x{m}", params) for m in rows], [_weight(f"y{m}", params) for m in rows]


def _huckel_nonzeros(k: int, n: int, one, x: Sequence, y: Sequence) -> list[dict]:
    """The entries of H_{k,n} off its structural zeros, one {column: entry}
    dict per vertex in ascending column order: ``one`` on both ends of every
    bond, y_m = ``y[m - k]`` from the left end of row m to its right end and
    x_m = ``x[m - k]`` back, and y_0 + x_0 on the apex.  A weight that is
    zero is written as it is.

    Row m starts at vertex m^2 - k^2.  Its position p bonds to p - 1 and
    p + 1 within the row; an odd p also to p - 1 of the row above, and an
    even p to p + 1 of the row below.
    """
    rows = []
    for m in range(k, n + 1):
        off = m * m - k * k
        last = off + 2 * m  # the row's right end
        down = 2 * m + 2  # from (m, p) to (m + 1, p + 1)
        below = m < n
        if m == 0:
            rows.append({0: y[0] + x[0], 2: one} if below else {0: y[0] + x[0]})
            continue
        rows.append({off + 1: one, last: y[m - k], last + 2: one} if below
                    else {off + 1: one, last: y[m - k]})
        for v in range(off + 1, last, 2):
            # odd position, then the even one after it unless that is the end
            rows.append({v - 2 * m: one, v - 1: one, v + 1: one} if m > k
                        else {v - 1: one, v + 1: one})
            if v + 1 < last:
                rows.append({v: one, v + 2: one, v + 1 + down: one} if below
                            else {v: one, v + 2: one})
        rows.append({off: x[m - k], last - 1: one, last + down: one} if below
                    else {off: x[m - k], last - 1: one})
    return rows


def _huckel_rows(
    k: int, n: int, params: Mapping[str, object] | None = None
) -> tuple[list[dict], str]:
    """H_{k,n} as ``_ring_rows(build_huckel(k, n, params))`` reads it, built
    from the row geometry without the dense matrix: its nonzero entries,
    one {column: entry} dict per vertex, every entry in their ring, and that
    ring.  The ring is that of the weights; the bonds' 1s come out as its one."""
    TriangleGraph(k, n)  # raises BadRange
    x, y = _corner_weights(k, n, params)
    corners = x + y if k else [y[0] + x[0], *x[1:], *y[1:]]
    kind = _ring_of(filter(None, corners))
    one = 1
    if kind != "int":
        lift = _lifter(kind, filter(None, corners))
        x, y, one = [*map(lift, x)], [*map(lift, y)], lift(1)
    rows = _huckel_nonzeros(k, n, one, x, y)
    if all(corners):
        return rows, kind
    return [{j: e for j, e in row.items() if e} for row in rows], kind


def build_huckel(
    k: int, n: int, params: Mapping[str, object] | None = None
) -> PolyMatrix:
    """Adjacency matrix of the trapezium with rows k..n (triangle if k=0),
    dense: int 1s on the bonds and each weight as it is given.

    ``params`` optionally assigns values to the boundary weights by name
    ("x3", "y3", ...); unassigned weights stay symbolic.
    """
    TriangleGraph(k, n)  # raises BadRange
    return _dense(_huckel_nonzeros(k, n, 1, *_corner_weights(k, n, params)))


def bivariate_params(k: int, n: int, x, y) -> dict[str, object]:
    """Assignment collapsing every row pair to the same (x, y)."""
    out: dict[str, object] = {}
    for m in range(k, n + 1):
        out[f"x{m}"] = x
        out[f"y{m}"] = y
    return out


def build_pascal(kind: str, n: int) -> PolyMatrix:
    """Pascal matrices of size n+1: 'lower' P, 'inverse-lower' P^-1 with
    alternating signs, 'symmetric' Q = P P^T with entries C(i+j, j)."""
    if n < 0:
        raise BadRange("n must be >= 0")
    if kind == "lower":
        f = lambda i, j: comb(i, j) if j <= i else 0
    elif kind == "inverse-lower":
        f = lambda i, j: (-1) ** (i + j) * comb(i, j) if j <= i else 0
    elif kind == "symmetric":
        f = lambda i, j: comb(i + j, j)
    else:
        raise BadRange(f"unknown Pascal kind {kind!r}")
    return PolyMatrix([[f(i, j) for j in range(n + 1)] for i in range(n + 1)])


def _reduced_rows(
    k: int, n: int, params: Mapping[str, object] | None = None
) -> tuple[list[dict], str]:
    """The binomial matrix of size n+1-k conjectured to share the trapezium
    determinant, as its nonzero rows in one ring and that ring, as
    ``_huckel_rows`` gives H_{k,n}: row i carries the weights of row
    m = n - i of the trapezium, x_m + y_m on the diagonal, upper entries
    (-1)^(j-i) C(m, j-i) y_m and lower entries C(n-j, i-j) x_{n-j}.  An
    entry whose weight is zero is left out.

    Sign convention: the first superdiagonal is negative, matching
    (0,1) = -C(n,1) y_n.
    """
    TriangleGraph(k, n)  # raises BadRange
    x, y = _corner_weights(k, n, params)
    # row i, and column i below the diagonal, take the weights of row n - i
    x.reverse()
    y.reverse()
    diagonal = [a + b for a, b in zip(x, y)]
    # the last row's weights stand only in its diagonal
    weights = [*filter(None, x[:-1] + y[:-1] + diagonal)]
    kind = _ring_of(weights)
    if kind != "int":
        lift = _lifter(kind, weights)
        x, y, diagonal = [*map(lift, x)], [*map(lift, y)], [*map(lift, diagonal)]
    d = n + 1 - k
    rows = []
    for i in range(d):
        row = {j: comb(n - j, i - j) * x[j] for j in range(i) if x[j]}
        if diagonal[i]:
            row[i] = diagonal[i]
        if y[i]:
            m = n - i
            for j in range(i + 1, d):
                row[j] = (-1) ** (j - i) * comb(m, j - i) * y[i]
        rows.append(row)
    return rows, kind


def build_reduced(k: int, n: int) -> PolyMatrix:
    """The binomial matrix of size n+1-k conjectured to share the trapezium
    determinant, symbolic and dense: the view of ``_reduced_rows(k, n)``."""
    return _dense(_reduced_rows(k, n)[0])


def build_general_binomial(m: int, n: int, omega) -> PolyMatrix:
    """Size n+1 with entries C(m+j+k, k) + omega * delta_jk.

    ``omega`` may be an int, CycInt or GaussInt; non-int omega lifts the
    whole matrix into that ring so downstream elimination stays exact.
    """
    if m < 0 or n < 0:
        raise BadRange("m and n must be >= 0")
    lift = _LIFTS[_ring_of((omega,))]
    return PolyMatrix(
        [
            [
                lift(comb(m + j + kk, kk)) + (omega if j == kk else 0)
                for kk in range(n + 1)
            ]
            for j in range(n + 1)
        ]
    )


def alternating_unit_vector(n: int) -> list[int]:
    """The length 2n-1 pattern 1, 0, -1, 0, 1, ..."""
    return [(-1) ** (t // 2) if t % 2 == 0 else 0 for t in range(2 * n - 1)]


def build_bordered(n: int) -> PolyMatrix:
    """One Schur step applied to the triangle: size n^2+1, corner x_n + y_n,
    border row (-1)^n x_n U^T and column y_n U with U = (n-1)^2 zeros followed
    by the alternating unit vector, wrapped around the previous triangle."""
    if n < 1:
        raise BadRange("n must be >= 1")
    u = alternating_unit_vector(n)
    U = [0] * (n - 1) ** 2 + u
    x, y = xvar(n), yvar(n)
    sign = (-1) ** n
    inner = build_huckel(0, n - 1)
    top = [svar(n)] + [sign * (x * t) if t else 0 for t in U]
    rows = [top]
    for i in range(n * n):
        rows.append([y * U[i] if U[i] else 0] + list(inner.rows[i]))
    return PolyMatrix(rows)


def symmetric_block_form(k: int, n: int) -> tuple[PolyMatrix, int]:
    """Color-sorted, mirror-symmetrized matrix and its determinant sign.

    First conjugate by the color-sorted order (parameters gather in the
    top-left block), then permute rows by the axial mirror so each weight
    lands on the diagonal.  det(result) = sign * det(original).
    """
    g = TriangleGraph(k, n)
    order = g.color_sorted_order()
    tilde = build_huckel(k, n).permuted(order)
    mirror = g.mirror_permutation()
    where = {v: a for a, v in enumerate(order)}
    rho = [where[mirror[order[a]]] for a in range(len(order))]
    return tilde.row_permuted(rho), permutation_sign(rho)
