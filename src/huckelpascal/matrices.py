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
Also built here: the symmetric Pascal family P_n, P_n^-1, Q_n, the reduced
binomial matrix conjectured to share the trapezium determinant, the
general binomial matrix with a diagonal shift, and the bordered matrix
produced by one Schur-complement step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        rows = tuple(tuple(r) for r in rows)
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
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(tuple(tuple(str(e) for e in r) for r in self.rows))

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

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            # each column's nonzero (index, entry) pairs, in index order
            cols = [
                [(i, b) for i, b in enumerate(col) if _nz(b)]
                for col in other.transpose().rows
            ]
            out = []
            for row in self.rows:
                nz = [_nz(a) for a in row]
                out.append(
                    [sum((row[i] * b for i, b in col if nz[i]), 0) for col in cols]
                )
            return PolyMatrix(out)
        return self.map_entries(lambda e: e * other if _nz(e) else e * 0)

    def scaled(self, c) -> "PolyMatrix":
        return self.map_entries(lambda e: c * e)

    def submatrix(self, rs: Sequence[int], cs: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.rows[i][j] for j in cs] for i in rs])

    def deleting(self, rows: Iterable[int], cols: Iterable[int]) -> "PolyMatrix":
        rset, cset = set(rows), set(cols)
        return self.submatrix(
            [i for i in range(self.nrows) if i not in rset],
            [j for j in range(self.ncols) if j not in cset],
        )

    def permuted(self, order: Sequence[int]) -> "PolyMatrix":
        """Conjugate by a permutation: entry (a,b) <- (order[a], order[b])."""
        return PolyMatrix(
            [[self.rows[i][j] for j in order] for i in order]
        )

    def row_permuted(self, order: Sequence[int]) -> "PolyMatrix":
        """Permute rows only: row a <- row order[a]."""
        return PolyMatrix([self.rows[i] for i in order])

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [[_entry_text(e) for e in row] for row in self.rows],
        }

    def to_grid(self) -> str:
        cells = [[_entry_text(e) for e in row] for row in self.rows]
        widths = [
            max(len(cells[i][j]) for i in range(self.nrows))
            for j in range(self.ncols)
        ]
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
        )


def _nz(e) -> bool:
    return not (e == 0)


def _entry_text(e) -> str:
    if isinstance(e, MultiPoly):
        return e.to_text()
    return str(e)


def evaluate_matrix(M: PolyMatrix, assignment: Mapping[str, object]) -> PolyMatrix:
    """Evaluate every polynomial entry at the assignment; ints pass through."""
    return M.map_entries(
        lambda e: e.evaluate(assignment) if isinstance(e, MultiPoly) else e
    )


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
    def row_lengths(self) -> list[int]:
        return [2 * m + 1 for m in range(self.k, self.n + 1)]

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

    @staticmethod
    def color(m: int, p: int) -> str:
        return "blue" if p % 2 == 0 else "red"

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

    def boundary_slots(self) -> list[tuple[str, int, int]]:
        """Directed weight slots (name, from_vertex, to_vertex); y_m runs
        left end -> right end, x_m the reverse.  Row 0 is a self-slot."""
        slots = []
        for m in range(self.k, self.n + 1):
            left, right = self.index(m, 0), self.index(m, 2 * m)
            slots.append((f"y{m}", left, right))
            slots.append((f"x{m}", right, left))
        return slots

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        for _, a, b in self.boundary_slots():
            deg[a] += 1  # each directed slot counted once, at its source
        return deg

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
    the corners; T_0 degenerates to the 1x1 self-weight x_0 + y_0."""
    if m < 0:
        raise BadRange("m must be >= 0")
    x, y = _weight(f"x{m}", params), _weight(f"y{m}", params)
    if m == 0:
        return PolyMatrix([[x + y]])
    d = 2 * m + 1
    rows = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i][i + 1] = 1
        rows[i + 1][i] = 1
    rows[0][d - 1] = y
    rows[d - 1][0] = x
    return PolyMatrix(rows)


def build_R(m: int) -> PolyMatrix:
    """Vertical-edge block, (2m+1) x (2m-1): ones at (2j+1, 2j)."""
    if m < 1:
        raise BadRange("m must be >= 1")
    rows = [[0] * (2 * m - 1) for _ in range(2 * m + 1)]
    for j in range(m):
        rows[2 * j + 1][2 * j] = 1
    return PolyMatrix(rows)


def build_huckel(
    k: int, n: int, params: Mapping[str, object] | None = None
) -> PolyMatrix:
    """Adjacency matrix of the trapezium with rows k..n (triangle if k=0).

    ``params`` optionally assigns values to the boundary weights by name
    ("x3", "y3", ...); unassigned weights stay symbolic.
    """
    g = TriangleGraph(k, n)
    N = g.vertex_count
    rows = [[0] * N for _ in range(N)]
    for a, b in g.edges:
        rows[a][b] = 1
        rows[b][a] = 1
    for name, a, b in g.boundary_slots():
        w = _weight(name, params)
        if a == b:
            rows[a][b] = rows[a][b] + w
        else:
            rows[a][b] = w
    return PolyMatrix(rows)


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


def build_reduced(k: int, n: int) -> PolyMatrix:
    """The binomial matrix of size n+1-k conjectured to share the trapezium
    determinant: diagonal x_{n-i} + y_{n-i}, upper entries alternating-sign
    binomials times y, lower entries positive binomials times x.

    Sign convention: entry (i, j) for i < j is (-1)^(j-i) C(n-i, j-i) y_{n-i},
    so the first superdiagonal is negative, matching (0,1) = -C(n,1) y_n.
    """
    if not 0 <= k <= n:
        raise BadRange(f"need 0 <= k <= n, got ({k}, {n})")
    d = n + 1 - k
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                row.append(svar(n - i))
            elif i < j:
                row.append((-1) ** (j - i) * comb(n - i, j - i) * yvar(n - i))
            else:
                row.append(comb(n - j, i - j) * xvar(n - j))
        rows.append(row)
    return PolyMatrix(rows)


def build_general_binomial(m: int, n: int, omega) -> PolyMatrix:
    """Size n+1 with entries C(m+j+k, k) + omega * delta_jk.

    ``omega`` may be an int, CycInt or GaussInt; non-int omega lifts the
    whole matrix into that ring so downstream elimination stays exact.
    """
    if m < 0 or n < 0:
        raise BadRange("m and n must be >= 0")
    if isinstance(omega, CycInt):
        lift: Callable = CycInt
    elif isinstance(omega, GaussInt):
        lift = GaussInt
    else:
        lift = int
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
