"""Brute-force enumerators used to ground-truth the closed-form counts.

Nothing here knows any product formula: plane partitions are enumerated
row by row under column dominance, perfect matchings by vertex-elimination
recursion, and coefficient squareness by exact integer square roots.
These are the independent baselines the formulas modules are tested
against, so they stay deliberately naive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import isqrt
from typing import Iterable, Sequence

from .linalg import size_guard
from .matrices import BadRange
from .poly import MultiPoly


def count_plane_partitions(a: int, b: int, c: int) -> int:
    """Number of a x b arrays with entries in [0, c], weakly decreasing
    along rows and columns (equivalently, lozenge tilings of the a,b,c
    hexagon)."""
    if min(a, b, c) < 0:
        raise BadRange("box sides must be >= 0")
    if a * b * c == 0:
        return 1
    size_guard(a * b * c, 64, "plane-partition enumeration")
    rows = [
        tuple(sorted(comb, reverse=True))
        for comb in combinations_with_replacement(range(c + 1), b)
    ]
    counts = {row: 1 for row in rows}
    for _ in range(a - 1):
        nxt = {}
        for row, ways in counts.items():
            for lower in rows:
                if all(lo <= hi for lo, hi in zip(lower, row)):
                    nxt[lower] = nxt.get(lower, 0) + ways
        counts = nxt
    return sum(counts.values())


def count_matchings(n_vertices: int, edges: Iterable[tuple[int, int]]) -> int:
    """Perfect matchings of the graph, by always matching the lowest
    unmatched vertex.  Odd vertex counts fall out as 0."""
    size_guard(n_vertices, 32, "matching enumeration vertex count")
    adj = [0] * n_vertices
    for u, v in edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
            raise BadRange(f"bad edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 1
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        total = 0
        avail = adj[v] & mask
        while avail:
            low = avail & -avail
            w = low.bit_length() - 1
            total += rec(mask ^ (1 << v) ^ (1 << w))
            avail ^= low
        memo[mask] = total
        return total

    return rec((1 << n_vertices) - 1)


@dataclass(frozen=True)
class AuditEntry:
    monomial: str
    coefficient: int
    root: int | None


def square_coefficient_audit(p: MultiPoly) -> list[AuditEntry]:
    """Check every monomial coefficient for being a perfect square.

    Failures become entries with root None rather than exceptions, so a
    report can show exactly which monomials (if any) break the pattern.
    """
    report = []
    for exp, coef in p.sorted_terms():
        root = None
        if coef >= 0:
            r = isqrt(coef)
            if r * r == coef:
                root = r
        monomial = MultiPoly({exp: 1}, p.varcount).to_text()
        report.append(AuditEntry(monomial=monomial, coefficient=coef, root=root))
    return report


def audit_passes(report: Sequence[AuditEntry]) -> bool:
    return all(e.root is not None for e in report)
