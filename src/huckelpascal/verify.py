"""Conjecture harness: equality verdicts with recorded witnesses.

Every check computes its two sides through algorithmically independent
routes - different determinant strategies, the condensation pipeline
against direct elimination, or permanent against determinant - so a bug
in one algorithm cannot silently confirm itself.  Symbolic comparisons
are exact polynomial identities; specialized comparisons evaluate both
sides at seeded random integer points and the report documents an upper
bound on the random-evaluation (Schwartz-Zippel) false-pass probability
instead of pretending to be exact: degree d over N - 1 values per point,
since a pair of weights summing to 0 is redrawn out of N, printed rounded
up.  Reruns with the same seed are bit-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from decimal import ROUND_CEILING, Context
from fractions import Fraction
from math import factorial

from .linalg import (
    StrategyPrecondition,
    _det_rows,
    _parity_census,
    _permanent_rows,
    charpoly,
    coefficient_list,
    huckel_guard,
)
from .matrices import (
    TriangleGraph,
    _huckel_rows,
    _reduced_rows,
    bivariate_params,
    build_pascal,
)
from .poly import MultiPoly, svar, xvar, yvar, zvar
from .schur import _condensed_det, condensation_det


@dataclass
class VerifyReport:
    conjecture: str
    instance: dict
    mode: str
    method: str
    lhs: str
    rhs: str
    verdict: str
    seed: int | None = None
    details: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        # elapsed time stays on the object (console display only) so that
        # JSON artifacts are byte-identical across reruns
        out = asdict(self)
        del out["elapsed_s"]
        return out


def _report(t0: float, ok: bool, **fields) -> VerifyReport:
    """The report of a check that started at perf_counter() t0 and found
    ``ok``; ``fields`` are the other fields of ``VerifyReport``."""
    return VerifyReport(
        verdict="pass" if ok else "fail", elapsed_s=time.perf_counter() - t0, **fields
    )


def _draw_params(rng: random.Random, k: int, n: int, lo: int, hi: int) -> dict:
    """One random weight per boundary slot; pairs with x_m + y_m = 0 are
    redrawn so the condensation cross-route stays defined."""
    params = {}
    for m in range(k, n + 1):
        while True:
            xv, yv = rng.randint(lo, hi), rng.randint(lo, hi)
            if xv + yv != 0:
                break
        params[f"x{m}"] = xv
        params[f"y{m}"] = yv
    return params


# each specialized report's draws as (points, half-width): every weight of
# a point is drawn from -half..half, and the printed bound reads the same
# pair, over 2 * half + 1 values
_REDUCTION_DRAWS = (5, 10**6)
_CONJ3_DRAWS = (3, 10**6)


def _degree_bound(*matrices: tuple[list[dict], str]) -> int:
    """A bound on the total degree of the determinant and the permanent of
    each symbolic matrix, given as its nonzero rows and ring as
    ``_huckel_rows`` and ``_reduced_rows`` return them, every entry a
    nonzero MultiPoly: the sum over rows of the largest total degree of that
    row's entries, taken over the matrices compared."""
    return max(
        sum(max(e.total_degree() for e in row.values()) for row in rows)
        for rows, _ in matrices
    )


def _sz_bound(degree: int, domain: int, points: int) -> str:
    """The Schwartz-Zippel bound for ``points`` independent draws of
    ``_draw_params`` over ``domain`` values.  A pair summing to 0 is redrawn,
    so given the other weight of its pair each weight is one of domain - 1
    values, and a point falsely passes with probability at most
    degree / (domain - 1).  Both printed values are rounded up."""
    single = Fraction(degree, domain - 1)
    return (
        f"random-evaluation bound: degree {degree}, each weight one of "
        f"{domain - 1} values given the other weight of its pair, gives "
        f"false-pass probability <= {_round_up(single)} per point, "
        f"<= {_round_up(single**points)} over {points} independent points"
    )


_CEILING_3 = Context(prec=3, rounding=ROUND_CEILING)


def _round_up(p: Fraction) -> str:
    """p rounded up to three significant digits, printed as ``:.3g``."""
    return f"{float(_CEILING_3.divide(p.numerator, p.denominator)):.3g}"


# -- conjectures 1 and 2: triangle / trapezium determinant = its reduction ------


def verify_conjecture1(n: int, mode: str = "symbolic", seed: int | None = 0) -> VerifyReport:
    """Conjecture 2 at k = 0: det H_n equals the determinant of its
    size-(n+1) reduction.  See ``verify_conjecture2``."""
    return _verify_reduction("conj1", 0, n, mode, seed)


def verify_conjecture2(
    k: int, n: int, mode: str = "symbolic", seed: int | None = 0
) -> VerifyReport:
    """det H_{k,n} equals the determinant of its size-(n+1-k) reduction.

    Symbolic: condensation against the signed walk on the reduced matrix,
    and against elimination on H_{k,n} at a seeded point.  Specialized: at
    five seeded points, four values from four different codes must agree:
    fraction-free elimination on H_{k,n} and condensation on the left,
    fraction-free elimination and the division-free (Berkowitz) algorithm
    on the reduced matrix written at the point on the right; conj1 adds the
    unit-y corollary.  The caps of these routes, checked before anything is
    built, allow 144 vertices, and symbolically 8 rows."""
    return _verify_reduction("conj2", k, n, mode, seed)


def _verify_reduction(
    conjecture: str, k: int, n: int, mode: str, seed: int | None
) -> VerifyReport:
    t0 = time.perf_counter()
    if mode == "symbolic":
        # condensation_det checks every cap before it builds anything
        lhs = condensation_det(k, n)
        rhs = _det_rows(_reduced_rows(k, n), "sparse-minor-expansion")
        rng = random.Random(20260815 + 100 * k + n)
        point = _draw_params(rng, k, n, -999, 999)
        spot_direct = _det_rows(_huckel_rows(k, n, point))
        spot_lhs = lhs.evaluate(point)
        spot_ok = spot_lhs == spot_direct
        ok = lhs == rhs and spot_ok
        lhs, rhs, seed = str(lhs), str(rhs), None
        method = "condensation pipeline vs sparse minor expansion"
        details = {
            "spot_check": {
                "point": point,
                "condensed": str(spot_lhs),
                "direct": str(spot_direct),
                "pass": spot_ok,
            }
        }
    elif mode == "specialized":
        huckel_guard(k, n, "fraction-free-elimination", "numeric", f"specialized {conjecture}")
        # the symbolic matrices, built once, bound the degree
        templates = _huckel_rows(k, n), _reduced_rows(k, n)
        rng = random.Random(seed)
        samples = []
        ok = True
        points, half = _REDUCTION_DRAWS
        for _ in range(points):
            params = _draw_params(rng, k, n, -half, half)
            # one H_{k,n} per point, read by elimination and by condensation,
            # and one reduced matrix, read by elimination and by Berkowitz
            h = _huckel_rows(k, n, params)
            reduced = _reduced_rows(k, n, params)
            lhs = _det_rows(h)
            lhs2 = _condensed_det(h, k, n, params)
            rhs = _det_rows(reduced)
            rhs2 = _det_rows(reduced, "division-free")
            ok = ok and lhs == lhs2 == rhs == rhs2
            samples.append({"point": params, "lhs": str(lhs), "rhs": str(rhs)})
        lhs = str([s["lhs"] for s in samples])
        rhs = str([s["rhs"] for s in samples])
        method = "direct elimination + condensation vs reduced matrix (two strategies)"
        details = {
            "samples": samples,
            "probability": _sz_bound(_degree_bound(*templates), 2 * half + 1, points),
        }
        if conjecture == "conj1":
            corr = _unit_y_corollary(rng, n)
            ok = ok and corr["pass"]
            details["unit_y_corollary"] = corr
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _report(t0, ok, conjecture=conjecture, instance={"k": k, "n": n}, mode=mode,
                   method=method, lhs=lhs, rhs=rhs, seed=seed, details=details)


def _unit_y_corollary(rng: random.Random, n: int) -> dict:
    """det H_n({x}, 1) = det(Q_n D + I) with D = diag(x_i): the
    cleared-denominator form of the diagonal-shift identity."""
    xs = [rng.randint(1, 10**6) for _ in range(n + 1)]
    params = {}
    for i, v in enumerate(xs):
        params[f"x{i}"] = v
        params[f"y{i}"] = 1
    lhs = _det_rows(_huckel_rows(0, n, params))
    shifted = [
        {j: q * xj + (1 if i == j else 0) for j, (q, xj) in enumerate(zip(row, xs))}
        for i, row in enumerate(build_pascal("symmetric", n).rows)
    ]
    rhs = _det_rows((shifted, "int"))
    return {"pass": lhs == rhs, "x": xs, "lhs": str(lhs), "rhs": str(rhs)}


# -- conjecture 3: permanent = determinant ----------------------------------------


def verify_conjecture3(
    k: int, n: int, mode: str = "symbolic", seed: int | None = 0
) -> VerifyReport:
    """perm H_{k,n} = det H_{k,n}, the permanent by the unsigned frontier
    walk and the determinant by block condensation on the symbolic matrix,
    or by fraction-free elimination at three seeded integer points.  The
    guards of those routines bound the size: the walk's state budget and
    row caps, and the elimination row cap."""
    t0 = time.perf_counter()
    # the cap that binds in each mode, checked before the matrix is built
    if mode == "symbolic":
        huckel_guard(k, n, "sparse-minor-expansion", "symbolic", "symbolic conj3")
        points = [None]
    elif mode == "specialized":
        huckel_guard(k, n, "fraction-free-elimination", "numeric", "specialized conj3")
        rng = random.Random(seed)
        count, half = _CONJ3_DRAWS
        points = [_draw_params(rng, k, n, -half, half) for _ in range(count)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    details: dict = {}
    symbolic = _huckel_rows(k, n)  # for the census, the symbolic sides and the bound
    if TriangleGraph(k, n).vertex_count <= 9:
        even, odd = _parity_census(symbolic[0])
        details["parity_census"] = {
            "even": even,
            "odd": odd,
            "all_contributions_even": odd == 0,
        }
    perms, dets = [], []
    for params in points:
        h = symbolic if params is None else _huckel_rows(k, n, params)
        perms.append(_permanent_rows(h))
        dets.append(_det_rows(h) if params is not None else condensation_det(k, n))
    census = details.get("parity_census")
    ok = perms == dets and (census is None or census["all_contributions_even"])
    if mode == "symbolic":
        lhs, rhs, seed = str(perms[0]), str(dets[0]), None
        method = "frontier expansion vs block condensation"
    else:
        method = "frontier expansion vs fraction-free elimination"
        details["samples"] = [
            {"point": p, "perm": str(a), "det": str(b)}
            for p, a, b in zip(points, perms, dets)
        ]
        details["probability"] = _sz_bound(_degree_bound(symbolic), 2 * half + 1, count)
        lhs, rhs = str([str(a) for a in perms]), str([str(b) for b in dets])
    return _report(t0, ok, conjecture="conj3", instance={"k": k, "n": n}, mode=mode,
                   method=method, lhs=lhs, rhs=rhs, seed=seed, details=details)


# -- structural propositions -------------------------------------------------------


def verify_props(n: int) -> VerifyReport:
    """Shape facts about det H_n plus the trapezium deletion recursion.

    Checks: (a) the bivariate determinant is homogeneous, palindromic and
    monic at both pure powers, read from the golden row: homogeneity is
    what ``bivariate_row`` established before it returned, palindromy is
    the row equal to its reverse, and the two pure powers are its first
    and last entries; (b) multivariate homogeneity and x<->y
    symmetry (n <= 4); (c) global rescaling multiplies the determinant by
    t^(n+1), run at a symbolic t; (d) the determinant against the
    characteristic polynomial of the symmetric Pascal matrix; (e) the
    two-vertex deletion recursion on three trapezium instances.  The
    golden row runs first, so its guard (144 vertices, n <= 11) refuses a
    larger n before anything is built.
    """
    t0 = time.perf_counter()
    checks: dict = {}

    row = bivariate_row(n)[1]
    shape = {
        "homogeneous": True,
        "palindromic": row == row[::-1],
        "monic_extremes": row[0] == row[-1] == 1,
    }
    checks["bivariate_shape"] = shape

    cs = coefficient_list(charpoly(build_pascal("symmetric", n)), "z", n + 1)
    checks["charpoly_homogenization"] = {
        "charpoly": cs,
        "det_row": row,
        "pass": row == cs,
    }

    if n <= 4 and n >= 1:
        full = condensation_det(0, n)
        checks["multivariate_shape"] = {
            "homogeneous": full.is_homogeneous(n + 1),
            "xy_symmetric": full.swap_xy() == full,
        }
        scaled_params = {}
        for i in range(n + 1):
            scaled_params[f"x{i}"] = zvar() * xvar(i)
            scaled_params[f"y{i}"] = zvar() * yvar(i)
        scaled = condensation_det(0, n, scaled_params)
        checks["t_scaling"] = {"pass": scaled == zvar() ** (n + 1) * full}

    recursion = {}
    for kk, nn in ((1, 2), (1, 3), (2, 3)):
        recursion[f"{kk},{nn}"] = _deletion_recursion(kk, nn)
    checks["deletion_recursion"] = recursion

    ok = (
        all(shape.values())
        and checks["charpoly_homogenization"]["pass"]
        and all(r["pass"] for r in recursion.values())
    )
    if "multivariate_shape" in checks:
        ok = ok and all(checks["multivariate_shape"].values())
        ok = ok and checks["t_scaling"]["pass"]
    return _report(t0, ok, conjecture="props", instance={"k": 0, "n": n}, mode="symbolic",
                   method="interpolated/condensed determinants vs direct structure checks",
                   lhs=str(row), rhs=str(cs), details=checks)


def bivariate_row(n: int) -> tuple[MultiPoly, list[int]]:
    """det H_n with every weight pair collapsed to (x0, y0), and its
    coefficients from x0^(n+1) down to y0^(n+1): row n of the golden table.

    The determinant is homogeneous of degree d = n + 1, so it is sampled at
    (1, t) for t = 0..d by integer elimination and recovered by Newton's
    forward differences; a sample at (2, 2) must equal 2^d times the sum
    of the coefficients."""
    huckel_guard(0, n, "fraction-free-elimination", "numeric", "bivariate row")
    d = n + 1

    def sample(xv: int, yv: int) -> int:
        return _det_rows(
            _huckel_rows(0, n, bivariate_params(0, n, xv, yv)),
            "fraction-free-elimination",
        )

    row = _interpolate([sample(1, t) for t in range(d + 1)])
    if sample(2, 2) != 2**d * sum(row):
        raise StrategyPrecondition(f"determinant is not homogeneous of degree {d}")
    p = MultiPoly({(d - j, j, 0): c for j, c in enumerate(row) if c}, 1)
    return p, row


def _interpolate(values: list[int]) -> list[int]:
    """Coefficients [c_0..c_d] of the unique polynomial of degree <= d with
    p(t) = values[t] for t = 0..d, by Newton's forward differences in
    integers: p(t) = sum_j a_j t(t-1)...(t-j+1) with a_j = Δ^j p(0) / j!,
    expanded by Horner's rule.  A non-integer a_j (exactly when some c_k is
    not an integer) raises StrategyPrecondition."""
    newton = []
    diffs = list(values)
    for j in range(len(values)):
        a, r = divmod(diffs[0], factorial(j))
        if r:
            raise StrategyPrecondition(
                f"non-integer coefficient {diffs[0]}/{j}! recovered"
            )
        newton.append(a)
        diffs = [q - p for p, q in zip(diffs, diffs[1:])]
    # Horner: c <- c * (t - j) + a_j for j = d - 1, ..., 0
    coeffs = [newton[-1]]
    for j in range(len(values) - 2, -1, -1):
        shifted = [0] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= j * c
        shifted[0] += newton[j]
        coeffs = shifted
    return coeffs


def _deletion_recursion(k: int, n: int) -> dict:
    """det H_{k,n} = S_n det H_{k,n-1} - x_n y_n det H'_{k,n}, where H'
    removes the two rows and columns carrying the weights x_n, y_n.  The
    left side runs condensation, the right side the signed frontier walk."""
    g = TriangleGraph(k, n)
    rows, kind = _huckel_rows(k, n)
    ends = {g.index(n, 0), g.index(n, 2 * n)}
    lhs = condensation_det(k, n)
    inner = _det_rows(_huckel_rows(k, n - 1), "sparse-minor-expansion")
    # H' on the sparse rows: the two rows and columns go, the rest renumber
    kept = {v: i for i, v in enumerate(v for v in range(len(rows)) if v not in ends)}
    pruned = [{kept[j]: e for j, e in rows[v].items() if j in kept} for v in kept]
    pruned = _det_rows((pruned, kind), "sparse-minor-expansion")
    rhs = svar(n) * inner - xvar(n) * yvar(n) * pruned
    return {"pass": lhs == rhs}
