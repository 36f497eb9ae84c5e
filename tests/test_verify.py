"""Verification-harness tests: verdicts, goldens, guards, determinism."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huckelpascal import linalg, schur, verify
from huckelpascal.linalg import StrategyPrecondition, TooLarge
from huckelpascal.matrices import build_pascal
from huckelpascal.poly import svar, xvar, yvar
from huckelpascal.verify import (
    VerifyReport,
    _draw_params,
    _sz_bound,
    bivariate_row,
    verify_conjecture1,
    verify_conjecture2,
    verify_conjecture3,
    verify_props,
)

BIVARIATE_ROWS = {
    4: [1, 99, 626, 626, 99, 1],
    5: [1, 351, 6084, 13869, 6084, 351, 1],
    6: [1, 1275, 64974, 347020, 347020, 64974, 1275, 1],
}


class TestConjecture1:
    @pytest.mark.parametrize("n", [
        0, 1, 2, 3, 4, 5,
        pytest.param(6, marks=pytest.mark.slow),
        pytest.param(7, marks=pytest.mark.slow),
    ])
    def test_symbolic_distinct_parameters(self, n):
        r = verify_conjecture1(n, "symbolic")
        assert r.passed()
        assert r.method == "condensation pipeline vs sparse minor expansion"
        assert r.details["spot_check"]["pass"]
        assert r.lhs == r.rhs
        # every weight pair stays its own pair of variables
        from huckelpascal.poly import poly_from_text

        names = poly_from_text(r.lhs).used_variables()
        assert names == {f"{c}{i}" for c in "xy" for i in range(n + 1)}

    def test_is_conj2_at_k_zero(self):
        one = verify_conjecture1(3).to_json()
        two = verify_conjecture2(0, 3).to_json()
        assert one.pop("conjecture") == "conj1"
        assert two.pop("conjecture") == "conj2"
        assert one == two

    def test_symbolic_n2_collapses_to_known_bivariate_form(self):
        r = verify_conjecture1(2, "symbolic")
        x, y = xvar(0), yvar(0)
        want = x**3 + 9 * x**2 * y + 9 * x * y**2 + y**3
        from huckelpascal.poly import poly_from_text

        collapsed = poly_from_text(r.lhs).evaluate(
            {f"x{i}": x for i in range(3)} | {f"y{i}": y for i in range(3)}
        )
        assert collapsed == want

    def test_specialized_runs_five_points_and_corollary(self):
        r = verify_conjecture1(3, "specialized", seed=42)
        assert r.passed()
        assert len(r.details["samples"]) == 5
        assert r.details["unit_y_corollary"]["pass"]
        assert r.seed == 42
        # the documented failure bound is far below the 1e-20 target
        assert "5.26e-28" in r.details["probability"]

    def test_specialized_rerun_is_bit_identical(self):
        a = verify_conjecture1(2, "specialized", seed=5)
        b = verify_conjecture1(2, "specialized", seed=5)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_different_seeds_draw_different_points(self):
        a = verify_conjecture1(2, "specialized", seed=1)
        b = verify_conjecture1(2, "specialized", seed=2)
        assert a.details["samples"] != b.details["samples"]

    def test_symbolic_guard(self):
        # 9 rows over 18 weights: condensation's division-free last step
        with pytest.raises(TooLarge, match="16 distinct variables"):
            verify_conjecture1(8, "symbolic")

    def test_specialized_guard(self):
        with pytest.raises(TooLarge, match="specialized conj1 vertex count"):
            verify_conjecture1(12, "specialized")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_conjecture1(2, "numeric")

    @pytest.mark.slow
    def test_specialized_full_range(self):
        r = verify_conjecture1(11, "specialized", seed=0)
        assert r.passed()


class TestConjecture2:
    def test_first_worked_trapezium(self):
        r = verify_conjecture2(6, 7, "symbolic")
        assert r.passed()
        from huckelpascal.poly import poly_from_text

        want = svar(6) * svar(7) + 49 * xvar(7) * yvar(7)
        assert poly_from_text(r.lhs) == want

    def test_second_worked_trapezium(self):
        r = verify_conjecture2(7, 9, "symbolic")
        assert r.passed()
        from huckelpascal.poly import poly_from_text

        want = (
            svar(9) * svar(8) * svar(7)
            + 64 * xvar(8) * yvar(8) * svar(9)
            + 81 * xvar(9) * yvar(9) * svar(7)
            + 1296 * xvar(9) * yvar(9) * svar(8)
        )
        assert poly_from_text(r.lhs) == want

    def test_largest_worked_trapezium(self):
        r = verify_conjecture2(6, 9, "symbolic")
        assert r.passed()
        assert r.details["spot_check"]["pass"]

    @pytest.mark.parametrize("k, n", [(0, 5), (3, 6)])
    def test_specialized_builds_h_once_per_point(self, monkeypatch, k, n):
        # elimination and condensation read the same H_{k,n} at each point
        built = []
        for owner in (verify, schur):
            def recorded(*args, _fn=owner._huckel_rows, **kwargs):
                built.append(args[2] if len(args) > 2 else kwargs.get("params"))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, "_huckel_rows", recorded)
        report = verify_conjecture2(k, n, "specialized", seed=2)
        assert report.passed()
        points = [sample["point"] for sample in report.details["samples"]]
        assert built == [None] + points  # the symbolic template, then one per point

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_degenerate_strip_is_single_weight_sum(self, k):
        r = verify_conjecture2(k, k, "symbolic")
        assert r.passed()
        from huckelpascal.poly import poly_from_text

        assert poly_from_text(r.lhs) == xvar(k) + yvar(k)

    def test_specialized(self):
        r = verify_conjecture2(6, 7, "specialized", seed=9)
        assert r.passed()
        assert len(r.details["samples"]) == 5

    def test_symbolic_at_80_vertices(self):
        r = verify_conjecture2(8, 11, "symbolic")
        assert r.passed()
        assert r.details["spot_check"]["pass"]

    @pytest.mark.slow
    @pytest.mark.parametrize("k,n", [(0, 7), (1, 8)])
    def test_symbolic_at_eight_rows(self, k, n):
        r = verify_conjecture2(k, n, "symbolic")
        assert r.passed()
        assert r.details["spot_check"]["pass"]

    def test_symbolic_guard(self):
        with pytest.raises(TooLarge, match="16 distinct variables"):
            verify_conjecture2(0, 8, "symbolic")  # 9 rows over 18 weights
        with pytest.raises(TooLarge, match="condensation vertex count"):
            verify_conjecture2(7, 13, "symbolic")  # 7 rows, 147 vertices

    def test_specialized_guard(self):
        with pytest.raises(TooLarge):
            verify_conjecture2(0, 12, "specialized")


class TestConjecture3:
    @pytest.mark.parametrize("k,n", [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
    def test_symbolic_small_with_census(self, k, n):
        r = verify_conjecture3(k, n, "symbolic")
        assert r.passed()
        census = r.details["parity_census"]
        assert census["odd"] == 0
        assert census["all_contributions_even"]

    def test_census_golden_triangle_two(self):
        r = verify_conjecture3(0, 2, "symbolic")
        assert r.details["parity_census"] == {
            "even": 12,
            "odd": 0,
            "all_contributions_even": True,
        }

    def test_symbolic_trapezium(self):
        r = verify_conjecture3(2, 3, "symbolic")
        assert r.passed()
        assert "parity_census" not in r.details  # size 12 > census cap

    def test_specialized(self):
        r = verify_conjecture3(1, 3, "specialized", seed=4)
        assert r.passed()
        assert len(r.details["samples"]) == 3
        for s in r.details["samples"]:
            assert s["perm"] == s["det"]

    def test_symbolic_guard(self):
        with pytest.raises(TooLarge):
            verify_conjecture3(0, 4, "symbolic")

    def test_specialized_guard(self):
        # 100 vertices: the frontier walk's state budget refuses it
        with pytest.raises(TooLarge, match="states"):
            verify_conjecture3(0, 9, "specialized")

    @pytest.mark.parametrize("mode", ["symbolic", "specialized"])
    def test_guard_trips_before_the_matrix_is_built(self, mode, monkeypatch):
        def build(*args):
            raise AssertionError("H_{k,n} was built before the guard")

        monkeypatch.setattr(verify, "_huckel_rows", build)
        with pytest.raises(TooLarge, match="conj3 vertex count"):
            verify_conjecture3(500, 501, mode)

    @pytest.mark.parametrize("mode", ["symbolic", "specialized"])
    def test_builds_the_symbolic_matrix_once(self, mode, monkeypatch):
        # at 9 vertices the census, the symbolic sides and the degree bound
        # all read the one symbolic H_{0,2}
        built = []

        def recorded(*args, _fn=verify._huckel_rows, **kwargs):
            built.append(args[2] if len(args) > 2 else kwargs.get("params"))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verify, "_huckel_rows", recorded)
        report = verify_conjecture3(0, 2, mode, seed=4)
        assert report.passed() and "parity_census" in report.details
        points = [sample["point"] for sample in report.details.get("samples", [])]
        assert built == [None] + points

    def test_specialized_at_49_vertices(self):
        assert verify_conjecture3(0, 6, "specialized").passed()

    def test_specialized_method_names_the_permanent_route(self):
        small = verify_conjecture3(2, 3, "specialized", seed=3)
        large = verify_conjecture3(2, 4, "specialized", seed=3)
        symbolic = verify_conjecture3(2, 3, "symbolic")
        assert small.method.startswith("frontier expansion vs ")
        assert large.method.startswith("frontier expansion vs ")
        assert symbolic.method == "frontier expansion vs block condensation"
        assert large.passed()

    @pytest.mark.slow
    def test_specialized_crt_range(self):
        r = verify_conjecture3(0, 4, "specialized", seed=11)
        assert r.passed()

    @pytest.mark.slow
    def test_specialized_size_ceiling(self):
        # 28 vertices, well inside the walk's state budget
        r = verify_conjecture3(6, 7, "specialized", seed=1)
        assert r.passed()


class TestIndependentSides:
    """Each symbolic check, and each specialized sample, runs its two sides
    through different routes.

    The recorder wraps verify's binding of det on rows built already,
    condensation_det (and its guard-free form, which takes the rows of an
    H_{k,n} built already) and the permanent on rows, and condensation's det
    on the rows it condensed, and notes the route of each call in order: the
    left side's calls come first, then the right side's, then any spot check
    at an integer point."""

    @pytest.fixture
    def routes(self, monkeypatch):
        calls = []

        def recorder(label, fn):
            def recorded(*args, **kwargs):
                if label.endswith("det"):
                    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
                    calls.append(f"{label}/{strategy or 'default'}")
                else:
                    calls.append(label)
                return fn(*args, **kwargs)
            return recorded

        for owner, name, label in ((verify, "_det_rows", "det"),
                                   (verify, "condensation_det", "condensation"),
                                   (verify, "_condensed_det", "condensation"),
                                   (verify, "_permanent_rows", "permanent"),
                                   (schur, "_det_rows", "condensation.det")):
            monkeypatch.setattr(owner, name, recorder(label, getattr(owner, name)))
        return calls

    CONDENSATION = ["condensation", "condensation.det/division-free"]
    WALK = "det/sparse-minor-expansion"

    @pytest.mark.parametrize("check, lhs, rhs, spot", [
        (lambda: verify_conjecture1(2), CONDENSATION, [WALK], ["det/default"]),
        (lambda: verify_conjecture1(4), CONDENSATION, [WALK], ["det/default"]),
        (lambda: verify_conjecture2(6, 7), CONDENSATION, [WALK], ["det/default"]),
        (lambda: verify_conjecture3(2, 3), ["permanent"], CONDENSATION, []),
        (lambda: verify._deletion_recursion(1, 3), CONDENSATION, [WALK, WALK], []),
    ], ids=["conj1(2)", "conj1(4)", "conj2(6,7)", "conj3(2,3)", "deletion(1,3)"])
    def test_sides_share_no_route(self, routes, check, lhs, rhs, spot):
        result = check()
        assert result["pass"] if isinstance(result, dict) else result.passed()
        assert routes == lhs + rhs + spot
        assert set(lhs).isdisjoint(rhs)

    # one specialized sample: elimination on H and condensation (which ends
    # in elimination on its condensed matrix) on the left; elimination and
    # Berkowitz on the reduced matrix on the right
    SAMPLE = ["det/default", "elimination({h})",
              "condensation", "condensation.det/default", "elimination({r})",
              "det/default", "elimination({r})", "det/division-free", "berkowitz({r})"]

    @pytest.mark.parametrize("check, h, r, tail", [
        (lambda: verify_conjecture1(8, "specialized"), 81, 9,
         ["det/default", "elimination(81)", "det/default", "elimination(9)"]),
        (lambda: verify_conjecture2(0, 11, "specialized"), 144, 12, []),
    ], ids=["conj1s(8)", "conj2s(0,11)"])
    def test_specialized_sample_runs_four_codes(self, routes, monkeypatch, check, h, r, tail):
        for name, label in (("_det_bareiss", "elimination"),
                            ("_berkowitz", "berkowitz"),
                            ("_frontier_walk", "walk")):
            def recorded(rows, *args, _fn=getattr(linalg, name), _label=label, **kwargs):
                routes.append(f"{_label}({len(rows)})")
                return _fn(rows, *args, **kwargs)
            monkeypatch.setattr(linalg, name, recorded)
        assert check().passed()
        # the unit-y corollary of conj1 follows the five samples
        assert routes == [c.format(h=h, r=r) for c in self.SAMPLE] * 5 + tail
        assert not any(c.startswith("walk") for c in routes)

    @pytest.mark.parametrize("n", range(7))
    def test_golden_row_never_runs_berkowitz(self, monkeypatch, n):
        # props check (d) compares the row with charpoly, which is Berkowitz
        calls = []
        original = linalg._berkowitz

        def recorded(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(linalg, "_berkowitz", recorded)
        row = bivariate_row(n)[1]
        assert calls == []
        # the wrapper does see the other side of check (d)
        p = linalg.charpoly(build_pascal("symmetric", n))
        assert calls == [n + 1]
        assert row == linalg.coefficient_list(p, "z", n + 1)


class TestInterpolate:
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_recovers_an_integer_polynomial(self, coeffs):
        values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in range(len(coeffs))]
        assert verify._interpolate(values) == coeffs

    @pytest.mark.parametrize("values", [
        [0, 0, 1],  # t(t - 1) / 2
        [0, 1, 0, 0],
        [5, 5, 5, 6, 5],
    ])
    def test_non_integer_coefficient_is_refused(self, values):
        with pytest.raises(StrategyPrecondition, match="non-integer coefficient"):
            verify._interpolate(values)


class TestProps:
    @pytest.mark.parametrize("n", range(7))
    def test_all_structure_checks_pass(self, n):
        r = verify_props(n)
        assert r.passed()
        shape = r.details["bivariate_shape"]
        assert shape["homogeneous"] and shape["palindromic"] and shape["monic_extremes"]
        assert r.details["charpoly_homogenization"]["pass"]
        for inst in ("1,2", "1,3", "2,3"):
            assert r.details["deletion_recursion"][inst]["pass"]

    @pytest.mark.parametrize("n", BIVARIATE_ROWS)
    def test_golden_coefficient_rows(self, n):
        r = verify_props(n)
        assert r.details["charpoly_homogenization"]["det_row"] == BIVARIATE_ROWS[n]

    def test_multivariate_checks_present_up_to_four(self):
        r = verify_props(4)
        assert r.details["multivariate_shape"]["homogeneous"]
        assert r.details["multivariate_shape"]["xy_symmetric"]
        assert r.details["t_scaling"]["pass"]

    def test_multivariate_checks_absent_beyond_four(self):
        r = verify_props(5)
        assert "multivariate_shape" not in r.details
        assert "t_scaling" not in r.details

    @pytest.mark.parametrize("row, palindromic, monic", [
        ([1, 99, 626, 625, 99, 1], False, True),
        ([2, 99, 626, 626, 99, 2], True, False),
        ([1, 99, 626, 626, 99, 2], False, False),
    ])
    def test_bivariate_shape_is_read_from_the_row(self, monkeypatch, row, palindromic, monic):
        # the crafted row stands in for bivariate_row's (the polynomial it
        # also returns is not read) and for charpoly's, so that check (d)
        # passes and the verdict rests on check (a)
        monkeypatch.setattr(verify, "bivariate_row", lambda n: (None, row))
        monkeypatch.setattr(verify, "coefficient_list", lambda *args: row)
        r = verify_props(4)
        assert r.details["bivariate_shape"] == {
            "homogeneous": True, "palindromic": palindromic, "monic_extremes": monic,
        }
        assert r.details["charpoly_homogenization"]["pass"]
        assert r.verdict == "fail"
        assert not r.passed()

    def test_guard(self):
        # the golden row's 144-vertex guard sets the limit
        assert verify_props(11).passed()
        with pytest.raises(TooLarge, match="bivariate row vertex count"):
            verify_props(12)


class TestReportShape:
    def test_json_omits_elapsed_and_round_trips(self):
        r = verify_conjecture2(6, 7, "symbolic")
        blob = r.to_json()
        assert "elapsed_s" not in blob
        assert r.elapsed_s > 0
        parsed = json.loads(json.dumps(blob, sort_keys=True))
        assert parsed["conjecture"] == "conj2"
        assert parsed["instance"] == {"k": 6, "n": 7}
        assert parsed["verdict"] == "pass"

    def test_report_is_dataclass_with_pass_helper(self):
        r = VerifyReport(
            conjecture="x", instance={}, mode="m", method="", lhs="", rhs="", verdict="fail"
        )
        assert not r.passed()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_seeded_draws_avoid_singular_pairs(self, seed):
        rng = random.Random(seed)
        params = _draw_params(rng, 2, 6, -50, 50)
        assert set(params) == {f"{c}{m}" for c in "xy" for m in range(2, 7)}
        for m in range(2, 7):
            assert params[f"x{m}"] + params[f"y{m}"] != 0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=5, deadline=None)
    def test_specialized_verdicts_hold_for_arbitrary_seeds(self, seed):
        assert verify_conjecture2(5, 6, "specialized", seed=seed).passed()


def _printed_bound(text: str) -> tuple[Fraction, Fraction]:
    """The per-point and total values of a random-evaluation bound."""
    m = re.search(r"<= (\S+) per point, <= (\S+) over", text)
    return Fraction(m.group(1)), Fraction(m.group(2))


class TestFalsePassBound:
    # each weight is one of N - 1 values given the other weight of its pair
    @pytest.mark.parametrize("report, degree, values, points", [
        (lambda: verify_conjecture1(3, "specialized", seed=42), 7, 2 * 10**6, 5),
        (lambda: verify_conjecture2(2, 4, "specialized", seed=3), 6, 2 * 10**6, 5),
        (lambda: verify_conjecture3(0, 3, "specialized"), 7, 2 * 10**6, 3),
    ], ids=["conj1", "conj2", "conj3"])
    def test_reports_print_an_upper_bound(self, report, degree, values, points):
        text = report().details["probability"]
        assert f"degree {degree}, each weight one of {values} values" in text
        single, total = _printed_bound(text)
        assert single >= Fraction(degree, values)
        assert total >= Fraction(degree, values) ** points

    # conj1 and conj2 share one body and one pair
    @pytest.mark.parametrize("report, draws", [
        (lambda: verify_conjecture1(3, "specialized", seed=42), "_REDUCTION_DRAWS"),
        (lambda: verify_conjecture3(0, 3, "specialized"), "_CONJ3_DRAWS"),
    ], ids=["conj1", "conj3"])
    def test_one_pair_sets_the_draws_and_the_bound(self, monkeypatch, report, draws):
        monkeypatch.setattr(verify, draws, (2, 40))
        r = report()
        assert r.passed()
        assert len(r.details["samples"]) == 2
        for sample in r.details["samples"]:
            assert all(-40 <= w <= 40 for w in sample["point"].values())
        text = r.details["probability"]
        assert "each weight one of 80 values" in text
        assert text.endswith(" over 2 independent points")

    @given(degree=st.integers(0, 10**4), domain=st.integers(2, 10**7), points=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_printed_values_are_rounded_up_to_three_digits(self, degree, domain, points):
        exact = Fraction(degree, domain - 1)
        single, total = _printed_bound(_sz_bound(degree, domain, points))
        for printed, value in ((single, exact), (total, exact**points)):
            assert value <= printed <= value * Fraction(101, 100)


@pytest.mark.parametrize("call, error", [
    (lambda: verify_conjecture3(0, 2, "bogus"), ValueError),
], ids=["conj3-unknown-mode"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
