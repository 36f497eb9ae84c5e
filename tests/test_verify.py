"""Verification-harness tests: verdicts, goldens, guards, determinism."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huckelpascal import verify
from huckelpascal.linalg import TooLarge
from huckelpascal.poly import svar, xvar, yvar
from huckelpascal.verify import (
    VerifyReport,
    _draw_params,
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
    @pytest.mark.parametrize("n", range(4))
    def test_symbolic_distinct_parameters(self, n):
        r = verify_conjecture1(n, "symbolic")
        assert r.passed()
        assert r.details["parameters"] == "fully distinct"
        assert r.lhs == r.rhs

    def test_symbolic_n2_collapses_to_known_bivariate_form(self):
        r = verify_conjecture1(2, "symbolic")
        x, y = xvar(0), yvar(0)
        want = x**3 + 9 * x**2 * y + 9 * x * y**2 + y**3
        from huckelpascal.poly import poly_from_text

        collapsed = poly_from_text(r.lhs).substitute(
            {f"x{i}": x for i in range(3)} | {f"y{i}": y for i in range(3)}
        )
        assert collapsed == want

    def test_symbolic_n4_is_bivariate_with_golden_row(self):
        r = verify_conjecture1(4, "symbolic")
        assert r.passed()
        assert "collapsed" in r.details["parameters"]
        from huckelpascal.poly import poly_from_text

        p = poly_from_text(r.lhs)
        row = [p.coefficient({"x0": 5 - j, "y0": j}) for j in range(6)]
        assert row == BIVARIATE_ROWS[4]

    def test_specialized_runs_five_points_and_corollary(self):
        r = verify_conjecture1(3, "specialized", seed=42)
        assert r.passed()
        assert len(r.details["samples"]) == 5
        assert r.details["unit_y_corollary"]["pass"]
        assert r.seed == 42
        # the documented failure bound is far below the 1e-20 target
        assert "5.25e-28" in r.details["probability"]

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
        with pytest.raises(TooLarge):
            verify_conjecture1(5, "symbolic")

    def test_specialized_guard(self):
        with pytest.raises(TooLarge):
            verify_conjecture1(9, "specialized")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_conjecture1(2, "numeric")

    @pytest.mark.slow
    def test_specialized_full_range(self):
        r = verify_conjecture1(8, "specialized", seed=0)
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

    def test_symbolic_guard(self):
        with pytest.raises(TooLarge):
            verify_conjecture2(0, 9, "symbolic")

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
        def build_huckel(*args):
            raise AssertionError("build_huckel ran before the guard")

        monkeypatch.setattr(verify, "build_huckel", build_huckel)
        with pytest.raises(TooLarge, match="conj3 vertex count"):
            verify_conjecture3(500, 501, mode)

    def test_specialized_at_49_vertices(self):
        assert verify_conjecture3(0, 6, "specialized").passed()

    def test_specialized_method_names_the_permanent_route(self):
        small = verify_conjecture3(2, 3, "specialized", seed=3)
        large = verify_conjecture3(2, 4, "specialized", seed=3)
        symbolic = verify_conjecture3(2, 3, "symbolic")
        assert small.method.startswith("frontier expansion vs ")
        assert large.method.startswith("frontier expansion vs ")
        assert symbolic.method == "frontier expansion vs fraction-free elimination"
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

    def test_guard(self):
        with pytest.raises(TooLarge):
            verify_props(7)


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
