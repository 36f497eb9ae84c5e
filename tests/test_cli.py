"""CLI behavior: exit codes, stdout goldens, JSON artifacts."""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import huckelpascal.cli as cli
import huckelpascal.formulas as formulas
import huckelpascal.linalg as linalg
import huckelpascal.schur as schur
import huckelpascal.verify as verify
from huckelpascal.cli import main
from huckelpascal.formulas import unit_shift_det_asm
from huckelpascal.linalg import DET_STRATEGIES, TooLarge, det
from huckelpascal.matrices import (
    bivariate_params,
    build_huckel,
    build_pascal,
    build_reduced,
    evaluate_matrix,
)
from huckelpascal.verify import VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestDet:
    def test_unit_weight_triangle_two(self, capsys):
        code, out = run(capsys, "det", "--huckel", "0", "2", "--x", "1", "--y", "1")
        assert code == 0
        assert out.out.strip() == "20"

    def test_symbolic_strip(self, capsys):
        code, out = run(capsys, "det", "--huckel", "1", "1")
        assert code == 0
        assert out.out.strip() == "x1^1 + y1^1"

    def test_pascal_determinant_is_one(self, capsys):
        code, out = run(capsys, "det", "--pascal", "symmetric", "5")
        assert code == 0
        assert out.out.strip() == "1"

    def test_reduced_matches_huckel_at_a_point(self, capsys):
        _, h = run(capsys, "det", "--huckel", "0", "3", "--x", "2", "--y", "5")
        _, r = run(capsys, "det", "--reduced", "0", "3", "--x", "2", "--y", "5")
        assert h.out == r.out

    def test_interpolation_strategy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--huckel", "0", "2", "--strategy", "bivariate-interpolation"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_json_artifact_has_schema_and_terms(self, capsys, tmp_path):
        path = tmp_path / "det.json"
        code, _ = run(capsys, "det", "--huckel", "1", "1", "--json", str(path))
        assert code == 0
        blob = json.loads(path.read_text())
        assert blob["schema"] == 1
        assert blob["subcommand"] == "det"
        assert blob["value"] == "x1^1 + y1^1"
        assert len(blob["terms"]) == 2

    @pytest.mark.parametrize("argv, route", [
        (["--huckel", "1", "2"], "sparse-minor-expansion"),
        (["--reduced", "0", "3"], "sparse-minor-expansion"),
        (["--huckel", "1", "2", "--x", "2", "--y", "3"], "fraction-free-elimination"),
        (["--reduced", "0", "3", "--x", "2", "--y", "3"], "fraction-free-elimination"),
        (["--pascal", "symmetric", "4"], "fraction-free-elimination"),
        (["--huckel", "1", "2", "--strategy", "division-free"], "division-free"),
        # 16 variables, at the walk's variable cap
        (["--reduced", "0", "7", "--strategy", "sparse-minor-expansion"],
         "sparse-minor-expansion"),
        # the default over symbolic entries, at that cap too
        (["--reduced", "0", "7"], "sparse-minor-expansion"),
    ])
    def test_json_names_the_route_that_ran(self, capsys, tmp_path, argv, route):
        path = tmp_path / "det.json"
        code, _ = run(capsys, "det", *argv, "--json", str(path))
        assert code == 0
        assert json.loads(path.read_text())["strategy"] == route

    def test_elimination_refuses_symbolic_entries(self, capsys):
        code, out = run(capsys, "det", "--huckel", "1", "2",
                        "--strategy", "fraction-free-elimination")
        assert code == 2
        assert "polynomial entries" in out.err

    @pytest.mark.parametrize("argv, reference", [
        (["--huckel", "1", "1"], lambda: build_huckel(1, 1)),
        (["--huckel", "0", "2", "--x", "2", "--y", "3"],
         lambda: build_huckel(0, 2, bivariate_params(0, 2, 2, 3))),
        (["--huckel", "0", "2", "--x", "0", "--y", "0"],
         lambda: build_huckel(0, 2, bivariate_params(0, 2, 0, 0))),
        (["--reduced", "0", "3"], lambda: build_reduced(0, 3)),
        (["--reduced", "1", "4", "--x", "2", "--y", "-1"],
         lambda: evaluate_matrix(build_reduced(1, 4), bivariate_params(1, 4, 2, -1))),
        (["--pascal", "inverse-lower", "4"], lambda: build_pascal("inverse-lower", 4)),
    ], ids=["huckel-symbolic", "huckel-numeric", "huckel-zero-weights", "reduced-symbolic",
            "reduced-numeric", "pascal"])
    def test_verbose_prints_grid_to_stderr(self, capsys, argv, reference):
        # the rows det reads print as the dense matrix they stand for
        code, out = run(capsys, "-v", "det", *argv)
        assert code == 0
        assert out.err == reference().to_grid() + "\n"


class TestPermAndCharpoly:
    def test_permanent_equals_determinant_at_units(self, capsys):
        code, out = run(capsys, "perm", "--huckel", "0", "2", "--x", "1", "--y", "1")
        assert code == 0
        assert out.out.strip() == "20"

    def test_too_large_permanent_is_usage_error(self, capsys):
        code, out = run(capsys, "perm", "--huckel", "0", "8")
        assert code == 2
        assert "error" in out.err

    def test_charpoly_golden(self, capsys):
        code, out = run(capsys, "charpoly", "--pascal", "symmetric", "1")
        assert code == 0
        assert out.out.strip() == "z^2 + 3*z^1 + 1"

    def test_charpoly_coefficients_in_json(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        run(capsys, "charpoly", "--pascal", "symmetric", "3", "--json", str(path))
        assert json.loads(path.read_text())["coefficients"] == [1, 29, 72, 29, 1]


class TestCondense:
    def test_det_output_matches_direct(self, capsys):
        code, out = run(capsys, "condense", "--n", "1")
        assert code == 0
        assert out.out.strip() == "x1^1*x0^1 + x1^1*y1^1 + x1^1*y0^1 + x0^1*y1^1 + y1^1*y0^1"

    def test_trace_lists_every_block(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, out = run(capsys, "condense", "--n", "3", "--trace", "--json", str(path))
        assert code == 0
        assert out.out.count("eliminated block") == 3
        blob = json.loads(path.read_text())
        assert [s["m"] for s in blob["steps"]] == [3, 2, 1]
        assert [s["size"] for s in blob["steps"]] == [10, 6, 4]
        assert blob["final"]["nrows"] == 4

    def test_trace_with_k_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["condense", "--n", "3", "--k", "1", "--trace"])
        assert exc.value.code == 2


class TestFormulasAndTables:
    def test_table_contains_known_values(self, capsys):
        code, out = run(capsys, "formulas", "--table", "--max-n", "6")
        assert code == 0
        assert "826540" in out.out
        assert "345744*sqrt(3)" in out.out
        assert "280772*sqrt(2)" in out.out

    @pytest.mark.slow
    def test_table_past_the_float_range_of_mitra(self, capsys):
        # rows 53 and 55 leave the mitra cell empty instead of overflowing
        code, out = run(capsys, "formulas", "--table", "--max-n", "55")
        assert code == 0
        assert out.out.splitlines()[-1].split()[0] == "55"

    def test_tables_reproduce_determinant_rows(self, capsys):
        code, out = run(capsys, "tables", "--max-n", "5")
        assert code == 0
        assert "n=3: [1, 29, 72, 29, 1]" in out.out
        assert "n=5: [1, 351, 6084, 13869, 6084, 351, 1]" in out.out

    def test_tables_json(self, capsys, tmp_path):
        path = tmp_path / "tables.json"
        run(capsys, "tables", "--max-n", "3", "--json", str(path))
        blob = json.loads(path.read_text())
        assert blob["determinant_rows"][2] == [1, 9, 9, 1]
        assert blob["angle_table"][0]["theta0"] == 20


class TestOracle:
    def test_partition_count_matches_formula(self, capsys):
        code, out = run(capsys, "oracle", "partitions", "2", "2", "3")
        assert code == 0
        assert "enumerated: 50" in out.out
        assert "match: True" in out.out

    def test_square_audit(self, capsys):
        code, out = run(capsys, "oracle", "audit-squares", "--n", "2")
        assert code == 0
        assert "4 = 2^2" in out.out


class TestVerify:
    def test_single_symbolic_instance(self, capsys):
        code, out = run(capsys, "verify", "conj1", "--n", "2", "--mode", "symbolic")
        assert code == 0
        assert "conj1[k=0,n=2] symbolic: pass" in out.out

    def test_default_instances_sorted(self, capsys):
        code, out = run(capsys, "verify", "conj2")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert [l.split()[0] for l in lines] == [
            "conj2[k=6,n=7]", "conj2[k=6,n=9]", "conj2[k=7,n=9]"
        ]

    def test_seeded_json_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "conj1", "--n", "2", "--mode", "specialized",
            "--seed", "3", "--json", str(a))
        run(capsys, "verify", "conj1", "--n", "2", "--mode", "specialized",
            "--seed", "3", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_failed_verdict_exits_one(self, capsys, monkeypatch):
        fake = VerifyReport(
            conjecture="conj1", instance={"k": 0, "n": 1}, mode="symbolic",
            method="stub", lhs="0", rhs="1", verdict="fail",
        )
        monkeypatch.setitem(cli._VERIFIERS, "conj1", lambda **kwargs: fake)
        code, out = run(capsys, "verify", "conj1", "--n", "1")
        assert code == 1
        assert "fail" in out.out

    def test_cost_guard_is_usage_error(self, capsys):
        code, out = run(capsys, "verify", "conj1", "--n", "9", "--mode", "symbolic")
        assert code == 2
        assert "capped" in out.err

    def test_malformed_size_override_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HUCKEL_MAX_SIZE", "abc")
        code, out = run(capsys, "verify", "conj1", "--n", "2")
        assert code == 2
        assert out.err.strip().splitlines() == [
            "error: HUCKEL_MAX_SIZE must be an integer, got 'abc'"
        ]

    def test_k_without_n_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "conj2", "--k", "6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "props", "--mode", "specialized"],
        ["verify", "props", "--n", "2", "--mode", "specialized"],
    ])
    def test_props_has_no_specialized_mode(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "specialized" in err


    @pytest.mark.parametrize("argv", [
        ["verify", "conj1", "--n", "2", "--k", "2"],
        ["verify", "props", "--n", "1", "--k", "1"],
        ["verify", "conj1", "--k", "0"],
    ])
    def test_k_on_a_triangle_check_is_a_usage_error(self, capsys, argv):
        # conj1 and props run on k = 0 only, so --k would be dropped silently
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "--k" in err


class TestUsageErrors:
    def test_lone_x_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--huckel", "0", "2", "--x", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_n_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["condense", "--n", "-2"])
        assert exc.value.code == 2

    def test_unwritable_json_path(self, capsys):
        code, out = run(capsys, "det", "--huckel", "1", "1",
                        "--json", "/nonexistent-dir/x.json")
        assert code == 2
        assert "cannot write" in out.err

    @pytest.mark.parametrize("argv", [
        ["det", "--pascal", "foo", "3"],
        ["det", "--pascal", "symmetric", "x"],
        ["charpoly", "--pascal", "foo", "2"],
    ])
    def test_bad_pascal_input_is_usage_error(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("argv, code, err", [
    (["det", "--pascal", "symmetric", "3", "--x", "1", "--y", "1"], 2,
     "--x/--y only apply to --huckel/--reduced"),
    # -v prints each report's method line
    (["-v", "verify", "conj1", "--n", "2"], 0,
     "  condensation pipeline vs sparse minor expansion ("),
], ids=["xy-on-pascal", "verbose-verify"])
def test_exit_code_and_stderr(capsys, argv, code, err):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert err in capsys.readouterr().err


class TestGuards:
    @pytest.mark.parametrize("argv", [
        ["det", "--huckel", "0", "9"],
        ["det", "--reduced", "0", "8"],
        ["charpoly", "--pascal", "symmetric", "60"],
        ["det", "--huckel", "0", "7", "--strategy", "sparse-minor-expansion"],
        ["verify", "conj3", "--mode", "specialized", "--n", "9"],
        ["det", "--huckel", "0", "25", "--x", "1", "--y", "1"],
        ["tables", "--max-n", "14"],
        ["formulas", "--table", "--max-n", "150"],
        ["det", "--huckel", "500", "501", "--x", "1", "--y", "1"],
        ["det", "--reduced", "0", "12", "--strategy", "sparse-minor-expansion"],
        ["det", "--reduced", "0", "15", "--strategy", "sparse-minor-expansion"],
    ])
    def test_expensive_input_is_refused_before_work(self, capsys, argv):
        t0 = time.perf_counter()
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.err.startswith("error:")
        assert len(out.err.strip().splitlines()) == 1
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize("argv", [
        ["tables", "--max-n", "-1"],
        ["formulas", "--table", "--max-n", "-1"],
    ])
    def test_negative_max_n_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "--max-n must be >= 0" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("argv", [
        ["det", "--huckel", "500", "501", "--x", "1", "--y", "1"],
        ["det", "--huckel", "0", "9"],
        ["det", "--huckel", "0", "4"],
        ["det", "--huckel", "0", "4", "--strategy", "division-free"],
        ["det", "--huckel", "500", "501", "--strategy", "fraction-free-elimination"],
        ["det", "--huckel", "0", "7", "--strategy", "sparse-minor-expansion"],
        ["perm", "--huckel", "500", "501"],
        ["perm", "--huckel", "500", "501", "--x", "1", "--y", "1"],
        ["det", "--huckel", "500", "501", "--x", "1", "--y", "1",
         "--strategy", "sparse-minor-expansion"],
        ["tables", "--max-n", "40"],
        ["verify", "conj1", "--n", "8"],
        ["verify", "conj2", "--k", "0", "--n", "8"],
        ["verify", "props", "--n", "12"],
        ["condense", "--n", "12", "--trace"],
        ["oracle", "audit-squares", "--n", "8"],
    ])
    def test_huckel_guard_trips_before_the_matrix_is_built(self, capsys, monkeypatch, argv):
        def build(*args):
            raise AssertionError("H_{k,n} was built before the guard")

        for module in (cli, verify, schur):
            monkeypatch.setattr(module, "_huckel_rows", build)
        t0 = time.perf_counter()
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.err.startswith("error:")
        assert len(out.err.strip().splitlines()) == 1
        assert "capped" in out.err
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize("argv", [
        ["det", "--pascal", "symmetric", "300"],
        ["det", "--pascal", "symmetric", "600"],
        ["det", "--pascal", "lower", "50", "--strategy", "division-free"],
        ["charpoly", "--pascal", "symmetric", "600"],
        ["det", "--reduced", "0", "150"],
        ["det", "--reduced", "0", "150", "--x", "1", "--y", "1"],
        ["det", "--reduced", "3", "20", "--strategy", "sparse-minor-expansion"],
    ])
    def test_pascal_and_reduced_guards_trip_before_the_matrix_is_built(
        self, capsys, monkeypatch, argv
    ):
        def builder(*args):
            raise AssertionError("the matrix was built before the guard")

        monkeypatch.setattr(cli, "build_pascal", builder)
        monkeypatch.setattr(cli, "_reduced_rows", builder)
        t0 = time.perf_counter()
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.err.startswith("error:")
        assert len(out.err.strip().splitlines()) == 1
        assert "rows capped" in out.err
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize("argv", [
        ["det", "--reduced", "0", "75", "--x", "1", "--y", "1"],
        ["det", "--reduced", "0", "143", "--x", "1", "--y", "1"],
    ], ids=["reduced-76", "reduced-144"])
    def test_dense_elimination_cap_trips_before_the_matrix_is_built(
        self, capsys, monkeypatch, argv
    ):
        # 76 rows and more: the 144-row reduced matrix passed the sparse
        # elimination cap and ran for about 36 s
        def builder(*args):
            raise AssertionError("the matrix was built before the guard")

        monkeypatch.setattr(cli, "_reduced_rows", builder)
        t0 = time.perf_counter()
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.err.startswith("error: fraction-free-elimination rows capped at 75")
        assert len(out.err.strip().splitlines()) == 1
        assert time.perf_counter() - t0 < 5

    def test_dense_elimination_cap_admits_75_rows(self, capsys):
        code, out = run(capsys, "det", "--reduced", "0", "74", "--x", "1", "--y", "1")
        assert code == 0
        assert out.out.strip() == str(unit_shift_det_asm(74))

    @pytest.mark.parametrize("kind", ["lower", "inverse-lower", "symmetric"])
    def test_pascal_matrices_keep_the_elimination_cap(self, capsys, kind):
        # the pivots of the Pascal matrices are all 1 (triangular, or
        # Q_n = P_n P_n^T), and elimination of 144 rows took at most 0.54 s
        # before any dense cap: none applies
        t0 = time.perf_counter()
        code, out = run(capsys, "det", "--pascal", kind, "143")
        assert code == 0
        assert out.out.strip() == "1"
        assert time.perf_counter() - t0 < 5
        code, out = run(capsys, "det", "--pascal", kind, "144")
        assert code == 2
        assert out.err.startswith("error: fraction-free-elimination rows capped at 144")

    @pytest.mark.parametrize("argv, strategy, entries, lowered, route", [
        # division-free over integers, lowered from 49 to 9 rows
        (["det", "--pascal", "lower", "9", "--strategy", "division-free"],
         "division-free", "numeric", 9,
         lambda: det(build_pascal("lower", 9), "division-free")),
        # the symbolic walk, lowered from 16 to 3 rows
        (["det", "--huckel", "0", "1"], "sparse-minor-expansion", "symbolic", 3,
         lambda: det(build_huckel(0, 1), "sparse-minor-expansion")),
        # dense elimination, lowered from 75 to 9 rows: the reduced matrix at
        # a point in the CLI and Q_9 + iI in the library
        (["det", "--reduced", "0", "9", "--x", "1", "--y", "1"],
         "fraction-free-elimination", "dense", 9, lambda: formulas.pi4_magnitude(9)),
    ], ids=["division-free", "symbolic-walk", "dense-elimination"])
    def test_one_table_entry_moves_both_refusals(
        self, capsys, monkeypatch, argv, strategy, entries, lowered, route
    ):
        monkeypatch.delenv("HUCKEL_MAX_SIZE", raising=False)
        assert run(capsys, *argv)[0] == 0
        route()
        monkeypatch.setitem(linalg._ROUTE_ROWS[strategy], entries, lowered)
        cap = f"capped at {lowered}, got"
        with pytest.raises(TooLarge, match=cap):
            route()

        def builder(*args):
            raise AssertionError("the matrix was built before the guard")

        for name in ("build_pascal", "_huckel_rows", "_reduced_rows"):
            monkeypatch.setattr(cli, name, builder)
        code, out = run(capsys, *argv)
        assert code == 2
        assert cap in out.err

    @pytest.mark.parametrize("max_n", ["143", "150"])
    def test_pi4_column_cap_trips_before_any_row_is_built(self, capsys, monkeypatch, max_n):
        # 143 passes the 144-row elimination cap, and its top row alone
        # would take about a minute
        def builder(*args):
            raise AssertionError("Q_n + iI was built before the guard")

        monkeypatch.setattr(formulas, "build_general_binomial", builder)
        t0 = time.perf_counter()
        code, out = run(capsys, "formulas", "--table", "--max-n", max_n)
        assert code == 2
        assert out.err.startswith("error: pi/4 column rows capped at 75")
        assert out.out == ""
        assert time.perf_counter() - t0 < 5


_small = st.integers(-2, 4).map(str)
_PASCAL = st.tuples(st.sampled_from(["foo", "symmetric", "lower", "inverse-lower"]),
                    st.one_of(_small, st.just("x")))
# the values each option expects
_OPTIONS = {
    "det": {"--huckel": st.tuples(_small, _small), "--reduced": st.tuples(_small, _small),
            "--pascal": _PASCAL, "--x": st.tuples(_small), "--y": st.tuples(_small),
            "--strategy": st.tuples(st.sampled_from(DET_STRATEGIES))},
    "perm": {"--huckel": st.tuples(_small, _small), "--x": st.tuples(_small),
             "--y": st.tuples(_small)},
    "charpoly": {"--pascal": _PASCAL},
    "condense": {"--n": st.tuples(_small), "--k": st.tuples(_small),
                 "--trace": st.just(())},
    "formulas": {"--table": st.just(()), "--max-n": st.tuples(_small)},
    "oracle": {"--n": st.tuples(_small)},
    "verify": {"--n": st.tuples(_small), "--k": st.tuples(_small),
               "--mode": st.tuples(st.sampled_from(["symbolic", "specialized"])),
               "--seed": st.tuples(_small)},
    "tables": {"--max-n": st.tuples(_small)},
}
_HEADS = (
    [["det"], ["perm"], ["charpoly"], ["condense"], ["formulas"], ["tables"],
     ["oracle", "partitions"], ["oracle", "audit-squares"], ["frobnicate"], []]
    + [["verify", c] for c in ("conj1", "conj2", "conj3", "props", "conj9")]
)
_JUNK = st.sampled_from(["", "x", "-", "--", "1.5", "1e3", "--bogus", "-v",
                         "--json", "nonexistent-dir/out.json", "lower", "symbolic"])


@st.composite
def _argv(draw):
    """A subcommand and its positionals, then up to four of its options or
    --json, each followed by the values it expects or by zero to three
    small integers and junk tokens."""
    argv = list(draw(st.sampled_from(_HEADS)))
    if argv[1:] == ["partitions"]:
        argv += draw(st.lists(_small, max_size=4))
    options = {"--json": st.just(("out.json",)), **_OPTIONS.get(argv[0] if argv else "", {})}
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(sorted(options)))
        argv.append(flag)
        argv += draw(st.one_of(options[flag], options[flag], options[flag],
                               st.lists(st.one_of(_small, _JUNK), max_size=3)))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_fuzzed_argv_exits_zero_one_or_two(argv, monkeypatch, tmp_path):
    # every argv ends in an answer (0), a failed check (1) or a usage or
    # domain error (2); any other exception escapes and fails the test
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
