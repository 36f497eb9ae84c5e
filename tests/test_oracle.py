"""Enumeration oracles versus the closed-form counts."""

import pytest

from huckelpascal.formulas import formula_macmahon
from huckelpascal.linalg import TooLarge, det
from huckelpascal.matrices import BadRange, TriangleGraph, build_huckel
from huckelpascal.oracle import (
    audit_passes,
    count_matchings,
    count_plane_partitions,
    square_coefficient_audit,
)
from huckelpascal.poly import poly_from_text, xvar, yvar
from huckelpascal.schur import condensation_det

class TestPlanePartitions:
    def test_unit_box(self):
        assert count_plane_partitions(1, 1, 1) == 2

    def test_degenerate_boxes(self):
        assert count_plane_partitions(0, 3, 3) == 1
        assert count_plane_partitions(2, 0, 5) == 1

    def test_matches_product_formula_small(self):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert count_plane_partitions(a, b, c) == formula_macmahon(
                        a, b, c
                    )

    @pytest.mark.parametrize("abc", [(2, 3, 4), (1, 4, 4)])
    def test_matches_product_formula_rectangular(self, abc):
        assert count_plane_partitions(*abc) == formula_macmahon(*abc)

    def test_cost_guard(self):
        with pytest.raises(TooLarge):
            count_plane_partitions(5, 4, 4)

    def test_negative_rejected(self):
        with pytest.raises(BadRange):
            count_plane_partitions(-1, 2, 2)


class TestMatchings:
    def test_trivial_graphs(self):
        assert count_matchings(0, []) == 1
        assert count_matchings(2, [(0, 1)]) == 1
        assert count_matchings(3, [(0, 1), (1, 2)]) == 0  # odd

    def test_path_and_cycle(self):
        path = [(0, 1), (1, 2), (2, 3)]
        assert count_matchings(4, path) == 1
        cycle6 = [(i, (i + 1) % 6) for i in range(6)]
        assert count_matchings(6, cycle6) == 2

    def test_complete_graph(self):
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert count_matchings(4, k4) == 3

    def test_cost_guard(self):
        with pytest.raises(TooLarge):
            count_matchings(34, [])

    def test_bad_edge(self):
        with pytest.raises(BadRange):
            count_matchings(2, [(0, 2)])

    def test_hexagonal_subgraph_has_two_coverings(self):
        g = TriangleGraph(0, 2)
        keep = [g.index(1, 0), g.index(1, 1), g.index(1, 2),
                g.index(2, 1), g.index(2, 2), g.index(2, 3)]
        nv, edges = g.induced_edges(keep)
        assert nv == 6
        assert count_matchings(nv, edges) == 2

    def test_monomial_coefficient_is_squared_matching_count(self):
        """Striking out the apex weight and one boundary pair of the
        9-vertex triangle leaves a hexagon; the surviving determinant
        coefficient is the square of its dimer count."""
        g = TriangleGraph(0, 2)
        keep = [g.index(1, 0), g.index(1, 1), g.index(1, 2),
                g.index(2, 1), g.index(2, 2), g.index(2, 3)]
        nv, edges = g.induced_edges(keep)
        matchings = count_matchings(nv, edges)
        d = det(build_huckel(0, 2), "sparse-minor-expansion")
        assert d.coefficient({"x0": 1, "x2": 1, "y2": 1}) == matchings**2 == 4


class TestSquareAudit:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_triangle_dets_have_square_coefficients(self, n):
        d = det(build_huckel(0, n), "sparse-minor-expansion")
        assert audit_passes(square_coefficient_audit(d))

    def test_condensed_triangle_det(self):
        report = square_coefficient_audit(condensation_det(0, 3))
        assert audit_passes(report)
        assert all(e.root**2 == e.coefficient for e in report)

    def test_trapezium_det_roots(self):
        d = condensation_det(6, 7)
        report = square_coefficient_audit(d)
        assert audit_passes(report)
        roots = sorted({e.root for e in report})
        assert roots == [1, 7]  # the 7^2 x7 y7 term among unit monomials

    def test_spot_coefficients_in_condensed_det(self):
        d = condensation_det(0, 3)
        assert d.coefficient({"x0": 1, "x2": 1, "y2": 1, "x3": 1}) == 4
        assert d.coefficient({"y0": 1, "x2": 1, "y2": 1, "y3": 1}) == 4
        assert d.coefficient({"x1": 1, "x3": 1, "y1": 1, "y3": 1}) == 9

    def test_audit_reports_failures(self):
        p = poly_from_text("2*x0 + 9*y0")
        report = square_coefficient_audit(p)
        by_root = {e.monomial: e.root for e in report}
        assert by_root["x0^1"] is None
        assert by_root["y0^1"] == 3
        assert not audit_passes(report)

    def test_negative_coefficient_fails(self):
        p = xvar(0) * 4 - yvar(0) * 4
        report = square_coefficient_audit(p)
        roots = {e.coefficient: e.root for e in report}
        assert roots[4] == 2
        assert roots[-4] is None
