"""Regularity validators: elementary conditions, closures, per-cell checks."""

import random

import pytest

import cellcomplex as cx
from cellcomplex import errors
from cellcomplex.core import BoundaryMatrix, closure_indices

import helpers


def graph_with_column(column_entries, n_vertices=5, base_edges=None):
    """Toy-style graph plus one raw B2 column (no constructor checks)."""
    edges = base_edges or helpers.TOY_EDGES
    graph = cx.from_tuples(range(n_vertices), edges)
    b2 = BoundaryMatrix(graph.n_cells(1), 1, tuple((i, 0, s) for i, s in column_entries))
    return cx.CellComplex(2, (*graph.cells, ("f",)), (graph.boundary(1), b2))


def two_disjoint_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    column = [(0, 1), (1, 1), (2, -1), (3, 1), (4, 1), (5, -1)]
    return graph_with_column(column, n_vertices=6, base_edges=edges)


class TestValidateDim1:
    def test_toy_passes(self, toy):
        assert cx.validate_dim1(toy).valid

    def test_two_positive_entries(self):
        b1 = BoundaryMatrix(5, 1, ((0, 0, 1), (1, 0, 1)))
        cc = cx.from_boundary_matrices([list("01234"), ["e"]], [b1])
        report = cx.validate_dim1(cc)
        assert not report.valid
        assert report.failures[0].condition == "B1-columns"

    def test_single_entry_column(self):
        b1 = BoundaryMatrix(5, 1, ((0, 0, 1),))
        cc = cx.from_boundary_matrices([list("01234"), ["e"]], [b1])
        report = cx.validate_dim1(cc)
        assert [f.condition for f in report.failures] == ["B1-columns"]

    def test_requires_an_edge_layer(self):
        with pytest.raises(errors.BadDimension):
            cx.validate_dim1(cx.from_tuples(["v"]))


class TestValidateDim2:
    def test_toy_passes(self, toy):
        assert cx.validate_dim2(toy).valid

    def test_disjoint_triangles_column(self):
        report = cx.validate_dim2(two_disjoint_triangles())
        assert not report.valid
        assert report.failures[0].condition == "B2-cycle"
        assert "disconnected" in report.failures[0].detail

    def test_orientation_mismatch_column(self):
        # Same support as the toy triangle but with the (3,4) sign
        # flipped; this breaks exactness, so bypass the constructor.
        column = [(1, 1), (2, -1), (5, -1)]
        report = cx.validate_dim2(graph_with_column(column))
        assert not report.valid
        assert report.failures[0].condition == "B2-cycle"
        assert "orientation" in report.failures[0].detail

    def test_two_edges_into_one_vertex(self):
        # 0 -> 1 <- 2: no vertex has two outgoing edges, but vertex 1 has two
        # incoming ones; this breaks exactness, so bypass the constructor.
        column = [(0, 1), (1, 1)]
        report = cx.validate_dim2(graph_with_column(column, 3, [(0, 1), (2, 1)]))
        assert [(f.condition, f.cell, f.detail) for f in report.failures] == [
            ("B2-cycle", "2-cell f", "inconsistent orientation at vertex 1")
        ]

    def test_empty_column(self):
        report = cx.validate_dim2(graph_with_column([]))
        assert [f.condition for f in report.failures] == ["B2-cycle"]

    def test_edge_without_endpoints_in_a_cycle_column(self):
        # Triangle a-b-c plus an edge e whose B_1 column is empty: the
        # column of t, +1 on all four edges, still has B_1 B_2 = 0.
        b1 = BoundaryMatrix(3, 4, ((0, 0, -1), (1, 0, 1), (1, 1, -1), (2, 1, 1),
                                   (0, 2, 1), (2, 2, -1)))
        b2 = BoundaryMatrix(4, 1, tuple((i, 0, 1) for i in range(4)))
        cc = cx.from_boundary_matrices([list("abc"), ["ab", "bc", "ca", "e"], ["t"]], [b1, b2])
        report = cx.validate_dim2(cc)
        assert [(f.condition, f.cell, f.detail) for f in report.failures] == [
            ("B2-cycle", "2-cell t", "edge column 3 is not a (tail, head) incidence")
        ]

    def test_wrong_dimension_rejected(self, toy_graph):
        with pytest.raises(errors.BadDimension):
            cx.validate_dim2(toy_graph)


class TestClosure:
    def test_green_cell_closure(self, toy):
        sub = cx.closure(toy, toy.ref(2, "0-1-2-3"))
        assert [len(layer) for layer in sub.cells] == [4, 4, 1]
        assert sub.cells[0] == ("0", "1", "2", "3")

    def test_vertex_closure(self, toy):
        sub = cx.closure(toy, toy.ref(0, "2"))
        assert sub.dim == 0 and sub.cells[0] == ("2",)

    def test_edge_closure(self, toy):
        sub = cx.closure(toy, toy.ref(1, "0-1"))
        assert [len(layer) for layer in sub.cells] == [2, 1]

    @pytest.mark.parametrize("dim, index, error, message", [
        (-1, 0, errors.BadDimension, "no -1-cells on a 2-complex"),
        (3, 0, errors.BadDimension, "no 3-cells on a 2-complex"),
        (0, 5, errors.ShapeMismatch, "0-cell 5 outside 0..4"),
        (2, -1, errors.ShapeMismatch, "2-cell -1 outside 0..1"),
    ])
    def test_cell_that_does_not_exist_is_rejected(self, toy, dim, index, error, message):
        for read in (cx.closure, closure_indices):
            with pytest.raises(error) as info:
                read(toy, cx.CellRef(dim, index))
            assert str(info.value) == message

    def test_closure_idempotent(self, toy):
        outer = cx.closure(toy, toy.ref(2, "0-1-2-3"))
        for k in range(outer.dim + 1):
            for label in outer.cells[k]:
                inner = cx.closure(outer, outer.ref(k, label))
                for kk in range(inner.dim + 1):
                    assert set(inner.cells[kk]) <= set(outer.cells[kk])


class TestValidateNd:
    def test_toy_passes(self, toy):
        assert cx.validate_nd(toy).valid

    def test_zero_column_is_acyclic_failure(self):
        report = cx.validate_nd(graph_with_column([]))
        assert not report.valid
        assert "cell-acyclic" in {f.condition for f in report.failures}

    def test_disjoint_triangles_fail_connectedness(self):
        report = cx.validate_nd(two_disjoint_triangles())
        connected = [f for f in report.failures if f.condition == "cell-connected"]
        assert connected and "rank 2" in connected[0].detail

    def test_bad_b1_column_reported(self):
        b1 = BoundaryMatrix(2, 1, ((0, 0, 1), (1, 0, 1)))
        cc = cx.from_boundary_matrices([["a", "b"], ["e"]], [b1])
        report = cx.validate_nd(cc)
        assert {f.condition for f in report.failures} == {"B1-columns"}

    def test_higher_dimensional_builders_pass(self):
        assert cx.validate_nd(cx.cubical([2, 2, 2])).valid
        assert cx.validate_nd(cx.product(helpers.toy(), helpers.k2_paper())).valid

    def test_dim0_trivially_valid(self):
        assert cx.validate_nd(cx.from_tuples(["v"])).valid

    def test_agrees_with_elementary_validators(self):
        rng = random.Random(4242)
        for _ in range(150):
            cc = helpers.random_two_complex(rng)
            elementary = cx.validate_dim1(cc).valid and cx.validate_dim2(cc).valid
            assert cx.validate_nd(cc).valid == elementary

    def test_report_shape(self, toy):
        report = cx.validate_nd(toy)
        assert report.valid == (not report.failures)
        doc = report.to_json()
        assert doc == {"valid": True, "failures": []}
