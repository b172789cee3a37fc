"""Core data model: construction, boundary queries, orientations, JSON."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import errors, io
from cellcomplex.core import (
    BoundaryMatrix, _column, _edge_lookup, closure_indices, integer_product, subcomplex,
)

import helpers


def entries_from_dense(dense) -> tuple:
    dense = np.asarray(dense)
    return tuple(
        (i, j, int(dense[i, j]))
        for j in range(dense.shape[1])
        for i in range(dense.shape[0])
        if dense[i, j]
    )


def toy_matrices():
    b1 = BoundaryMatrix(5, 6, entries_from_dense(helpers.TOY_B1))
    b2 = BoundaryMatrix(6, 2, entries_from_dense(helpers.TOY_B2))
    return b1, b2


class TestBoundaryMatrix:
    def test_entries_sorted_by_col_then_row(self):
        m = BoundaryMatrix(3, 2, ((2, 1, 1), (0, 0, -1), (1, 0, 1)))
        assert m.entries == ((0, 0, -1), (1, 0, 1), (2, 1, 1))

    def test_rejects_duplicates_and_bad_signs(self):
        with pytest.raises(errors.DuplicateEntry):
            BoundaryMatrix(2, 1, ((0, 0, 1), (0, 0, -1)))
        with pytest.raises(ValueError):
            BoundaryMatrix(2, 1, ((0, 0, 2),))
        with pytest.raises(errors.ShapeMismatch):
            BoundaryMatrix(2, 1, ((2, 0, 1),))

    def test_integer_product_matches_numpy(self):
        b1, b2 = toy_matrices()
        product = integer_product(b1, b2)
        assert product == {}
        dense = helpers.TOY_B1 @ helpers.TOY_B2
        assert not dense.any()

    def test_restrict_rejects_repeated_rows(self):
        with pytest.raises(errors.ShapeMismatch):
            path3().boundary(1).restrict([0, 0], [0])
        b1 = path3().boundary(1)
        for rows, cols, what, n in (
            ([0, 1], [1, 0, 1], "column", 2),
            (np.array([2, 0, 2], dtype=np.int64), [0], "row", 3),
            ([0], np.array([1, 1], dtype=np.int64), "column", 2),
        ):
            message = f"{what} indices must be distinct, non-negative and below {n}"
            with pytest.raises(errors.ShapeMismatch, match=f"^{message}$"):
                b1.restrict(rows, cols)
        assert b1.restrict(np.array([2, 0]), np.array([1])).entries == ((0, 0, 1),)


def path3() -> cx.CellComplex:
    return cx.from_tuples(range(3), [(0, 1), (1, 2)])


class TestSubcomplexIndexRange:
    def test_negative_index_is_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            subcomplex(path3(), [[0, 1], [-1]])

    def test_index_past_the_end_is_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            subcomplex(path3(), [[0, 1], [5]])

    def test_trailing_empty_layers_are_dropped(self):
        sub = subcomplex(path3(), [[0, 1], [0], [], []])
        assert sub.dim == 1 and sub.cells == (("0", "1"), ("0-1",))

    @pytest.mark.parametrize("keep", [[], [[], []], [[], [0]]])
    def test_a_selection_without_vertices_is_rejected(self, keep):
        with pytest.raises(errors.ShapeMismatch, match="^sub-complex needs at least one 0-cell$"):
            subcomplex(path3(), keep)

    def test_valid_lists_still_work(self):
        sub = subcomplex(path3(), [[2, 1], [1]])
        assert sub.cells == (("2", "1"), ("1-2",))
        assert sub.boundary(1).column(0) == [(0, 1), (1, -1)]

    @pytest.mark.parametrize("keep, message", [
        ([[0, 1, 2, 3, 4], [0, 1, 4], [1]], "2-cell '0-1-2-3' kept without its face '1-2'"),
        ([[0, 1, 2, 3], [5, 0], [0]], "1-cell '3-4' kept without its face '4'"),
        ([[4, 0], [0]], "1-cell '0-1' kept without its face '1'"),
    ])
    def test_selection_without_a_face_is_rejected(self, toy, keep, message):
        # Dropping a face would leave B_{k-1} B_k != 0 and a negative Betti number.
        with pytest.raises(errors.NotDownwardClosed) as info:
            subcomplex(toy, keep)
        assert str(info.value) == message


@st.composite
def sparse_sign_matrices(draw, rows=None):
    """Dense {-1, 0, +1} matrices, possibly empty or all zero."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6))
    values = draw(st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values, dtype=np.int64).reshape(rows, cols)


class TestBoundaryMatrixAgainstDense:
    """Every read of the column-indexed layout agrees with dense numpy."""

    @settings(max_examples=200)
    @given(dense=sparse_sign_matrices(), data=st.data())
    def test_reads_flips_and_restrict(self, dense, data):
        triplets = [(int(i), int(j), int(dense[i, j])) for i, j in zip(*np.nonzero(dense))]
        m = BoundaryMatrix(*dense.shape, tuple(data.draw(st.permutations(triplets))))
        rows, cols = dense.shape
        assert np.array_equal(m.to_dense(), dense)
        assert len(m.entries) == len(triplets)
        assert np.array_equal(
            m.indptr, np.concatenate([[0], np.cumsum(np.abs(dense).sum(axis=0))])
        )
        assert np.array_equal(m.indices, np.nonzero(dense.T)[1])
        assert np.array_equal(m.signs, dense.T[dense.T != 0])
        columns = m.columns()
        assert len(columns) == cols
        for j in range(cols):
            expected = [(int(i), int(dense[i, j])) for i in np.nonzero(dense[:, j])[0]]
            assert m.column(j) == expected == columns[j]
            assert all(type(i) is int and type(s) is int for i, s in m.column(j))
        entry_cols = np.repeat(np.arange(cols), np.diff(m.indptr))
        for i in range(rows):
            assert np.array_equal(entry_cols[m.indices == i], np.nonzero(dense[i])[0])
            assert np.array_equal(m.signs[m.indices == i], dense[i][dense[i] != 0])
        flip_c = sorted(data.draw(st.sets(st.integers(0, cols - 1)))) if cols else []
        flip_r = sorted(data.draw(st.sets(st.integers(0, rows - 1)))) if rows else []
        col_signs = np.ones(cols, dtype=np.int64)
        col_signs[flip_c] = -1
        row_signs = np.ones(rows, dtype=np.int64)
        row_signs[flip_r] = -1
        assert np.array_equal(m.flip_columns(flip_c).to_dense(), dense * col_signs[None, :])
        assert np.array_equal(m.flip_rows(flip_r).to_dense(), dense * row_signs[:, None])
        keep_r = data.draw(st.permutations(range(rows)).flatmap(
            lambda p: st.integers(0, len(p)).map(lambda n: p[:n])))
        keep_c = data.draw(st.permutations(range(cols)).flatmap(
            lambda p: st.integers(0, len(p)).map(lambda n: p[:n])))
        sub = m.restrict(keep_r, keep_c)
        assert sub.shape == (len(keep_r), len(keep_c))
        assert np.array_equal(sub.to_dense(), dense[np.ix_(keep_r, keep_c)])

    @settings(max_examples=200)
    @given(a=sparse_sign_matrices(), data=st.data())
    def test_integer_product_and_apply_boundary(self, a, data):
        b = data.draw(sparse_sign_matrices(rows=a.shape[1]))
        ma = BoundaryMatrix(*a.shape, entries_from_dense(a))
        mb = BoundaryMatrix(*b.shape, entries_from_dense(b))
        dense = a @ b
        assert integer_product(ma, mb) == {
            (int(i), int(j)): int(dense[i, j]) for i, j in zip(*np.nonzero(dense))
        }
        x = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=b.shape[1],
                                        max_size=b.shape[1])), dtype=float)
        cc = cx.CellComplex(1, (("v",) * b.shape[0], ("e",) * b.shape[1]), (mb,))
        assert np.array_equal(cx.apply_boundary(cc, cx.ChainVector(1, x)).values, b @ x)


class TestFromBoundaryMatrices:
    def test_toy_complex_accepted(self):
        b1, b2 = toy_matrices()
        cc = cx.from_boundary_matrices(
            [list("01234"), ["a", "b", "c", "d", "e", "f"], ["orange", "green"]],
            [b1, b2],
        )
        assert cc.dim == 2
        assert np.array_equal(cc.boundary(1).to_dense(), helpers.TOY_B1)
        assert np.array_equal(cc.boundary(2).to_dense(), helpers.TOY_B2)

    def test_single_vertex(self):
        cc = cx.from_boundary_matrices([["v"]], [])
        assert cc.dim == 0 and cc.n_cells(0) == 1

    def test_flipped_entry_breaks_exactness(self):
        b1, b2 = toy_matrices()
        flipped = helpers.TOY_B2.copy()
        flipped[1, 0] = -flipped[1, 0]  # (0,3) entry of the triangle column
        bad = BoundaryMatrix(6, 2, entries_from_dense(flipped))
        with pytest.raises(errors.ExactnessViolated) as info:
            cx.from_boundary_matrices(
                [list("01234"), list("abcdef"), ["orange", "green"]], [b1, bad]
            )
        assert (info.value.k, info.value.row, info.value.col) == (2, 0, 0)
        assert abs(info.value.value) == 2

    def test_shape_and_label_errors(self):
        b1, _ = toy_matrices()
        with pytest.raises(errors.ShapeMismatch):
            cx.from_boundary_matrices([list("0123"), list("abcdef")], [b1])
        with pytest.raises(errors.DuplicateLabel):
            cx.from_boundary_matrices([["v", "v"]], [])

    def test_layer_and_boundary_counts(self):
        with pytest.raises(errors.ShapeMismatch, match="^cell layer 1 is empty$"):
            cx.from_boundary_matrices([["v"], []], [BoundaryMatrix(1, 0, [])])
        with pytest.raises(errors.ShapeMismatch,
                           match="^2 cell layers need 1 boundary matrices, got 0$"):
            cx.from_boundary_matrices([["u", "v"], ["e"]], [])


class TestFromTuples:
    def test_a_polygon_given_twice_is_a_duplicate_label(self):
        with pytest.raises(errors.DuplicateLabel, match="duplicate 2-cell label '0-1-2'"):
            cx.from_tuples(range(3), [(0, 1), (1, 2), (2, 0)], [(0, 1, 2), (1, 2, 0)])

    def test_reproduces_toy_matrices(self, toy):
        assert np.array_equal(toy.boundary(1).to_dense(), helpers.TOY_B1)
        assert np.array_equal(toy.boundary(2).to_dense(), helpers.TOY_B2)
        assert toy.cells[1] == ("0-1", "0-3", "0-4", "1-2", "2-3", "3-4")
        assert toy.cells[2] == ("0-3-4", "0-1-2-3")

    def test_cyclic_permutation_gives_same_column(self, toy):
        rotated = cx.from_tuples(range(5), helpers.TOY_EDGES, [(3, 4, 0)])
        assert rotated.boundary(2).column(0) == toy.boundary(2).column(0)
        assert rotated.cells[2] == ("0-3-4",)

    def test_missing_edge(self):
        with pytest.raises(errors.MissingEdge) as info:
            cx.from_tuples(range(5), helpers.TOY_EDGES, [(0, 1, 3)])
        assert info.value.pair == ("1", "3")

    def test_first_matching_edge_keeps_its_sign(self):
        # Edges 0 and 1 join the same vertices in opposite orientations; a
        # polygon side uses the first of them in edge order, either way round.
        edges = [(0, 1), (1, 0), (1, 2), (2, 0)]
        forward = cx.from_tuples(range(3), edges, [(0, 1, 2)])
        assert forward.boundary(2).column(0) == [(0, 1), (2, 1), (3, 1)]
        backward = cx.from_tuples(range(3), edges, [(1, 0, 2)])
        assert backward.boundary(2).column(0) == [(0, -1), (2, -1), (3, -1)]

    def test_input_validation(self):
        with pytest.raises(errors.UnknownVertex):
            cx.from_tuples(range(3), [(0, 5)])
        with pytest.raises(errors.SelfLoopEdge):
            cx.from_tuples(range(3), [(1, 1)])
        with pytest.raises(errors.RepeatedVertexInPolygon):
            cx.from_tuples(range(4), [(0, 1), (1, 2), (0, 2)], [(0, 1, 2, 1)])
        with pytest.raises(errors.PolygonTooShort):
            cx.from_tuples(range(3), [(0, 1), (1, 2)], [(0, 1)])

    def test_vertices_must_have_distinct_labels(self):
        # 0 and "0" are one label.
        with pytest.raises(errors.DuplicateLabel, match="^duplicate vertex '0'$"):
            cx.from_tuples([0, 1, "0"])


class TestIndexOfDimension:
    @pytest.fixture
    def edge(self):
        return cx.from_tuples(["a", "b"], [("a", "b")])

    @pytest.mark.parametrize("k", [-1, -2, 2, 3])
    def test_dimension_outside_complex_is_rejected(self, edge, k):
        with pytest.raises(errors.BadDimension):
            edge.index_of(k, "a-b")
        with pytest.raises(errors.BadDimension):
            edge.ref(k, "a")
        with pytest.raises(errors.BadDimension):
            cx.chain_on(edge, k, {"a": 1.0})
        with pytest.raises(errors.BadDimension):
            cx.chain_on(edge, k, {})

    def test_valid_dimensions_still_resolve(self, edge):
        assert edge.index_of(0, "b") == 1
        assert edge.ref(1, "a-b", -1) == cx.CellRef(1, 0, -1)
        with pytest.raises(errors.UnknownVertex):
            edge.index_of(1, "a")


class TestChainOn:
    def test_every_edge_of_a_large_grid_without_index_of(self, monkeypatch):
        grid = cx.cubical([60, 60])
        labels = grid.labels(1)
        coeffs = {label: float(i) for i, label in enumerate(reversed(labels))}

        def index_of(self, k, label):
            raise AssertionError("chain_on looked a label up with index_of")

        monkeypatch.setattr(cx.CellComplex, "index_of", index_of)
        chain = cx.chain_on(grid, 1, coeffs)
        assert np.array_equal(chain.values, np.arange(len(labels), dtype=float)[::-1])

    @pytest.mark.parametrize("label", ["a", "zz", 0])
    def test_unknown_label_message(self, toy, label):
        with pytest.raises(errors.UnknownVertex) as info:
            cx.chain_on(toy, 1, {"0-1": 2.0, label: 1.0})
        assert str(info.value) == f"no 1-cell labelled {label!r}"


class TestChainVector:
    @pytest.mark.parametrize("values", [np.ones((12, 2)), np.ones((6, 1)), 3.0, [[1.0]]],
                             ids=["columns", "one-column", "scalar", "nested"])
    def test_values_must_be_one_dimensional(self, values):
        with pytest.raises(errors.ShapeMismatch, match="^chain values must be one-dimensional"):
            cx.ChainVector(1, values)

    def test_values_are_a_frozen_copy(self):
        source = np.arange(3.0)
        chain = cx.ChainVector(0, source)
        source[0] = 7.0
        assert chain.values.tolist() == [0.0, 1.0, 2.0] and not chain.values.flags.writeable

    def test_length_is_the_value_count(self):
        assert len(cx.ChainVector(1, [1.0, 0.0, -1.0])) == 3
        assert len(cx.ChainVector(0, [])) == 0


class TestEntryArrays:
    """to_dense and apply_boundary against the entry-by-entry loops, bit for bit."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_match_entry_loops(self, seed, two_complex):
        rng = np.random.default_rng(seed)
        if two_complex:
            cc = helpers.random_two_complex(random.Random(seed))
        else:
            cc = helpers.random_builder_complex(random.Random(seed))
        for k in range(1, cc.dim + 1):
            b = cc.boundary(k)
            dense = b.to_dense()
            assert dense.dtype == np.int64
            assert np.array_equal(dense, helpers.to_dense_oracle(b))
            # magnitudes 1e-8..1e8, so a different summation order shows
            x = rng.normal(size=b.cols) * 10.0 ** rng.uniform(-8, 8, size=b.cols)
            chain = cx.ChainVector(k, x)
            out = cx.apply_boundary(cc, chain)
            assert out.dim == k - 1
            assert np.array_equal(out.values, helpers.apply_boundary_oracle(cc, chain))

    def test_empty_boundary(self):
        b = BoundaryMatrix(3, 2, ())
        assert np.array_equal(b.to_dense(), np.zeros((3, 2), dtype=np.int64))
        cc = cx.from_boundary_matrices([["a", "b", "c"], ["e", "f"]], [b])
        out = cx.apply_boundary(cc, cx.ChainVector(1, [1.0, -2.0]))
        assert np.array_equal(out.values, np.zeros(3))


class TestBoundaryOfCell:
    def test_orange_triangle(self, toy):
        found = {
            toy.cells[1][ref.index]: sign
            for ref, sign in cx.boundary_of_cell(toy, toy.ref(2, "0-3-4"))
        }
        assert found == {"0-3": 1, "3-4": 1, "0-4": -1}

    def test_opposite_orientation_negates(self, toy):
        ref = cx.CellRef(2, 0, orientation=-1)
        found = {r.index: s for r, s in cx.boundary_of_cell(toy, ref)}
        assert found == {1: -1, 5: -1, 2: 1}

    def test_edge_boundary(self, toy):
        found = {r.index: s for r, s in cx.boundary_of_cell(toy, toy.ref(1, "0-1"))}
        assert found == {0: -1, 1: 1}

    def test_vertex_has_no_boundary(self, toy):
        with pytest.raises(errors.DimZeroHasNoBoundary):
            cx.boundary_of_cell(toy, cx.CellRef(0, 0))


class TestApplyBoundary:
    def test_cycle_maps_to_zero(self, toy):
        chain = cx.chain_on(toy, 1, {"0-3": 1, "3-4": 1, "0-4": -1})
        assert not cx.apply_boundary(toy, chain).values.any()

    def test_green_square_boundary(self, toy):
        chain = cx.chain_on(toy, 2, {"0-1-2-3": 1})
        expected = cx.chain_on(toy, 1, {"0-1": 1, "1-2": 1, "2-3": 1, "0-3": -1})
        assert np.array_equal(cx.apply_boundary(toy, chain).values, expected.values)

    def test_zero_chain(self, toy):
        out = cx.apply_boundary(toy, cx.ChainVector(2, np.zeros(2)))
        assert not out.values.any()

    def test_linearity_exact_on_small_integers(self, toy):
        rng = np.random.default_rng(7)
        x = cx.ChainVector(1, rng.integers(-5, 6, size=6).astype(float))
        y = cx.ChainVector(1, rng.integers(-5, 6, size=6).astype(float))
        a, b = 3.0, -2.0
        combo = cx.ChainVector(1, a * x.values + b * y.values)
        left = cx.apply_boundary(toy, combo).values
        right = a * cx.apply_boundary(toy, x).values + b * cx.apply_boundary(toy, y).values
        assert np.array_equal(left, right)

    def test_vertex_chain_has_no_boundary(self, toy):
        with pytest.raises(errors.DimZeroHasNoBoundary, match="^0-chains have no boundary$"):
            cx.apply_boundary(toy, cx.ChainVector(0, np.zeros(5)))

    def test_chain_length_must_match_the_columns(self, toy):
        with pytest.raises(errors.ShapeMismatch, match="^chain has 5 values, B has 6 columns$"):
            cx.apply_boundary(toy, cx.ChainVector(1, np.zeros(5)))


class TestEulerCharacteristic:
    def test_toy(self, toy):
        assert cx.euler_characteristic(toy) == 5 - 6 + 2 == 1

    def test_single_vertex(self):
        assert cx.euler_characteristic(cx.from_tuples(["v"])) == 1

    def test_cubical_grid(self):
        assert cx.euler_characteristic(cx.cubical([4, 4])) == 16 - 24 + 9 == 1


def with_2cells(columns: list) -> cx.CellComplex:
    """Two disjoint triangles 0-1-2 and 3-4-5 with one 2-cell per B_2 column."""
    graph = cx.from_tuples(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    b2 = BoundaryMatrix(6, len(columns), [(i, j, s) for j, col in enumerate(columns)
                                          for i, s in col])
    labels = [f"f{j}" for j in range(len(columns))]
    return cx.from_boundary_matrices([*graph.cells, labels], [graph.boundary(1), b2])


class TestIsSimple:
    def test_toy_is_simple(self, toy):
        assert cx.is_simple(toy)

    def test_empty_columns(self):
        assert cx.is_simple(with_2cells([[]]))
        assert not cx.is_simple(with_2cells([[], []]))

    @pytest.mark.parametrize("column", [((0, 6, -1), (1, 6, 1)), ((0, 6, 1), (1, 6, -1))])
    def test_parallel_edge_breaks_simplicity(self, column):
        b1 = BoundaryMatrix(5, 7, entries_from_dense(helpers.TOY_B1) + column)
        cc = cx.from_boundary_matrices([list("01234"), list("abcdefg")], [b1])
        assert not cx.is_simple(cc)


class TestCanonicalOrientations:
    def test_toy_already_canonical(self, toy):
        assert cx.canonicalize_orientations(toy) == toy

    def test_reversed_edge_flips_column_and_row(self, toy):
        scrambled = cx.from_tuples(
            range(5),
            [(1, 0), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)],
            [helpers.TOY_TRIANGLE, helpers.TOY_SQUARE],
        )
        fixed = cx.canonicalize_orientations(scrambled)
        assert np.array_equal(fixed.boundary(1).to_dense(), helpers.TOY_B1)
        assert np.array_equal(fixed.boundary(2).to_dense(), helpers.TOY_B2)

    def test_reversed_polygon_flips(self, toy):
        scrambled = cx.from_tuples(range(5), helpers.TOY_EDGES, [(3, 2, 1, 0)])
        fixed = cx.canonicalize_orientations(scrambled)
        _, _, polygons = cx.to_tuples(fixed)
        assert polygons == [("0", "1", "2", "3")]

    def test_requires_simple_and_low_dimension(self):
        b1 = BoundaryMatrix(
            5, 7, entries_from_dense(helpers.TOY_B1) + ((0, 6, -1), (1, 6, 1))
        )
        multi = cx.from_boundary_matrices([list("01234"), list("abcdefg")], [b1])
        with pytest.raises(errors.NotSimple):
            cx.canonicalize_orientations(multi)
        with pytest.raises(errors.DimensionTooHigh):
            cx.canonicalize_orientations(cx.cubical([2, 2, 2]))


    def test_zero_complex_is_unchanged(self):
        point = cx.from_tuples(["v"])
        assert cx.canonicalize_orientations(point) is point

    @pytest.mark.parametrize("column, reason", [
        ([], "empty edge selection"),
        ([(0, 1), (1, 1), (2, -1), (3, 1), (4, 1), (5, -1)],
         "edge selection splits into several cycles (disconnected)"),
    ], ids=["empty", "two-triangles"])
    def test_a_2cell_that_is_not_a_cycle(self, column, reason):
        cc = with_2cells([column])
        assert cx.is_simple(cc)
        for read in (cx.canonicalize_orientations, cx.to_tuples):
            with pytest.raises(errors.NotACycleColumn) as info:
                read(cc)
            assert str(info.value) == f"2-cell 'f0': {reason}"


class TestOrientationFlips:
    def test_double_flip_is_identity(self, toy):
        for ref in (cx.CellRef(1, 2), cx.CellRef(2, 1)):
            assert cx.flip_cell(cx.flip_cell(toy, ref), ref) == toy

    def test_single_flip_negates_column_and_row(self, toy):
        flipped = cx.flip_cell(toy, cx.CellRef(1, 1))
        assert flipped.boundary(1).column(1) == [(0, 1), (3, -1)]
        assert np.array_equal(flipped.boundary(2).to_dense()[1], [-1, 1])

    @pytest.mark.parametrize("dim, index, error", [
        (1, 99, errors.ShapeMismatch), (1, -1, errors.ShapeMismatch),
        (2, 5, errors.ShapeMismatch), (3, 0, errors.BadDimension),
    ])
    def test_cell_that_does_not_exist_is_rejected(self, toy, dim, index, error):
        ref = cx.CellRef(dim, index)
        with pytest.raises(error) as flipped:
            cx.flip_cell(toy, ref)
        with pytest.raises(error) as read:
            cx.boundary_of_cell(toy, ref)
        assert str(flipped.value) == str(read.value)

    def test_a_vertex_has_no_orientation(self, toy):
        with pytest.raises(errors.BadDimension, match="^0-cells have no orientation to flip$"):
            cx.flip_cell(toy, cx.CellRef(0, 0))

    @pytest.mark.parametrize("orientation", [0, 2, -2])
    def test_orientation_must_be_a_sign(self, orientation):
        with pytest.raises(ValueError, match="^orientation must be"):
            cx.CellRef(1, 0, orientation)


class TestNonIntegralIndices:
    """A float index is refused, never truncated to the cell before it."""

    @pytest.mark.parametrize("read", [
        cx.closure, closure_indices, cx.flip_cell, cx.boundary_of_cell,
    ])
    @pytest.mark.parametrize("index", [0.5, 1.9, 1.0, np.float64(1)])
    def test_cell_refs(self, toy, read, index):
        with pytest.raises(errors.ShapeMismatch, match="^cell index must be an integer, not "):
            read(toy, cx.CellRef(1, index))

    def test_integer_cell_refs_still_work(self, toy):
        assert closure_indices(toy, cx.CellRef(1, np.int64(1))) == [[0, 3], [1]]

    @pytest.mark.parametrize("rows, cols, what", [
        ([0.4, 1.6], [0], "row"), ([0, 1], [0.0], "column"), (np.array([1.5]), [], "row"),
    ])
    def test_restrict(self, rows, cols, what):
        with pytest.raises(errors.ShapeMismatch, match=f"^{what} indices must be integers, not "):
            path3().boundary(1).restrict(rows, cols)
        assert path3().boundary(1).restrict([], []).shape == (0, 0)

    def test_subcomplex(self):
        with pytest.raises(errors.ShapeMismatch, match="^1-cell indices must be integers, not "):
            subcomplex(path3(), [[0, 1, 2], [0.5]])
        assert subcomplex(path3(), [[0, 1], []]).cells == (("0", "1"),)


class TestWalkColumns:
    def test_first_edge_joining_two_vertices_wins(self):
        lookup = _edge_lookup([(0, 1), (1, 0), (1, 2), (0, 1)])
        assert lookup == {(0, 1): (0, 1), (1, 0): (0, -1), (1, 2): (2, 1), (2, 1): (2, -1)}

    def test_edge_walked_both_ways_cancels(self):
        # Triangle 0-1-2 with a bridge 2-3 walked out and back.
        lookup = _edge_lookup([(0, 1), (2, 1), (0, 2), (2, 3)])
        walk = [(0, 1), (1, 2), (2, 3), (3, 2), (2, 0)]
        assert _column(lookup, walk) == [(0, 1), (1, -1), (2, -1)]

    def test_missing_step_raises_key_error(self):
        with pytest.raises(KeyError) as info:
            _column(_edge_lookup([(0, 1)]), [(0, 1), (1, 2)])
        assert info.value.args[0] == (1, 2)

    def test_polygon_over_antiparallel_edges_takes_the_first(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")]
        cc = cx.from_tuples("abc", edges, [("b", "a", "c")])
        assert cc.cells[1:] == (("a-b", "b-a", "b-c", "c-a"), ("a-c-b",))
        assert cc.boundary(2).column(0) == [(0, -1), (2, -1), (3, -1)]


class TestTupleRoundTrip:
    def test_toy_round_trips(self, toy):
        vertices, edges, polygons = cx.to_tuples(toy)
        assert cx.from_tuples(vertices, edges, polygons) == toy

    def test_requires_simple_and_low_dimension(self):
        b1 = BoundaryMatrix(2, 2, ((0, 0, -1), (1, 0, 1), (0, 1, -1), (1, 1, 1)))
        multi = cx.from_boundary_matrices([["0", "1"], ["a", "b"]], [b1])
        with pytest.raises(errors.NotSimple, match="^tuple notation requires a simple"):
            cx.to_tuples(multi)
        with pytest.raises(errors.DimensionTooHigh, match="^tuple notation covers"):
            cx.to_tuples(cx.cubical([2, 2, 2]))

    def test_round_trip_fixes_nothing_on_canonical_complexes(self):
        square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1, 2, 3)])
        vertices, edges, polygons = cx.to_tuples(square)
        assert polygons == [("0", "1", "2", "3")]
        assert cx.from_tuples(vertices, edges, polygons) == square


class TestJson:
    def test_complex_round_trip(self, toy):
        doc = io.complex_to_json(toy)
        text = io.dumps(doc)
        assert io.complex_from_json(json.loads(text)) == toy

    def test_entries_sorted_by_col_then_row(self, toy):
        doc = io.complex_to_json(toy)
        for matrix in doc["boundaries"]:
            entries = [(j, i) for i, j, _ in matrix["entries"]]
            assert entries == sorted(entries)

    def test_chain_round_trip(self):
        chain = cx.ChainVector(1, [0.5, -1.25, 3.0])
        doc = io.chain_to_json(chain)
        back = io.chain_from_json(doc)
        assert back.dim == 1 and np.allclose(back.values, chain.values)

    def test_schema_errors(self, toy):
        doc = io.complex_to_json(toy)
        broken = dict(doc)
        del broken["cells"]
        with pytest.raises(errors.SchemaError):
            io.complex_from_json(broken)
        bad_sign = json.loads(io.dumps(doc))
        bad_sign["boundaries"][0]["entries"][0][2] = 3
        with pytest.raises(errors.SchemaError):
            io.complex_from_json(bad_sign)
        with pytest.raises(errors.SchemaError):
            io.complex_from_json([1, 2, 3])

    def test_loader_runs_exactness_check(self, toy):
        doc = json.loads(io.dumps(io.complex_to_json(toy)))
        doc["boundaries"][1]["entries"][0][2] *= -1
        with pytest.raises(errors.ExactnessViolated):
            io.complex_from_json(doc)
