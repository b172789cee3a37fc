"""Builders: simplicial, Rips, products, cubical grids, graph liftings."""

import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import builders, core, errors, io
from cellcomplex.builders import rips_simplices
from cellcomplex.persist import Filtration, FiltrationStep

import helpers


class TestFromSimplicial:
    def test_full_triangle(self):
        cc = cx.from_simplicial(
            range(3), [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        )
        assert [len(layer) for layer in cc.cells] == [3, 3, 1]
        assert cx.betti_numbers(cc).betti == (1, 0, 0)
        assert helpers.betti_oracle(cc) == (1, 0, 0)

    def test_vertices_only(self):
        cc = cx.from_simplicial(range(3), [(0,), (1,), (2,)])
        assert cc.dim == 0 and cc.n_cells(0) == 3

    def test_not_downward_closed(self):
        with pytest.raises(errors.NotDownwardClosed):
            cx.from_simplicial(range(2), [(0, 1)])

    def test_auto_close(self):
        cc = cx.from_simplicial(range(2), [(0, 1)], auto_close=True)
        assert [len(layer) for layer in cc.cells] == [2, 1]

    def test_no_vertex_is_a_shape_mismatch(self):
        for auto_close in (False, True):
            with pytest.raises(errors.ShapeMismatch,
                               match="^a complex needs a nonempty set of 0-cells$"):
                cx.from_simplicial([], [], auto_close=auto_close)

    def test_uncovered_vertex(self):
        with pytest.raises(errors.UncoveredVertex):
            cx.from_simplicial(range(3), [(0,), (1,)])

    def test_alternating_boundary_signs(self):
        cc = cx.from_simplicial(range(3), [(0, 1, 2)], auto_close=True)
        # Faces of (0,1,2) in lexicographic edge order (0,1),(0,2),(1,2)
        # carry signs +1, -1, +1.
        assert cc.boundary(2).column(0) == [(0, 1), (1, -1), (2, 1)]

    def test_simplex_labels_sorted(self):
        cc = cx.from_simplicial(range(3), [(2, 1, 0)], auto_close=True)
        assert cc.cells[2] == ("0-1-2",)

    @pytest.mark.parametrize("vertices, simplices, error, message", [
        (["a", "b", "a"], [], errors.DuplicateLabel, "duplicate vertex label"),
        ([0, 1], [(0, 5)], errors.UnknownVertex, "simplex (0, 5) uses unknown vertex '5'"),
        ([0, 1], [(0,), ()], ValueError, "empty simplex"),
    ], ids=["duplicate-vertex", "unknown-vertex", "empty-simplex"])
    def test_bad_vertices_and_simplices(self, vertices, simplices, error, message):
        for auto_close in (False, True):
            with pytest.raises(error) as info:
                cx.from_simplicial(vertices, simplices, auto_close=auto_close)
            assert str(info.value) == message


class TestBadBuilderArguments:
    @pytest.mark.parametrize("points", [[[0.0, math.nan]], [[math.inf, 0.0], [1.0, 1.0]]])
    def test_non_finite_points(self, points):
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            cx.PointCloud(points)

    def test_negative_max_dim(self):
        pc = cx.PointCloud([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="^max_dim must be non-negative$"):
            rips_simplices(pc, 1.0, -1)

    def test_empty_path(self):
        with pytest.raises(ValueError, match="^path needs at least one vertex$"):
            builders.path_complex(0)


class TestPointCloudDistances:
    @settings(max_examples=200)
    @given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 12))
    def test_bit_identical_to_broadcasting(self, data, d, n):
        coordinate = data.draw(st.sampled_from([
            st.floats(-1e3, 1e3, allow_subnormal=False), st.integers(-3, 3),
        ]))
        points = data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                    min_size=n, max_size=n))
        points += data.draw(st.lists(st.sampled_from(points), max_size=3))  # repeats
        cloud = cx.PointCloud(points)
        assert np.array_equal(cloud.distances(), helpers.distances_oracle(cloud))

    @settings(max_examples=100)
    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 6), b=st.integers(-1000, 1000))
    def test_powers_of_two_scale_exactly(self, data, d, n, b):
        # Integer coordinates give in-range unit distances; scaled by 2^b, every
        # distance stays a normal float and scales by exactly 2^b.
        points = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                    min_size=n, max_size=n))
        unit = cx.PointCloud(points).distances()
        scaled = cx.PointCloud(np.ldexp(np.array(points, dtype=float), b)).distances()
        assert np.array_equal(scaled, np.ldexp(unit, b))

    def test_coordinates_at_the_float_limit(self):
        cloud = cx.PointCloud([[1e308, 0], [0, 1e308], [-1e308, 0], [0, -1e308], [0, 0]])
        dist = cloud.distances()
        assert np.array_equal(dist, helpers.distances_oracle(cloud))
        assert dist[0, 4] == dist[3, 4] == 1e308 and dist[0, 2] == dist[1, 3] == math.inf
        assert dist[0, 1] == pytest.approx(math.hypot(1e308, 1e308), rel=2.0**-50)

    # From 8 coordinates on, numpy sums in blocks of eight, and above 128 by halves.
    @pytest.mark.parametrize("d", [5, 8, 9, 16, 23, 128, 129, 300])
    def test_bit_identical_in_high_dimension(self, d):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(9, d)) * rng.uniform(0.01, 100, size=d)
        cloud = cx.PointCloud(np.vstack([points, points[:2]]))
        assert np.array_equal(cloud.distances(), helpers.distances_oracle(cloud))


class TestSimplexBoundaries:
    """_simplex_boundaries against a dict lookup of every face, on layers
    drawn through each of its callers."""

    @staticmethod
    def assert_matches_the_oracle(layers, mats):
        layers = [[tuple(s) for s in layer] for layer in layers]
        assert [b.shape for b in mats] == [(len(a), len(b)) for a, b in zip(layers, layers[1:])]
        got = [{(r, c): s for r, c, s in b.entries} for b in mats]
        assert got == helpers.simplex_boundary_oracle(layers)

    @staticmethod
    def via_from_simplicial(n, simplices):
        cc = cx.from_simplicial(range(n), [*simplices, *[(v,) for v in range(n)]],
                                auto_close=True)
        layers = [[tuple(map(int, label.split("-"))) for label in layer] for layer in cc.cells]
        return layers, cc.boundaries

    @staticmethod
    def via_from_steps(levels, ids):
        """Filtration.from_steps of the Rips levels with vertex v renamed ids[v]."""
        keys = sorted((d, len(s) - 1, tuple(sorted(ids[v] for v in s)))
                      for s, d in helpers.rips_listed(levels))
        filtration = Filtration.from_steps([FiltrationStep(*key) for key in keys])
        rank = {v: i for i, v in enumerate(sorted(ids))}
        layers = [sorted(tuple(rank[v] for v in s) for _, dim, s in keys if dim == k)
                  for k in range(len(levels))]
        return layers, filtration.boundaries

    def assert_every_caller_matches(self, levels, ids):
        self.assert_matches_the_oracle(
            [v for v, _ in levels], builders._simplex_boundaries([v for v, _ in levels]))
        self.assert_matches_the_oracle(
            *self.via_from_simplicial(len(ids), [s for s, _ in helpers.rips_listed(levels)]))
        self.assert_matches_the_oracle(*self.via_from_steps(levels, ids))

    @settings(max_examples=150)
    @given(cloud=helpers.clouds(), eps=helpers.scales(), max_dim=st.integers(0, 3),
           data=st.data())
    def test_rips_layers_through_every_caller(self, cloud, eps, max_dim, data):
        ids = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=len(cloud),
                                 max_size=len(cloud), unique=True))
        self.assert_every_caller_matches(rips_simplices(cloud, eps, max_dim), ids)

    @settings(max_examples=100)
    @given(n=st.integers(1, 300), data=st.data())
    def test_from_simplicial_closes_any_simplex_set(self, n, data):
        vertex = st.integers(0, n - 1)
        simplices = data.draw(st.lists(st.sets(vertex, min_size=1, max_size=4), max_size=20))
        self.assert_matches_the_oracle(*self.via_from_simplicial(n, simplices))

    def test_more_than_256_vertices(self):
        # Vertex ids above 255 fill more than the last byte of a face's key.
        cloud = cx.PointCloud(np.random.default_rng(7).uniform(size=(300, 2)))
        levels = rips_simplices(cloud, 0.1, 3)
        assert len(levels) == 4
        assert all(vertices.max() > 256 for vertices, _ in levels)
        ids = [1000 * (v % 7) + v for v in range(300)]  # not in the vertices' order
        self.assert_every_caller_matches(levels, ids)

    @settings(max_examples=60)
    @given(cloud=helpers.clouds(), eps=helpers.scales(), max_dim=st.integers(1, 3),
           data=st.data())
    def test_triplets_reach_the_constructor_in_column_order(self, cloud, eps, max_dim, data):
        # Strictly increasing (col, row): the constructor's sort finds them sorted.
        ids = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=len(cloud),
                                 max_size=len(cloud), unique=True))
        levels, handed, construct = rips_simplices(cloud, eps, max_dim), [], builders.BoundaryMatrix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builders, "BoundaryMatrix",
                          lambda *args: handed.append(args[2]) or construct(*args))
            self.assert_every_caller_matches(levels, ids)
        assert len(handed) == 3 * (len(levels) - 1)
        for rows, cols, _ in (np.asarray(triplets).T for triplets in handed):
            step_col, step_row = np.diff(cols), np.diff(rows)
            assert ((step_col > 0) | ((step_col == 0) & (step_row > 0))).all()

    @pytest.mark.parametrize("n", [16175, 16176])
    def test_face_keys_on_both_sides_of_their_bound(self, n):
        # C(16175, 5) < 2^63 <= C(16176, 5): the faces of 5-simplices are found by
        # int64 ranks on the first side and by byte keys on the second.
        top = [(0, 1, 2, 3, 4, 5), (0, 1, 2, n - 3, n - 2, n - 1),
               (0, 7, n // 2, n - 3, n - 2, n - 1), (n - 6, n - 5, n - 4, n - 3, n - 2, n - 1)]
        layers = [sorted({face for s in top for face in itertools.combinations(s, k + 1)})
                  for k in range(6)]
        layers[0] = [(v,) for v in range(n)]
        arrays = [np.array(layer, dtype=np.int64) for layer in layers]
        assert builders._row_keys(arrays[4], n).dtype == (np.int64 if n == 16175 else "V40")
        self.assert_matches_the_oracle(layers, builders._simplex_boundaries(arrays))

    @settings(max_examples=100)
    @given(cloud=helpers.clouds().filter(lambda cloud: len(cloud) > 1),
           max_dim=st.integers(1, 3), data=st.data())
    def test_a_missing_face_raises(self, cloud, max_dim, data):
        # Every simplex of a complete complex is a face of one above it.
        layers = [vertices for vertices, _ in rips_simplices(cloud, math.inf, max_dim)]
        k = data.draw(st.integers(1, len(layers) - 1))
        below = layers[k - 1]
        drop = len(below) - 1 if k == 1 else data.draw(st.integers(0, len(below) - 1))
        layers[k - 1] = np.delete(below, drop, axis=0)
        missing = "-1" if k > 1 else str(drop)  # the last vertex's row lies outside B_1
        with pytest.raises(errors.ShapeMismatch, match=rf"^entry \({missing}, \d+\) outside"):
            builders._simplex_boundaries(layers)


class TestVietorisRips:
    def test_triangle_within_eps(self):
        cloud = cx.PointCloud([[0, 0], [1, 0], [0.5, 0.8]])
        cc = cx.vietoris_rips(cloud, 1.1, 2)
        assert [len(layer) for layer in cc.cells] == [3, 3, 1]

    def test_eps_zero_keeps_vertices_only(self):
        cloud = cx.PointCloud([[0, 0], [1, 0], [2, 0]])
        cc = cx.vietoris_rips(cloud, 0.0, 2)
        assert cc.dim == 0 and cc.n_cells(0) == 3

    def test_unit_square_corners(self):
        cloud = cx.PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])
        cc = cx.vietoris_rips(cloud, 1.0, 2)
        assert [len(layer) for layer in cc.cells] == [4, 4]
        assert cx.betti_numbers(cc).betti == (1, 1)

    def test_monotone_in_eps(self):
        rng = random.Random(21)
        cloud = helpers.random_cloud(rng, n_min=5, n_max=7)
        small = cx.vietoris_rips(cloud, 0.7, 2)
        large = cx.vietoris_rips(cloud, 1.4, 2)
        for k in range(small.dim + 1):
            assert set(small.cells[k]) <= set(large.cells[k])

    def test_simplex_cap(self):
        cloud = cx.PointCloud([[i, 0] for i in np.linspace(0, 1, 8)])
        with pytest.raises(errors.TooManySimplices):
            cx.vietoris_rips(cloud, 2.0, 3, max_simplices=20)

    def test_input_validation(self):
        cloud = cx.PointCloud([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            cx.vietoris_rips(cloud, -1.0, 2)
        with pytest.raises(ValueError):
            cx.PointCloud(np.zeros((0, 2)))

    def test_nan_scale_rejected(self):
        cloud = cx.PointCloud([[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="eps must be non-negative"):
            rips_simplices(cloud, math.nan, 1)
        with pytest.raises(ValueError, match="eps must be non-negative"):
            cx.vietoris_rips(cloud, math.nan, 2)

    def test_infinite_scale_is_bounded_by_the_cap(self):
        cloud = cx.PointCloud([[0, 0], [1, 0], [0, 5]])
        cc = cx.vietoris_rips(cloud, math.inf, 2)
        assert [len(layer) for layer in cc.cells] == [3, 3, 1]
        with pytest.raises(errors.TooManySimplices):
            cx.vietoris_rips(cloud, math.inf, 2, max_simplices=6)

    # The cap counts every simplex, vertices included, and only a cloud
    # with at least one edge can exceed it.
    @pytest.mark.parametrize("build", [
        lambda cloud, cap: rips_simplices(cloud, 2.0, 2, cap),
        lambda cloud, cap: cx.vietoris_rips(cloud, 2.0, 2, max_simplices=cap),
    ], ids=["rips_simplices", "vietoris_rips"])
    def test_cap_boundary(self, build):
        square = cx.PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])  # 4 + 6 + 4 simplices
        build(square, 14)
        with pytest.raises(errors.TooManySimplices, match="more than 13 simplices"):
            build(square, 13)
        apart = cx.PointCloud([[10.0 * i, 0] for i in range(5)])
        build(apart, 3)
        with pytest.raises(errors.TooManySimplices):
            build(cx.PointCloud([[0, 0], [1, 0], [10, 0], [20, 0], [30, 0]]), 4)

    def test_cap_bounds_memory(self):
        # Every edge of 400 points is within eps = inf: 80,200 simplices
        # up to dimension 1, and the triangles pass the cap block by block.
        import tracemalloc

        cloud = cx.PointCloud(np.random.default_rng(3).uniform(size=(400, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(errors.TooManySimplices):
                rips_simplices(cloud, math.inf, 2, cap=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @settings(max_examples=300)
    @given(cloud=helpers.clouds(), eps=helpers.scales(), max_dim=st.integers(0, 3))
    def test_rips_simplices_match_brute_force(self, cloud, eps, max_dim):
        # Same simplices in the same order, diameters equal as floats.
        levels = rips_simplices(cloud, eps, max_dim)
        assert helpers.rips_listed(levels) == helpers.rips_oracle(cloud, eps, max_dim)

    @settings(max_examples=200)
    @given(cloud=helpers.clouds(), eps=helpers.scales(), max_dim=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_from_simplicial(self, cloud, eps, max_dim, seed):
        # vietoris_rips skips the checks and the sort of from_simplicial;
        # fed the same simplices in any order, from_simplicial must agree.
        simplices = [s for s, _ in helpers.rips_listed(rips_simplices(cloud, eps, max_dim))]
        random.Random(seed).shuffle(simplices)
        expected = cx.from_simplicial(range(len(cloud)), simplices)
        cc = cx.vietoris_rips(cloud, eps, max_dim)
        assert cc.cells == expected.cells
        assert [b.shape for b in cc.boundaries] == [b.shape for b in expected.boundaries]
        assert [b.entries for b in cc.boundaries] == [b.entries for b in expected.boundaries]


class TestProduct:
    def test_paper_square_golden(self):
        k2 = helpers.k2_paper()
        square = cx.product(k2, k2)
        assert [len(layer) for layer in square.cells] == [4, 4, 1]
        expected_b1 = np.array(
            [
                [-1, 0, 1, 0],
                [1, 0, 0, 1],
                [0, -1, -1, 0],
                [0, 1, 0, -1],
            ]
        )
        assert np.array_equal(square.boundary(1).to_dense(), expected_b1)

    def test_product_with_point_copies_structure(self, toy):
        point = cx.from_tuples(["p"])
        copy = cx.product(toy, point)
        assert copy.dim == toy.dim
        for k in range(1, 3):
            assert copy.boundary(k).entries == toy.boundary(k).entries

    def test_toy_times_edge_is_exact_in_dimension_three(self, toy):
        tower = cx.product(toy, helpers.k2_paper())
        assert tower.dim == 3
        for k in range(2, 4):
            a = tower.boundary(k - 1).to_dense().astype(object)
            b = tower.boundary(k).to_dense().astype(object)
            assert not np.any(a @ b)
        assert cx.validate_nd(tower).valid

    def test_cell_count_convolution(self, toy):
        other = cx.cubical([3])
        prod = cx.product(toy, other)
        for total in range(prod.dim + 1):
            expected = sum(
                toy.n_cells(k) * other.n_cells(total - k) for k in range(total + 1)
            )
            assert prod.n_cells(total) == expected

    def test_euler_multiplicativity(self):
        rng = random.Random(22)
        for _ in range(10):
            a = helpers.random_builder_complex(rng)
            b = cx.cubical([rng.randint(1, 3)])
            prod = cx.product(a, b)
            assert cx.euler_characteristic(prod) == (
                cx.euler_characteristic(a) * cx.euler_characteristic(b)
            )

    def test_labels_with_top_level_commas_stay_unique(self):
        a = cx.from_tuples(["1,2", "1"], [("1,2", "1")])
        b = cx.from_tuples(["3", "2,3"], [("3", "2,3")])
        prod = cx.product(a, b)
        assert prod.cells[0] == ("(1\\,2,3)", "(1\\,2,2\\,3)", "(1,3)", "(1,2\\,3)")

    def test_label_pair_recurring_across_dimensions(self):
        # The edge shares its label with a vertex, so (v,v) occurs in both
        # blocks of dimension 1.
        edge = cx.from_tuples(["v", "w"], [("v", "w")])
        edge = cx.from_boundary_matrices([edge.cells[0], ["v"]], [edge.boundary(1)])
        prod = cx.product(edge, edge)
        assert prod.cells[1] == ("(v,v)[0]", "(w,v)", "(v,v)[1]", "(v,w)")

    @staticmethod
    def assert_checks_pass(cc: cx.CellComplex) -> None:
        # product builds its output without from_boundary_matrices, so
        # its checks run here, independently of core.
        assert all(len(set(layer)) == len(layer) for layer in cc.cells)
        assert all(isinstance(label, str) for layer in cc.cells for label in layer)
        assert helpers.exactness_holds(cc)
        assert cx.from_boundary_matrices(cc.cells, cc.boundaries) == cc

    @settings(max_examples=150)
    @given(a=helpers.labelled_factors(), b=helpers.labelled_factors())
    def test_labels_unique_for_any_factor_labels(self, a, b):
        prod = cx.product(a, b)
        assert prod.cells == helpers.product_labels_oracle(a, b)
        self.assert_checks_pass(prod)

    @settings(max_examples=40)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_cubical_matches_the_counter_oracle(self, sizes):
        grid = cx.cubical(sizes)
        if len(sizes) > 1:
            expected = helpers.product_labels_oracle(
                cx.cubical(sizes[:-1]), builders.path_complex(sizes[-1])
            )
            assert grid.cells == expected
        self.assert_checks_pass(grid)


class TestProductTrustsItsFactors:
    @staticmethod
    def refuse(*args):
        raise AssertionError("product re-checked what its factors guarantee")

    def test_no_label_check_and_no_exactness_product(self, monkeypatch):
        grid, square, path = cx.cubical([3, 4, 2]), cx.cubical([3, 4]), builders.path_complex(2)
        monkeypatch.setattr(core, "integer_product", self.refuse)
        monkeypatch.setattr(core, "_cell_layers", self.refuse)
        assert cx.cubical([3, 4, 2]) == grid
        assert cx.product(square, path) == grid
        assert cx.product(grid, path).n_cells(4) == grid.n_cells(3)

    def test_external_input_is_still_checked(self, tmp_path):
        with pytest.raises(errors.DuplicateLabel, match="^duplicate vertex 'a'$"):
            cx.from_tuples(["a", "b", "a"])
        with pytest.raises(errors.DuplicateLabel, match="^duplicate 2-cell label '0-1-2'$"):
            cx.from_tuples(range(3), [(0, 1), (1, 2), (0, 2)], [(0, 1, 2), (0, 1, 2)])
        doc = io.complex_to_json(helpers.toy())
        duplicate = {**doc, "cells": [doc["cells"][0], ["0-1"] * 6, doc["cells"][2]]}
        b1, b2 = doc["boundaries"]
        inexact = {**doc, "boundaries": [b1, {**b2, "entries": [[0, 0, 1], [1, 1, 1]]}]}
        for bad, error in ((duplicate, errors.DuplicateLabel), (inexact, errors.ExactnessViolated)):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(error):
                io.load_complex(str(path))


class TestProductWritesItsArrays:
    """product and path_complex write CSC arrays without the BoundaryMatrix
    constructor, so each boundary is checked here against the matrix the
    constructor builds from the same entries."""

    @staticmethod
    def assert_as_constructed(cc: cx.CellComplex) -> None:
        for b in cc.boundaries:
            triplets = np.column_stack(core._entry_arrays(b)[:3])
            assert b == cx.BoundaryMatrix(b.rows, b.cols, triplets)
            for array in (b.indptr, b.indices, b.signs):
                assert array.dtype == np.int64 and not array.flags.writeable

    @settings(max_examples=100)
    @given(a=helpers.labelled_factors(), b=helpers.labelled_factors())
    def test_products_of_labelled_factors(self, a, b):
        self.assert_as_constructed(cx.product(a, b))

    @settings(max_examples=40)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_cubical_up_to_five_dimensions(self, sizes):
        self.assert_as_constructed(cx.cubical(sizes))

    def test_no_constructor_call(self, monkeypatch):
        a, b = cx.cubical([3, 2]), helpers.toy()
        expected = cx.product(a, b), cx.product(b, a), cx.cubical([3, 1, 4, 2])

        def refuse(*args):
            raise AssertionError("product sorted and re-checked its own arrays")

        monkeypatch.setattr(core.BoundaryMatrix, "__post_init__", refuse)
        assert (cx.product(a, b), cx.product(b, a), cx.cubical([3, 1, 4, 2])) == expected


class TestCubical:
    def test_grid_counts(self):
        grid = cx.cubical([4, 4])
        assert [len(layer) for layer in grid.cells] == [16, 24, 9]
        assert cx.betti_numbers(grid).betti == (1, 0, 0)

    def test_single_edge(self):
        assert [len(l) for l in cx.cubical([2]).cells] == [2, 1]

    def test_solid_cube(self):
        cube = cx.cubical([2, 2, 2])
        assert [len(layer) for layer in cube.cells] == [8, 12, 6, 1]
        assert cx.validate_nd(cube).valid

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            cx.cubical([])
        with pytest.raises(ValueError):
            cx.cubical([0, 2])


def _window(points, edges):
    """The window lifting of the graph on vertices 0..n-1 with the given edges."""
    return cx.window_lifting(cx.from_tuples(range(len(points)), edges), points)


class TestWindowLifting:
    def test_unit_square_single_window(self):
        cc = _window([[0, 0], [1, 0], [1, 1], [0, 1]], ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert [len(layer) for layer in cc.cells] == [4, 4, 1]
        assert cc.cells[2] == ("0-1-2-3",)
        # Counterclockwise: three edges along their orientation, (0,3) against.
        assert cc.boundary(2).column(0) == [(0, 1), (1, 1), (2, 1), (3, -1)]

    def test_two_triangles_share_edge_with_opposite_signs(self):
        cc = _window(
            [[0, 0], [2, 0], [1, 1.5], [3, 1.5]],
            ((0, 1), (1, 2), (0, 2), (1, 3), (2, 3)),
        )
        assert cc.n_cells(2) == 2
        shared = cc.index_of(1, "1-2")
        signs = [dict(cc.boundary(2).column(j)).get(shared, 0) for j in range(2)]
        assert sorted(signs) == [-1, 1]
        assert cx.validate_nd(cc).valid

    def test_tree_embedding_has_no_windows(self):
        cc = _window([[0, 0], [1, 0], [2, 1], [2, -1]], ((0, 1), (1, 2), (1, 3)))
        assert cc.dim == 1

    def test_small_outer_face_detected_by_area(self):
        # Triangle 0-1-2 with vertex 3 inside joined to 0 and 1: the
        # outer face has 3 edges while an inner face has 4.
        cc = _window(
            [[0, 0], [4, 0], [2, 3], [2, 0.5]],
            ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3)),
        )
        cells = {frozenset(label.split("-")) for label in cc.cells[2]}
        assert cells == {frozenset("013"), frozenset("0123")}

    def test_bridge_cancels_out_of_window(self):
        # Square with a pendant vertex inside: the window traverses the
        # bridge twice, once per direction, and keeps only the square.
        cc = _window(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
            ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)),
        )
        assert cc.n_cells(2) == 1
        assert dict(cc.boundary(2).column(0)).keys() == {0, 1, 2, 3}

    def test_window_through_a_vertex_twice_rejected(self):
        # A triangle hung inside the square at corner 0: the window between
        # them passes vertex 0 twice.
        with pytest.raises(errors.NotACycleColumn, match="^window boundary is not a simple"):
            _window(
                [[0, 0], [4, 0], [4, 4], [0, 4], [1, 2], [2, 1]],
                ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (0, 5)),
            )

    def test_crossing_edges_rejected(self):
        with pytest.raises(errors.EdgesCross):
            cx.PlanarEmbedding(
                [[0, 0], [1, 1], [0, 1], [1, 0]], ((0, 1), (2, 3))
            )

    def test_vertex_on_edge_rejected(self):
        with pytest.raises(errors.EdgesCross):
            cx.PlanarEmbedding([[0, 0], [2, 0], [1, 0]], ((0, 1),))

    def test_disconnected_rejected(self):
        with pytest.raises(errors.Disconnected):
            _window([[0, 0], [1, 0], [5, 5], [6, 5]], ((0, 1), (2, 3)))

    @pytest.mark.parametrize("unit", [2.0**-27, 1e-8])
    def test_figure_eight_below_unit_size_rejected_at_construction(self, unit):
        # Edges (0, 1) and (2, 3) cross.  The checks' tolerance scales with the
        # drawing's largest coordinate, so the crossing is seen at any size.
        points = np.array([[2, 2], [0, 3], [1, 4], [1, 1]]) * unit
        with pytest.raises(errors.EdgesCross) as info:
            cx.PlanarEmbedding(points, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert str(info.value) == "edges (0, 1) and (2, 3) intersect"

    @pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-100])
    def test_square_with_a_diagonal_below_unit_size(self, scale):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        edges = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))
        unit = _window(square, edges)
        small = _window(square * scale, edges)
        assert small.cells == unit.cells and small.cells[2] == ("0-1-2", "0-2-3")
        assert all(small.boundary(k) == unit.boundary(k) for k in (1, 2))

    def test_crossing_below_the_tolerance_caught_by_face_areas(self):
        # The figure eight above, with a pendant vertex at (1, 0) that sets the
        # tolerance to 1e-12: every cross product of the figure eight is under
        # it and no endpoint lies in the other edge's box.  The two lobes are
        # equal, so both faces have signed area exactly 0 (coordinates are
        # exact multiples of 2^-27) and the face traversal finds no outer face.
        points = np.array([[2, 2], [0, 3], [1, 4], [1, 1], [2**27, 0]]) * 2.0**-27
        with pytest.raises(errors.EdgesCross) as info:
            _window(points, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)))
        assert str(info.value) == "face traversal found 0 outer faces; drawing is not plane"

    def test_triangulation_matches_simplicial_up_to_orientation(self):
        lifted = _window(
            [[0, 0], [2, 0], [1, 1.5], [3, 1.5]],
            ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)),
        )
        simplicial = cx.from_simplicial(
            range(4), [(0, 1, 2), (1, 2, 3)], auto_close=True
        )
        # Same labels in both constructions; compare unsigned incidence
        # after permuting to a shared label order.
        for k in (1, 2):
            perm_l = np.argsort(lifted.cells[k])
            perm_s = np.argsort(simplicial.cells[k])
            rows_l = np.argsort(lifted.cells[k - 1])
            rows_s = np.argsort(simplicial.cells[k - 1])
            dense_l = np.abs(lifted.boundary(k).to_dense())[np.ix_(rows_l, perm_l)]
            dense_s = np.abs(simplicial.boundary(k).to_dense())[np.ix_(rows_s, perm_s)]
            assert np.array_equal(dense_l, dense_s)


def _outcome(fn, *args):
    """None if fn(*args) returns, else the exception type and message."""
    try:
        fn(*args)
    except (ValueError, errors.CellComplexError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def drawings(draw):
    """Points on a 4x4 integer grid (collinear, touching and coincident
    cases) or uniform floats, with distinct edges in either orientation."""
    n = draw(st.integers(1, 8))
    coordinate = draw(st.sampled_from([st.integers(0, 3), st.floats(-2, 2)]))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    pairs = list(itertools.permutations(range(n), 2))
    if not pairs:
        return points, []
    return points, draw(st.lists(st.sampled_from(pairs), unique_by=frozenset, max_size=10))


def _grid_with_diagonals(m: int):
    points = [(i, j) for i in range(m) for j in range(m)]
    at = {p: k for k, p in enumerate(points)}
    edges = [(at[i, j], at[i + 1, j]) for i in range(m - 1) for j in range(m)]
    edges += [(at[i, j], at[i, j + 1]) for i in range(m) for j in range(m - 1)]
    edges += [(at[i, j], at[i + 1, j + 1]) for i in range(m - 1) for j in range(m - 1)]
    return points, edges, at


class TestPlanarEmbeddingChecks:
    @settings(max_examples=300)
    @given(drawing=drawings())
    @example(drawing=([[0, 0], [1, 0], [0, 1]], [(0, 1.7), (1, 2), (2.9, 0)]))
    @example(drawing=([[0, 0], [1, 0], [0, 1]], [(0, 3), (1, "2")]))
    def test_matches_the_loop_oracle(self, drawing):
        points, edges = drawing
        assert _outcome(cx.PlanarEmbedding, points, tuple(edges)) == _outcome(
            helpers.planar_embedding_oracle, points, edges
        )

    @pytest.mark.parametrize("labels, error", [
        (("a", "b"), errors.ShapeMismatch),
        (("a", "b", "c", "d"), errors.ShapeMismatch),
        (("a", "b", "a"), errors.DuplicateLabel),
    ])
    def test_label_count_and_uniqueness(self, labels, error):
        # A coordinate row count that differs from the label count is a shape
        # error naming both counts; only equal counts with a repeat are duplicates.
        points = [(0, 0), (1, 0), (0, 1)]
        outcome = _outcome(cx.PlanarEmbedding, points, ((0, 1),), labels)
        assert outcome == _outcome(helpers.planar_embedding_oracle, points, ((0, 1),), labels)
        assert outcome[0] is error
        if error is errors.ShapeMismatch:
            assert outcome[1] == f"3 coordinate rows for {len(labels)} vertices"

    @pytest.mark.parametrize("points, edges, error, message", [
        ([(0, 0), (1, math.nan)], ((0, 1),), ValueError, "coordinates must be finite"),
        ([(0, 0), (1, 0), (0, 1)], ((0, 3),), errors.UnknownVertex, "edge (0, 3) outside 0..2"),
        ([(0, 0), (1, 0), (0, 1)], ((0, 1), (1, 1)), errors.EdgesCross,
         "edge (1, 1) is a self-loop"),
        ([(0, 0), (1, 0), (0, 1)], ((0, 1), (1, 0)), errors.EdgesCross,
         "edge (1, 0) drawn twice"),
        ([(0, 0), (1, 0), (0, 1)], ((0, 1.7), (1, 2), (2.9, 0)), errors.ShapeMismatch,
         "edge (0, 1.7) has a vertex index that is not an integer"),
    ], ids=["non-finite", "unknown-vertex", "self-loop", "drawn-twice", "non-integer"])
    def test_bad_points_and_edges(self, points, edges, error, message):
        with pytest.raises(error) as info:
            cx.PlanarEmbedding(points, edges)
        assert str(info.value) == message

    def test_numpy_integer_indices_are_read_as_ints(self):
        emb = cx.PlanarEmbedding([(0, 0), (1, 0), (0, 1)], ((np.int64(0), np.int32(1)), (1, 2)))
        assert emb.edges == ((0, 1), (1, 2))
        assert {type(i) for edge in emb.edges for i in edge} == {int}

    def test_violations_in_the_last_row_block(self):
        # 289 vertices and 800 edges: every check spans several row blocks,
        # and each planted violation sits in the last one.
        m = 17
        points, edges, at = _grid_with_diagonals(m)
        n = len(points)
        assert n * n > builders._BLOCK and len(edges) ** 2 > builders._BLOCK
        cx.PlanarEmbedding(points, tuple(edges))
        last = (at[m - 2, m - 2], at[m - 1, m - 1])  # the last diagonal
        assert edges[-1] == last
        crossing = (at[m - 1, m - 2], at[m - 2, m - 1])
        cases = [
            (points + [points[-1]], edges, f"vertices {n - 1} and {n} share coordinates"),
            (points, edges + [crossing], f"edges {last} and {crossing} intersect"),
            (points + [(m - 1.5, m - 1.5)], edges, f"vertex {n} lies on edge {last}"),
        ]
        for pts, drawn, message in cases:
            with pytest.raises(errors.EdgesCross) as info:
                cx.PlanarEmbedding(pts, tuple(drawn))
            assert str(info.value) == message


class TestSpanningTreeLifting:
    def test_tree_input_stays_one_dimensional(self):
        tree = cx.from_tuples(range(4), [(0, 1), (1, 2), (1, 3)])
        assert cx.spanning_tree_lifting(tree).dim == 1

    def test_four_cycle_single_cell(self):
        ring = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        cc = cx.spanning_tree_lifting(ring)
        assert cc.n_cells(2) == 1
        assert len(cc.boundary(2).column(0)) == 4

    def test_parallel_edges_get_a_plus_per_repeated_label(self):
        b1 = cx.BoundaryMatrix(
            2, 3, [(0, 0, -1), (1, 0, 1), (0, 1, -1), (1, 1, 1), (0, 2, 1), (1, 2, -1)])
        graph = cx.from_boundary_matrices([["a", "b"], ["x", "y", "z"]], [b1])
        cc = cx.spanning_tree_lifting(graph)
        assert cc.cells[2] == ("a-b", "a-b+")
        assert cc.boundary(2).entries == ((0, 0, -1), (1, 0, 1), (0, 1, 1), (2, 1, 1))

    def test_toy_graph_fills_cycle_space(self, toy_graph):
        cc = cx.spanning_tree_lifting(toy_graph)
        assert cc.n_cells(2) == 6 - 5 + 1 == 2
        assert cx.betti_numbers(cc).betti == (1, 0, 0)
        assert cx.validate_nd(cc).valid

    def test_cells_are_canonically_oriented(self, toy_graph):
        cc = cx.spanning_tree_lifting(toy_graph)
        _, _, polygons = cx.to_tuples(cc)
        for polygon in polygons:
            indices = [cc.index_of(0, v) for v in polygon]
            assert indices[0] == min(indices) and indices[1] < indices[-1]

    def test_root_choice_changes_tree_not_rank(self, toy_graph):
        for root in ("0", "3", 4):
            cc = cx.spanning_tree_lifting(toy_graph, root)
            assert cc.n_cells(2) == 2
            assert cx.validate_nd(cc).valid

    @pytest.mark.parametrize("root", [4, 7, -1])
    def test_integer_root_outside_vertices_rejected(self, root):
        ring = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(errors.UnknownVertex) as info:
            cx.spanning_tree_lifting(ring, root)
        assert str(info.value) == f"no 0-cell at index {root} of 4"

    @staticmethod
    def toy_labelled(labels):
        return cx.from_tuples(labels, [(labels[t], labels[h]) for t, h in helpers.TOY_EDGES])

    def test_numpy_integer_root_is_an_index(self):
        graph = self.toy_labelled(["v0", "v1", "v2", "v3", "v4"])
        by_index = cx.spanning_tree_lifting(graph, 2)
        assert by_index != cx.spanning_tree_lifting(graph, 1)
        for root in (np.int64(2), np.uint8(2), np.int32(2)):
            assert cx.spanning_tree_lifting(graph, root) == by_index
        with pytest.raises(errors.UnknownVertex, match="^no 0-cell at index 7 of 5$"):
            cx.spanning_tree_lifting(graph, np.int64(7))

    def test_bool_root_is_a_label(self):
        graph = self.toy_labelled(["a", "b", "True", "c", "False"])
        assert cx.spanning_tree_lifting(graph, True) == cx.spanning_tree_lifting(graph, 2)
        assert cx.spanning_tree_lifting(graph, False) == cx.spanning_tree_lifting(graph, 4)
        assert cx.spanning_tree_lifting(graph, 2) != cx.spanning_tree_lifting(graph, 1)
        with pytest.raises(errors.UnknownVertex, match="^no 0-cell labelled 'True'$"):
            cx.spanning_tree_lifting(self.toy_labelled(["v0", "v1", "v2", "v3", "v4"]), True)

    def test_other_roots_are_labels(self):
        graph = self.toy_labelled(["4", "3", "0", "2.0", "1"])
        assert cx.spanning_tree_lifting(graph, "0") == cx.spanning_tree_lifting(graph, 2)
        assert cx.spanning_tree_lifting(graph, 2.0) == cx.spanning_tree_lifting(graph, 3)
        with pytest.raises(errors.UnknownVertex, match="^no 0-cell labelled '1.5'$"):
            cx.spanning_tree_lifting(graph, 1.5)

    def test_disconnected_rejected(self):
        graph = cx.from_tuples(range(4), [(0, 1), (2, 3)])
        with pytest.raises(errors.Disconnected):
            cx.spanning_tree_lifting(graph)

    def test_needs_dimension_one(self, toy):
        with pytest.raises(errors.BadDimension):
            cx.spanning_tree_lifting(toy)


@st.composite
def simple_graphs(draw):
    """Simple graphs on 2-9 vertices with at least one edge, of any density,
    often with isolated vertices or several components; each edge in a
    random orientation and the list shuffled."""
    n = draw(st.integers(2, 9))
    density = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.integers(0, 9)) < density]
    edges = edges or [draw(st.sampled_from(pairs))]
    edges = draw(st.permutations(edges))
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    return cx.from_tuples([f"v{i}" for i in range(n)], [(f"v{t}", f"v{h}") for t, h in edges])


class TestChordlessCycleLifting:
    def test_triangle(self):
        triangle = cx.from_tuples(range(3), [(0, 1), (1, 2), (0, 2)])
        cc = cx.chordless_cycle_lifting(triangle)
        assert cc.cells[2] == ("0-1-2",)

    def test_chord_splits_square(self):
        graph = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        cc = cx.chordless_cycle_lifting(graph)
        assert cc.cells[2] == ("0-1-2", "0-2-3")

    def test_complete_graph_four_triangles(self):
        k4 = cx.from_tuples(range(4), list(itertools.combinations(range(4), 2)))
        cc = cx.chordless_cycle_lifting(k4)
        assert cc.cells[2] == ("0-1-2", "0-1-3", "0-2-3", "1-2-3")
        assert cx.validate_nd(cc).valid

    def test_cap_exceeded(self):
        k4 = cx.from_tuples(range(4), list(itertools.combinations(range(4), 2)))
        with pytest.raises(errors.CapExceeded):
            cx.chordless_cycle_lifting(k4, max_cells=2)

    def test_multigraph_rejected(self):
        b1 = cx.BoundaryMatrix(2, 2, ((0, 0, -1), (1, 0, 1), (0, 1, -1), (1, 1, 1)))
        multi = cx.from_boundary_matrices([["a", "b"], ["e1", "e2"]], [b1])
        with pytest.raises(errors.NotSimple):
            cx.chordless_cycle_lifting(multi)

    def test_acyclic_graph_unchanged(self):
        tree = cx.from_tuples(range(3), [(0, 1), (1, 2)])
        assert cx.chordless_cycle_lifting(tree).dim == 1

    def test_work_grows_with_the_cycles_not_the_induced_paths(self):
        # A chain of 25 squares a0-{b1,c1}-a1-{b2,c2}-a2-..., numbered in that
        # order, has 25 chordless cycles but 2^25 induced paths from a0.  A
        # search that walks every induced path runs for hours; run the
        # lifting in a child process so that such a search fails the test.
        src = os.path.dirname(os.path.dirname(cx.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import cellcomplex as cx\n"
            "edges = [(a, a + d) for a in range(0, 75, 3) for d in (1, 2)]\n"
            "edges += [(a + d, a + 3) for a in range(0, 75, 3) for d in (1, 2)]\n"
            "print(cx.chordless_cycle_lifting(cx.from_tuples(range(76), edges)).cells[2])\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True, timeout=30)
        squares = tuple(f"{a}-{a + 1}-{a + 3}-{a + 2}" for a in range(0, 75, 3))
        assert result.stdout == f"{squares}\n"

    @settings(max_examples=200)
    @given(graph=simple_graphs(), data=st.data())
    def test_matches_the_vertex_subset_oracle(self, graph, data):
        expected = helpers.chordless_cycles_oracle(graph)
        count = expected.n_cells(2)
        cap = data.draw(st.integers(0, 90) | st.integers(max(count - 1, 0), count + 1))
        if count > cap:
            with pytest.raises(errors.CapExceeded):
                cx.chordless_cycle_lifting(graph, cap)
        else:
            assert cx.chordless_cycle_lifting(graph, cap) == expected


@st.composite
def multigraphs(draw):
    """Connected graphs with parallel and antiparallel edges (digon cycles):
    a random tree, extra edges, and copies of drawn edges, each edge in a
    random orientation and the list shuffled."""
    n = draw(st.integers(2, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(itertools.permutations(range(n), 2))
    edges += draw(st.lists(st.sampled_from(pairs), max_size=6))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    edges = draw(st.permutations(edges))
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    entries = [(v, j, s) for j, (t, h) in enumerate(edges) for v, s in ((t, -1), (h, 1))]
    b1 = cx.BoundaryMatrix(n, len(edges), entries)
    return cx.from_boundary_matrices([[f"v{i}" for i in range(n)],
                                      [f"e{j}" for j in range(len(edges))]], [b1])


@st.composite
def plane_grids(draw):
    """Plane grids with a random set of diagonals and edge orientations."""
    m = draw(st.integers(2, 5))
    points, edges, _ = _grid_with_diagonals(m)
    n_diag = (m - 1) ** 2
    keep = draw(st.lists(st.booleans(), min_size=n_diag, max_size=n_diag))
    edges = edges[: len(edges) - n_diag] + [e for e, k in zip(edges[-n_diag:], keep) if k]
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    return cx.from_tuples(range(len(points)), edges), points, n_diag + sum(keep)


def _check_lifted(graph, lifted):
    assert lifted.cells[:2] == graph.cells[:2]
    assert lifted.boundary(1) == graph.boundary(1)
    if lifted.dim == 2:
        assert cx.validate_dim2(lifted).valid
    assert cx.validate_nd(lifted).valid


def _result(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, errors.CellComplexError) as exc:
        return type(exc), str(exc)


# Named drawings for the face-walk oracle: (points, edges, the expected outcome's
# type, and its message for an error).  The tiny figures are multiples of 2^-27
# beside a vertex at (1, 0), so the constructor's tolerance of 1e-12 misses
# their crossings and only the face areas reveal them.
WINDOW_CASES = {
    "pendant-tree-in-a-window": (
        [[0, 0], [4, 0], [4, 4], [0, 4], [1, 1], [2, 1], [1, 2], [2, 2.5]],
        ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (4, 6), (7, 6)),
        cx.CellComplex, None),
    "cycle-in-a-face-by-a-bridge": (
        [[0, 0], [4, 0], [4, 4], [0, 4], [1, 1], [2, 1], [1, 2]],
        ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6), (0, 4)),
        errors.NotACycleColumn, "window boundary is not a simple cycle: "
        "edge selection splits into several cycles (disconnected)"),
    # Both squares hold a window that is no simple cycle; the one reported is
    # on the left, whose face holds the smallest dart (0, 1), though the right
    # one holds edge 0.
    "first-bad-window-by-smallest-dart": (
        [[0, 0], [4, 0], [4, 4], [0, 4], [1, 1], [2, 1], [1, 2],
         [6, 0], [10, 0], [10, 4], [6, 4], [7, 2], [8, 1]],
        ((7, 8), (8, 9), (9, 10), (7, 10), (7, 11), (11, 12), (7, 12), (0, 1), (1, 2),
         (2, 3), (0, 3), (4, 5), (5, 6), (4, 6), (0, 4), (1, 7)),
        errors.NotACycleColumn, "window boundary is not a simple cycle: "
        "edge selection splits into several cycles (disconnected)"),
    "tiny-figure-eight": (
        np.array([[2, 2], [0, 3], [1, 4], [1, 1], [2**27, 0]]) * 2.0**-27,
        ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)),
        errors.EdgesCross, "face traversal found 0 outer faces; drawing is not plane"),
    "tiny-crossing-with-two-outer-faces": (
        np.array([[1, 3], [4, 1], [5, 3], [3, 4], [2, 2], [2**27, 0]]) * 2.0**-27,
        ((0, 4), (1, 3), (1, 4), (2, 3), (3, 4), (0, 2), (1, 5)),
        errors.EdgesCross, "face traversal found 2 outer faces; drawing is not plane"),
    "tree": ([[0, 0], [1, 0], [2, 1], [2, -1]], ((0, 1), (1, 2), (1, 3)), cx.CellComplex, None),
    "disconnected": ([[0, 0], [1, 0], [5, 5], [6, 5]], ((0, 1), (2, 3)),
                     errors.Disconnected, "underlying graph is not connected"),
}


class TestWindowLiftingMatchesTheFaceWalk:
    """The dart arrays against the dict walk they replaced (helpers)."""

    @settings(max_examples=40)
    @given(grid=plane_grids())
    def test_plane_grids(self, grid):
        graph, points, _ = grid
        assert cx.window_lifting(graph, points) == helpers.window_lifting_oracle(graph, points)

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_named_drawings(self, case):
        points, edges, kind, message = WINDOW_CASES[case]
        graph = cx.from_tuples(range(len(points)), edges)
        outcome = _result(cx.window_lifting, graph, points)
        assert outcome == _result(helpers.window_lifting_oracle, graph, points)
        if kind is not cx.CellComplex:
            assert outcome == (kind, message)
        elif case == "tree":
            assert outcome is graph
        else:
            assert outcome.n_cells(2) == 1 and outcome.boundary(1) is graph.boundary(1)


class TestCyclesAttachedWithoutRetracing:
    """The liftings build each 2-cell's column once, from the cycle they
    already hold; only window cells are traced, once each."""

    @settings(max_examples=150)
    @given(graph=multigraphs())
    def test_tree_lifting_matches_the_root_path_oracle_at_every_root(self, graph):
        for root in range(graph.n_cells(0)):
            lifted = cx.spanning_tree_lifting(graph, root)
            assert lifted == helpers.fundamental_cycles_oracle(graph, root)
            assert lifted.n_cells(2) == graph.n_cells(1) - graph.n_cells(0) + 1
            _check_lifted(graph, lifted)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chordless_cells_are_valid_canonical_cycles(self, seed):
        graph = helpers.random_connected_graph(random.Random(seed), n_max=8, extra_min=1)
        lifted = cx.chordless_cycle_lifting(graph)
        _check_lifted(graph, lifted)
        for polygon in cx.to_tuples(lifted)[2]:
            indices = [graph.index_of(0, v) for v in polygon]
            assert indices[0] == min(indices) and indices[1] < indices[-1]

    @settings(max_examples=40)
    @given(grid=plane_grids())
    def test_window_cells_of_plane_grids(self, grid):
        graph, points, faces = grid
        lifted = cx.window_lifting(graph, points)
        assert lifted.n_cells(2) == faces
        _check_lifted(graph, lifted)

    def test_oriented_cycle_runs_once_per_window_cell_only(self, monkeypatch, toy_graph):
        calls, trace = [], core.oriented_cycle

        def counted(*args):
            calls.append(args)
            return trace(*args)

        monkeypatch.setattr(builders, "oriented_cycle", counted)
        monkeypatch.setattr(core, "oriented_cycle", counted)
        points, edges, _ = _grid_with_diagonals(4)
        lifted = cx.window_lifting(cx.from_tuples(range(len(points)), edges), points)
        assert len(calls) == lifted.n_cells(2) == 18
        calls.clear()
        assert cx.spanning_tree_lifting(toy_graph).n_cells(2) == 2
        assert cx.chordless_cycle_lifting(toy_graph).n_cells(2) == 2
        assert calls == []


class TestLiftingsTrustTheirCycles:
    """The liftings attach closed walks with labels made unique, so they skip
    from_boundary_matrices; their outputs are checked here independently."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("a lifting re-checked the cycles it built")

    @staticmethod
    def assert_independently_valid(graph, lifted):
        assert lifted.cells[:2] == graph.cells[:2]
        assert lifted.boundary(1) is graph.boundary(1)
        assert all(len(set(layer)) == len(layer) for layer in lifted.cells)
        assert helpers.exactness_holds(lifted)

    def test_no_label_check_and_no_exactness_product(self, monkeypatch):
        points, edges, _ = _grid_with_diagonals(5)
        graph = cx.from_tuples(range(len(points)), edges)
        roots = (0, 12, 24)
        expected = ([cx.spanning_tree_lifting(graph, root) for root in roots],
                    cx.chordless_cycle_lifting(graph), cx.window_lifting(graph, points))
        for name in ("_cell_layers", "from_boundary_matrices", "integer_product"):
            monkeypatch.setattr(core, name, self.refuse)
        monkeypatch.setattr(builders, "from_boundary_matrices", self.refuse)
        assert [cx.spanning_tree_lifting(graph, root) for root in roots] == expected[0]
        assert cx.chordless_cycle_lifting(graph) == expected[1]
        assert cx.window_lifting(graph, points) == expected[2]
        assert expected[0][0].n_cells(2) == len(edges) - len(points) + 1

    @settings(max_examples=100)
    @given(graph=multigraphs(), data=st.data())
    def test_tree_lifting_of_multigraphs(self, graph, data):
        root = data.draw(st.integers(0, graph.n_cells(0) - 1))
        self.assert_independently_valid(graph, cx.spanning_tree_lifting(graph, root))

    @settings(max_examples=100)
    @given(graph=simple_graphs())
    def test_chordless_lifting_of_simple_graphs(self, graph):
        self.assert_independently_valid(graph, cx.chordless_cycle_lifting(graph))

    @settings(max_examples=30)
    @given(grid=plane_grids())
    def test_window_lifting_of_plane_grids(self, grid):
        graph, points, _ = grid
        self.assert_independently_valid(graph, cx.window_lifting(graph, points))


class TestDeepTrees:
    """BFS trees far deeper than the hypothesis draws, so that every level
    of the ancestor jumps is taken, against the root-path oracle."""

    def test_long_cycle(self):
        n = 3000
        ring = cx.from_tuples(range(n), [(i, (i + 1) % n) for i in range(n)])
        for root in (0, 1234):
            lifted = cx.spanning_tree_lifting(ring, root)
            assert lifted == helpers.fundamental_cycles_oracle(ring, root)
            assert len(lifted.boundary(2).column(0)) == n

    def test_long_path_with_one_chord(self):
        n = 3000
        path = cx.from_tuples(range(n), [(i, i + 1) for i in range(n - 1)] + [(2900, 100)])
        for root in (0, 1500, 2999):
            lifted = cx.spanning_tree_lifting(path, root)
            assert lifted == helpers.fundamental_cycles_oracle(path, root)
            assert len(lifted.boundary(2).column(0)) == 2801

    @pytest.mark.parametrize("root", [0, 30 * 60 + 30])
    def test_grid_at_a_corner_and_the_centre(self, root):
        grid = cx.cubical([60, 60])
        graph = cx.from_boundary_matrices(grid.cells[:2], grid.boundaries[:1])
        lifted = cx.spanning_tree_lifting(graph, root)
        assert lifted == helpers.fundamental_cycles_oracle(graph, root)
        assert lifted.n_cells(2) == 59 * 59


class TestBuilderOutputsAreRegular:
    def test_zoo_passes_validate_nd(self):
        rng = random.Random(23)
        for _ in range(25):
            cc = helpers.random_builder_complex(rng)
            report = cx.validate_nd(cc)
            assert report.valid, report.failures
