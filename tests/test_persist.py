"""Rips filtrations and persistence diagrams."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex.builders import rips_simplices
from cellcomplex.persist import Filtration, FiltrationStep

import helpers

SQUARE = cx.PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])


class TestVrFiltration:
    def test_two_points(self):
        cloud = cx.PointCloud([[0, 0], [1, 0]])
        filtration = cx.vr_filtration(cloud, 2.0, 1)
        births = [(s.vertices, s.birth) for s in filtration.steps]
        assert births == [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]

    def test_unit_square_births(self):
        filtration = cx.vr_filtration(SQUARE, 2.0, 2)
        by_dim = {}
        for step in filtration.steps:
            by_dim.setdefault(step.dim, []).append(step.birth)
        assert by_dim[0] == [0.0] * 4
        assert sorted(by_dim[1]) == pytest.approx([1, 1, 1, 1, math.sqrt(2), math.sqrt(2)])
        assert by_dim[2] == pytest.approx([math.sqrt(2)] * 4)

    def test_max_eps_zero(self):
        filtration = cx.vr_filtration(SQUARE, 0.0, 2)
        assert all(step.dim == 0 for step in filtration.steps)

    def test_faces_precede(self):
        rng = random.Random(31)
        cloud = helpers.random_cloud(rng, n_min=5, n_max=8)
        filtration = cx.vr_filtration(cloud, 3.0, 2)
        seen = set()
        for step in filtration.steps:
            if step.dim >= 1:
                for face in itertools.combinations(step.vertices, step.dim):
                    assert face in seen
            seen.add(step.vertices)

    def test_validation_rejects_bad_order(self):
        steps = (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(0.5, 1, (0, 1)),
        )
        Filtration.from_steps(steps)
        with pytest.raises(ValueError):
            Filtration.from_steps(steps[::-1])
        with pytest.raises(ValueError):
            Filtration.from_steps((FiltrationStep(0.0, 1, (0, 1)),))

    def test_validation_rejects_missing_face_between_valid_steps(self):
        steps = (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(0.5, 1, (0, 1)),
            FiltrationStep(0.6, 1, (0, 2)),
            FiltrationStep(0.7, 0, (2,)),
        )
        with pytest.raises(ValueError, match=r"face \(2,\) of \(0, 2\) missing or out of order"):
            Filtration.from_steps(steps)

    def test_validation_rejects_out_of_order_birth_between_valid_steps(self):
        steps = (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(0.0, 0, (2,)),
            FiltrationStep(0.5, 1, (0, 1)),
            FiltrationStep(0.4, 1, (1, 2)),
            FiltrationStep(0.6, 1, (0, 2)),
            FiltrationStep(0.6, 2, (0, 1, 2)),
        )
        with pytest.raises(ValueError, match="not sorted by"):
            Filtration.from_steps(steps)

    def test_validation_rejects_repeated_vertex(self):
        steps = (FiltrationStep(0.0, 0, (0,)), FiltrationStep(0.5, 1, (0, 0)))
        with pytest.raises(ValueError, match=r"simplex \(0, 0\) is not strictly increasing"):
            Filtration.from_steps(steps)
        steps = (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(0.5, 1, (0, 1)),
            FiltrationStep(0.5, 2, (0, 0, 1)),
        )
        with pytest.raises(ValueError, match=r"simplex \(0, 0, 1\) is not strictly increasing"):
            Filtration.from_steps(steps)

    @pytest.mark.parametrize("steps", [
        (FiltrationStep(0.0, 0, (0,)), FiltrationStep(0.0, 0, (0,))),
        # A vertex repeated after one of its cofaces.
        (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(1.0, 1, (0, 1)),
            FiltrationStep(2.0, 0, (0,)),
        ),
    ], ids=["adjacent", "after-coface"])
    def test_validation_rejects_repeated_simplex(self, steps):
        with pytest.raises(ValueError, match=r"simplex \(0,\) occurs twice"):
            Filtration.from_steps(steps)

    def test_faces_hold_facet_positions(self):
        steps = (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(0.0, 0, (2,)),
            FiltrationStep(0.5, 1, (0, 1)),
            FiltrationStep(0.5, 1, (1, 2)),
            FiltrationStep(0.6, 1, (0, 2)),
            FiltrationStep(0.6, 2, (0, 1, 2)),
        )
        filtration = Filtration.from_steps(steps)
        # Each dimension's cells are numbered by vertex tuple: edges (0, 1),
        # (0, 2), (1, 2); the face omitting position i has sign (-1)^i.
        b1, b2 = filtration.boundaries
        assert b1.to_dense().tolist() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
        assert b2.column(0) == [(0, 1), (1, -1), (2, 1)]
        assert filtration.cell_births.tolist() == [0.0] * 3 + [0.5, 0.6, 0.5, 0.6]
        # Edges 0, 2, 1 enter at positions 3, 4, 5: the triangle's facets.
        assert filtration.cells.tolist() == [0, 1, 2, 0, 2, 1, 0]
        assert "cells=" not in repr(filtration)
        assert filtration == Filtration.from_steps(steps)


    def test_validation_rejects_nan_birth(self):
        # A NaN birth compares false both ways, so a sort would keep it and
        # vertex 1's H0 bar would vanish.
        steps = (
            FiltrationStep(0.0, 0, (0,)),
            FiltrationStep(math.nan, 0, (1,)),
            FiltrationStep(0.5, 1, (0, 1)),
        )
        with pytest.raises(ValueError, match="step 1 has a NaN birth"):
            Filtration.from_steps(steps)

    def test_validation_rejects_negative_dim(self):
        with pytest.raises(ValueError, match="step 0 has negative dim -1"):
            Filtration.from_steps((FiltrationStep(0.0, -1, ()),))

    def test_validation_rejects_dim_mismatch(self):
        steps = (FiltrationStep(0.0, 0, (0,)), FiltrationStep(0.0, 1, (1,)))
        with pytest.raises(ValueError, match=r"simplex \(1,\) disagrees with dim 1"):
            Filtration.from_steps(steps)
        edge = cx.BoundaryMatrix(2, 1, [(0, 0, -1), (1, 0, 1)])
        with pytest.raises(ValueError, match="3 cells need one birth each, got 2"):
            Filtration((edge,), np.zeros(2))
        with pytest.raises(ValueError, match="one row per column of B_"):
            Filtration((edge, cx.BoundaryMatrix(2, 1, ())), np.zeros(4))

    @pytest.mark.parametrize("births, shape", [([[0.0]], "(1, 1)"), (np.zeros((2, 1)), "(2, 1)")])
    def test_births_of_the_wrong_shape_are_named_by_shape(self, births, shape):
        message = f"need one birth each, got {len(births)} in shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Filtration((), births)

    def test_steps_read_the_columns(self):
        filtration = cx.vr_filtration(SQUARE, 2.0, 2)
        steps = filtration.steps
        assert len(steps) == 14 and steps[-1] == FiltrationStep(math.sqrt(2), 2, (1, 2, 3))
        assert steps[4:6] == (FiltrationStep(1.0, 1, (0, 1)), FiltrationStep(1.0, 1, (0, 3)))
        assert Filtration.from_steps(steps) == filtration
        assert Filtration.from_steps(()).steps == ()


    def test_vertex_ids_need_not_be_a_range(self):
        steps = (
            FiltrationStep(0.0, 0, (-2,)),
            FiltrationStep(0.0, 0, (3,)),
            FiltrationStep(0.0, 0, (7,)),
            FiltrationStep(1.0, 1, (-2, 7)),
        )
        filtration = Filtration.from_steps(steps)
        # The 0-cells are numbered by the ids' order, and steps reports those numbers.
        assert list(filtration.steps) == [
            FiltrationStep(0.0, 0, (0,)), FiltrationStep(0.0, 0, (1,)),
            FiltrationStep(0.0, 0, (2,)), FiltrationStep(1.0, 1, (0, 2)),
        ]
        assert [(b.dim, b.death) for b in cx.persistence(filtration).bars] == [
            (0, 1.0), (0, math.inf), (0, math.inf)
        ]


@settings(max_examples=300)
@given(cloud=helpers.clouds(), eps=helpers.scales(), max_dim=st.integers(0, 3))
def test_filtration_order_and_faces_match_oracle(cloud, eps, max_dim):
    filtration = cx.vr_filtration(cloud, eps, max_dim)
    keys = sorted(
        (diameter, len(vertices) - 1, vertices)
        for vertices, diameter in helpers.rips_oracle(cloud, eps, max_dim)
    )
    assert list(filtration.steps) == [FiltrationStep(*key) for key in keys]
    position = {vertices: p for p, (_, _, vertices) in enumerate(keys)}
    entered = {cell: p for p, cell in enumerate(zip(filtration.dims.tolist(),
                                                    filtration.cells.tolist()))}
    for p, (_, dim, vertices) in enumerate(keys):
        if dim:
            # Facet j omits the vertex at position dim - j, with sign (-1)^(dim - j).
            facets = itertools.combinations(vertices, dim)
            expected = {position[f]: (-1) ** (dim - j) for j, f in enumerate(facets)}
            column = filtration.boundaries[dim - 1].column(int(filtration.cells[p]))
            assert {entered[dim - 1, row]: sign for row, sign in column} == expected


class TestPersistence:
    def test_single_point(self):
        diagram = cx.persistence(cx.vr_filtration(cx.PointCloud([[0, 0]]), 1.0, 2))
        assert len(diagram.bars) == 1
        bar = diagram.bars[0]
        assert (bar.dim, bar.birth) == (0, 0.0) and bar.infinite

    def test_two_points(self):
        cloud = cx.PointCloud([[0, 0], [1, 0]])
        diagram = cx.persistence(cx.vr_filtration(cloud, 2.0, 1))
        assert [(b.dim, b.birth, b.death) for b in diagram.bars] == [
            (0, 0.0, 1.0),
            (0, 0.0, math.inf),
        ]

    def test_unit_square_h1_bar(self):
        diagram = cx.persistence(cx.vr_filtration(SQUARE, 2.0, 2))
        h1 = diagram.in_dim(1)
        assert len(h1) == 1
        assert h1[0].birth == pytest.approx(1.0, abs=1e-12)
        assert h1[0].death == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_h0_bar_count_and_unique_infinite_bar(self):
        rng = random.Random(32)
        for _ in range(10):
            cloud = helpers.random_cloud(rng, n_min=2, n_max=7)
            max_eps = float(np.max(cloud.distances())) + 0.1
            diagram = cx.persistence(
                cx.vr_filtration(cloud, max_eps, 1), keep_zero_bars=True
            )
            h0 = diagram.in_dim(0)
            assert len(h0) == len(cloud)
            assert sum(bar.infinite for bar in h0) == 1

    def test_keep_zero_bars_flag(self):
        slim = cx.persistence(cx.vr_filtration(SQUARE, 2.0, 2))
        full = cx.persistence(cx.vr_filtration(SQUARE, 2.0, 2), keep_zero_bars=True)
        assert len(full.bars) > len(slim.bars)
        assert all(bar.death > bar.birth for bar in slim.bars)
        # 14 simplices pair into 6 finite bars plus 2 infinite ones.
        assert len(full.bars) == 8
        zero_bars = [bar for bar in full.bars if bar.death == bar.birth]
        assert len(zero_bars) == 2 and all(bar.dim == 1 for bar in zero_bars)

    def test_invariant_under_point_permutation(self):
        rng = random.Random(33)
        points = [[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(7)]
        base = cx.persistence(cx.vr_filtration(cx.PointCloud(points), 3.0, 2))
        for _ in range(3):
            shuffled = points[:]
            rng.shuffle(shuffled)
            other = cx.persistence(cx.vr_filtration(cx.PointCloud(shuffled), 3.0, 2))
            key = lambda b: (b.dim, b.birth, b.death)
            assert sorted(base.bars, key=key) == sorted(other.bars, key=key)

    def test_alive_counts_match_betti_numbers(self):
        rng = random.Random(34)
        cloud = helpers.random_cloud(rng, n_min=5, n_max=8)
        distances = cloud.distances()
        max_eps = float(np.max(distances)) + 0.1
        diagram = cx.persistence(cx.vr_filtration(cloud, max_eps, 2))
        breakpoints = sorted({0.0, *np.unique(distances).tolist()})
        for eps in breakpoints:
            rips = cx.vietoris_rips(cloud, eps, 2)
            betti = cx.betti_numbers(rips).betti
            for k in range(3):
                expected = betti[k] if k <= rips.dim else 0
                assert diagram.alive_at(eps, k) == expected


@settings(max_examples=300)
@given(
    cloud=helpers.clouds(),
    eps=helpers.scales(),
    max_dim=st.integers(0, 3),
    keep_zero_bars=st.booleans(),
)
def test_bars_match_column_reduction_oracle(cloud, eps, max_dim, keep_zero_bars):
    filtration = cx.vr_filtration(cloud, eps, max_dim)
    expected = helpers.persistence_oracle(filtration, keep_zero_bars)
    assert cx.persistence(filtration, keep_zero_bars) == expected


@settings(max_examples=200)
@given(cloud=helpers.clouds(), eps=helpers.scales(), max_dim=st.integers(0, 3), data=st.data())
def test_bars_match_oracle_when_vertices_are_born_apart(cloud, eps, max_dim, data):
    # A simplex is born at the later of its diameter and its latest vertex,
    # so the elder rule decides which vertex's bar ends at each merge.
    value = data.draw(st.lists(st.integers(0, 3), min_size=len(cloud), max_size=len(cloud)))
    keys = sorted(
        (max(diameter, *(value[v] for v in vertices)), len(vertices) - 1, vertices)
        for vertices, diameter in helpers.rips_listed(rips_simplices(cloud, eps, max_dim))
    )
    filtration = Filtration.from_steps(tuple(FiltrationStep(*key) for key in keys))
    for keep_zero_bars in (False, True):
        expected = helpers.persistence_oracle(filtration, keep_zero_bars)
        assert cx.persistence(filtration, keep_zero_bars) == expected


def _lower_star_complex(seed: int, kind: int) -> cx.CellComplex:
    rng = random.Random(seed)
    if kind == 0:
        return cx.cubical([rng.randint(1, 4) for _ in range(rng.randint(1, 3))])
    return (helpers.random_two_complex if kind == 1 else helpers.random_builder_complex)(rng)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 2), data=st.data())
def test_lower_star_filtrations_of_any_complex_match_oracle(seed, kind, data):
    # Cubical grids, 2-complexes whose cells may not be regular, and builder outputs.
    cc = _lower_star_complex(seed, kind)
    n = cc.n_cells(0)
    values = data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    filtration = helpers.lower_star_filtration(cc, values)
    for keep_zero_bars in (False, True):
        expected = helpers.persistence_oracle(filtration, keep_zero_bars)
        assert cx.persistence(filtration, keep_zero_bars) == expected
    if kind == 0:  # torsion-free, so Z/2 counts the rational Betti numbers
        diagram = cx.persistence(filtration)
        alive = [diagram.alive_at(max(values), k) for k in range(cc.dim + 1)]
        assert tuple(alive) == cx.betti_numbers(cc).betti


def test_rp2_torsion_reads_as_a_class_over_z2():
    rp2 = helpers.rp2()
    filtration = Filtration(rp2.boundaries, np.zeros(sum(map(len, rp2.cells))))
    diagram = cx.persistence(filtration)
    assert [diagram.alive_at(0.0, k) for k in range(3)] == [1, 1, 1]
    assert cx.betti_numbers(rp2).betti == (1, 0, 0)


class TestFiltrationOfBoundaries:
    @pytest.mark.parametrize("entries", [
        [(0, 0, 1)], [], [(0, 0, -1), (1, 0, 1), (2, 0, 1)],
    ], ids=["one", "none", "three"])
    def test_edge_without_two_endpoints_is_one_line_error(self, entries):
        b1 = cx.BoundaryMatrix(3, 2, [(0, 0, -1), (1, 0, 1), *((i, 1, s) for i, _, s in entries)])
        with pytest.raises(ValueError, match=r"^edge 1 has \d entries in B_1; an edge needs 2$"):
            Filtration((b1,), np.zeros(5))

    def test_cell_born_before_a_face_is_rejected(self):
        b1 = cx.BoundaryMatrix(2, 1, [(0, 0, -1), (1, 0, 1)])
        with pytest.raises(ValueError, match="1-cell 0 is born before its face 1"):
            Filtration((b1,), [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="cell 2 has a NaN birth"):
            Filtration((b1,), [0.0, 2.0, math.nan])

    def test_order_is_birth_dim_cell_index(self):
        square = cx.cubical([2, 2])
        births = [0.0] * 4 + [1.0, 0.0, 1.0, 0.0] + [1.0]
        filtration = Filtration(square.boundaries, births)
        assert filtration.dims.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2]
        assert filtration.cells.tolist() == [0, 1, 2, 3, 1, 3, 0, 2, 0]
        assert filtration.births.tolist() == sorted(births)
        assert filtration.steps[5] == FiltrationStep(0.0, 1, tuple(
            sorted(i for i, _ in square.boundary(1).column(3))))
