"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible under
``pytest -s`` or in captured output).  Expected values come from
independent oracles: exact rational rank for Betti numbers, exact
integer matrix products for chain-complex identities, and golden
matrices checked entrywise.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

import cellcomplex as cx
from cellcomplex import hodge

import helpers

MODULE_START = time.perf_counter()


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def test_criterion_01_toy_boundary_matrices_golden():
    with criterion(1, "tuple construction reproduces the toy boundary matrices"):
        start = time.perf_counter()
        toy = helpers.toy()
        assert np.array_equal(toy.boundary(1).to_dense(), helpers.TOY_B1)
        assert np.array_equal(toy.boundary(2).to_dense(), helpers.TOY_B2)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_chain_complex_identity():
    with criterion(2, "B1 @ B2 = 0 exactly, toy plus 200 randomized builder outputs"):
        toy = helpers.toy()
        product = helpers.TOY_B1 @ helpers.TOY_B2
        assert not product.any()
        assert helpers.exactness_holds(toy)
        rng = random.Random(20250809)
        for _ in range(200):
            cc = helpers.random_builder_complex(rng)
            assert helpers.exactness_holds(cc)


def test_criterion_03_homology_worked_example():
    with criterion(3, "worked homologous-cycles example with unit witness"):
        cc = helpers.toy_minus_triangle()
        c = cx.chain_on(cc, 1, {"0-3": 1, "3-4": 1, "0-4": -1})
        c_prime = cx.chain_on(cc, 1, {"0-1": 1, "1-2": 1, "2-3": 1, "3-4": 1, "0-4": -1})
        assert not cx.apply_boundary(cc, c).values.any()
        assert not cx.apply_boundary(cc, c_prime).values.any()
        same, witness = cx.homologous(cc, c, c_prime)
        assert same
        assert len(witness.values) == 1
        assert abs(witness.values[0] - 1.0) <= 1e-8


def test_criterion_04_betti_numbers_with_rank_oracle():
    with criterion(4, "Betti numbers match the exact rational rank oracle"):
        cases = [
            (helpers.toy(), (1, 0, 0)),
            (helpers.toy_minus_triangle(), (1, 1, 0)),
            (cx.cubical([4, 4]), (1, 0, 0)),
        ]
        for cc, expected in cases:
            assert helpers.betti_oracle(cc) == expected
            assert cx.betti_numbers(cc).betti == expected
            assert cx.betti_numbers(cc, "integer").betti == expected


def test_criterion_05_product_golden_and_euler():
    with criterion(5, "product golden matrix and Euler multiplicativity"):
        k2 = helpers.k2_paper()
        square = cx.product(k2, k2)
        assert [len(layer) for layer in square.cells] == [4, 4, 1]
        expected_b1 = np.array(
            [[-1, 0, 1, 0], [1, 0, 0, 1], [0, -1, -1, 0], [0, 1, 0, -1]]
        )
        assert np.array_equal(square.boundary(1).to_dense(), expected_b1)
        rng = random.Random(5)
        for _ in range(50):
            a = helpers.random_factor(rng)
            b = helpers.random_factor(rng)
            assert cx.euler_characteristic(cx.product(a, b)) == (
                cx.euler_characteristic(a) * cx.euler_characteristic(b)
            )


def test_criterion_06_hodge_spectra_and_decomposition():
    with criterion(6, "spectrum correspondences and Hodge decomposition of 1-chains"):
        toy = helpers.toy()
        for k in range(2):
            up = np.linalg.eigvalsh(cx.hodge_laplacian(toy, k, "up"))
            down = np.linalg.eigvalsh(cx.hodge_laplacian(toy, k + 1, "down"))
            assert np.allclose(
                np.sort(up[up > 1e-9]), np.sort(down[down > 1e-9]), atol=1e-8
            )
        rng = np.random.default_rng(6)
        for cc, dims in ((toy, (4, 2, 0)), (helpers.toy_minus_triangle(), (4, 1, 1))):
            basis = cx.spectral_basis(cc, 1)
            counts = (basis.count("gradient"), basis.count("curl"), basis.count("harmonic"))
            assert counts == dims
            for _ in range(50):
                x = cx.ChainVector(1, rng.normal(size=6))
                split = cx.hodge_decompose(cc, 1, x)
                parts = (split.gradient.values, split.curl.values, split.harmonic.values)
                assert np.max(np.abs(sum(parts) - x.values)) <= 1e-10
                for a, b in itertools.combinations(parts, 2):
                    assert abs(a @ b) <= 1e-8


def test_criterion_07_weighted_reductions():
    with criterion(7, "weight reductions, similarity relation, random-walk weights"):
        toy = helpers.toy()
        ones = cx.unit_weights(toy)
        for k in range(3):
            for part in ("up", "down", "full"):
                gap = cx.hodge_laplacian(toy, k, part, ones) - cx.hodge_laplacian(toy, k, part)
                assert np.max(np.abs(gap)) <= 1e-12
        rng = random.Random(7)
        for _ in range(20):
            # W0 = I: the similarity relation needs unscaled vertices.
            w1 = np.array([math.exp(rng.uniform(-1.5, 1.5)) for _ in range(6)])
            w2 = np.array([math.exp(rng.uniform(-1.5, 1.5)) for _ in range(2)])
            weights = cx.WeightSet((np.ones(5), w1, w2))
            sym = cx.hodge_laplacian(toy, 1, "full", weights)
            prime = cx.nonsymmetric_hodge(toy, weights)
            half = np.diag(np.sqrt(w1))
            assert np.max(np.abs(sym - half @ prime @ half)) <= 1e-10
        rw = cx.normalized_rw_weights(toy)
        assert np.array_equal(rw.vector(2), [3, 4])
        assert np.array_equal(rw.vector(1), [1, 2, 1, 1, 1, 1])
        assert np.array_equal(rw.vector(0), [8, 4, 4, 8, 4])


def acceptance_complexes():
    square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    k4 = cx.from_tuples(range(4), list(itertools.combinations(range(4), 2)))
    return [
        cx.from_tuples(["v"]),
        helpers.toy(),
        helpers.toy_minus_triangle(),
        cx.cubical([4, 4]),
        cx.cubical([2, 2, 2]),
        cx.product(helpers.k2_paper(), helpers.k2_paper()),
        cx.window_lifting(square, [[0, 0], [1, 0], [1, 1], [0, 1]]),
        cx.spanning_tree_lifting(helpers.toy_graph()),
        cx.chordless_cycle_lifting(k4),
        cx.vietoris_rips(cx.PointCloud([[0, 0], [1, 0], [0.5, 0.8]]), 1.2, 2),
    ]


def test_criterion_08_dirac_squares_to_laplacian_blocks():
    with criterion(8, "Dirac operator squares to the Laplacian block diagonal"):
        rng = random.Random(8)
        for cc in acceptance_complexes():
            offsets = hodge.chain_offsets(cc)
            dirac = cx.dirac_operator(cc)
            square = dirac @ dirac
            expected = np.zeros_like(square)
            for k in range(cc.dim + 1):
                block = cx.hodge_laplacian(cc, k).astype(np.int64)
                expected[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = block
            assert np.array_equal(square, expected)
            weights = helpers.random_weights(rng, cc)
            weighted = cx.dirac_operator(cc, weights)
            square_w = weighted @ weighted
            expected_w = np.zeros_like(square_w)
            for k in range(cc.dim + 1):
                block = cx.hodge_laplacian(cc, k, "full", weights)
                expected_w[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = block
            assert np.max(np.abs(square_w - expected_w)) <= 1e-10


def test_criterion_09_spectral_filters():
    with criterion(9, "low-pass filter matches (I - L)x; identity filter exact"):
        rng = np.random.default_rng(9)
        for cc in (helpers.toy(), helpers.toy_minus_triangle()):
            for k in range(cc.dim + 1):
                x = cx.ChainVector(k, rng.normal(size=cc.n_cells(k)))
                lowpass = cx.spectral_filter(cc, k, x, "lowpass")
                direct = x.values - cx.hodge_laplacian(cc, k) @ x.values
                assert np.max(np.abs(lowpass.values - direct)) <= 1e-8
                identity = cx.spectral_filter(cc, k, x, "identity")
                assert np.max(np.abs(identity.values - x.values)) <= 1e-10


def test_criterion_10_validation_conditions():
    with criterion(10, "validators accept the toy and reject each constructed violation"):
        toy = helpers.toy()
        assert cx.validate_dim1(toy).valid
        assert cx.validate_dim2(toy).valid
        assert cx.validate_nd(toy).valid

        bad_b1 = cx.from_boundary_matrices(
            [["a", "b"], ["e"]], [cx.BoundaryMatrix(2, 1, ((0, 0, 1), (1, 0, 1)))]
        )
        report = cx.validate_dim1(bad_b1)
        assert not report.valid
        assert report.failures[0].condition == "B1-columns"

        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = cx.from_tuples(range(6), edges)
        column = ((0, 0, 1), (1, 0, 1), (2, 0, -1), (3, 0, 1), (4, 0, 1), (5, 0, -1))
        disjoint = cx.from_boundary_matrices(
            [list(graph.cells[0]), list(graph.cells[1]), ["f"]],
            [graph.boundary(1), cx.BoundaryMatrix(6, 1, column)],
        )
        report = cx.validate_dim2(disjoint)
        assert not report.valid
        assert report.failures[0].condition == "B2-cycle"

        toy_graph = helpers.toy_graph()
        zero_col = cx.from_boundary_matrices(
            [list(toy_graph.cells[0]), list(toy_graph.cells[1]), ["f"]],
            [toy_graph.boundary(1), cx.BoundaryMatrix(6, 1, ())],
        )
        report = cx.validate_nd(zero_col)
        assert not report.valid
        assert "cell-acyclic" in {f.condition for f in report.failures}

        rng = random.Random(10)
        for _ in range(500):
            cc = helpers.random_two_complex(rng)
            elementary = cx.validate_dim1(cc).valid and cx.validate_dim2(cc).valid
            assert cx.validate_nd(cc).valid == elementary


def test_criterion_11_persistence_against_betti_oracle():
    with criterion(11, "persistence bars agree with Betti numbers at every breakpoint"):
        square = cx.PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])
        diagram = cx.persistence(cx.vr_filtration(square, 2.0, 2))
        h1 = diagram.in_dim(1)
        assert len(h1) == 1
        assert abs(h1[0].birth - 1.0) <= 1e-9
        assert abs(h1[0].death - math.sqrt(2.0)) <= 1e-9

        rng = random.Random(11)
        for _ in range(30):
            cloud = helpers.random_cloud(rng, n_min=2, n_max=10)
            distances = cloud.distances()
            max_eps = float(np.max(distances)) + 0.25
            diagram = cx.persistence(cx.vr_filtration(cloud, max_eps, 2))
            breakpoints = sorted({0.0, *np.unique(distances).tolist()})
            for eps in breakpoints:
                rips = cx.vietoris_rips(cloud, eps, 2)
                betti = cx.betti_numbers(rips).betti
                for k in range(3):
                    expected = betti[k] if k <= rips.dim else 0
                    assert diagram.alive_at(eps, k) == expected
        assert time.perf_counter() - MODULE_START < 120.0
