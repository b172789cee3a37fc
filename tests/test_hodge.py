"""Hodge Laplacians, weights, Dirac operator, spectra, filters."""

import contextlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import errors, hodge

import helpers


def dense(cc, k):
    return cc.boundary(k).to_dense().astype(float)


def zoo_complex(rng, two_complex):
    if two_complex:
        return helpers.random_two_complex(rng)
    return helpers.random_builder_complex(rng)


# Weights from 1e-4 to 1e4.
WIDE = 4 * math.log(10)


class TestHodgeLaplacian:
    def test_l0_is_graph_laplacian(self, toy):
        lap = cx.hodge_laplacian(toy, 0)
        adjacency = np.zeros((5, 5))
        for tail, head in helpers.TOY_EDGES:
            adjacency[tail, head] = adjacency[head, tail] = 1
        degree = np.diag(adjacency.sum(axis=1))
        assert np.array_equal(lap, degree - adjacency)

    def test_unit_weights_reduce_to_unweighted(self, toy):
        ones = cx.unit_weights(toy)
        for k in range(3):
            for part in ("up", "down", "full"):
                unweighted = cx.hodge_laplacian(toy, k, part)
                weighted = cx.hodge_laplacian(toy, k, part, ones)
                assert np.max(np.abs(weighted - unweighted)) <= 1e-12

    def test_weighted_graph_laplacian(self, toy):
        rng = random.Random(5)
        w1 = np.array([rng.uniform(0.2, 3.0) for _ in range(6)])
        weights = cx.WeightSet((np.ones(5), w1, np.ones(2)))
        lap = cx.hodge_laplacian(toy, 0, "full", weights)
        weighted_adj = np.zeros((5, 5))
        for (tail, head), w in zip(helpers.TOY_EDGES, w1):
            weighted_adj[tail, head] = weighted_adj[head, tail] = w
        expected = np.diag(weighted_adj.sum(axis=1)) - weighted_adj
        assert np.max(np.abs(lap - expected)) <= 1e-12

    def test_parts_sum_to_full(self, toy):
        for k in range(3):
            up = cx.hodge_laplacian(toy, k, "up")
            down = cx.hodge_laplacian(toy, k, "down")
            full = cx.hodge_laplacian(toy, k, "full")
            assert np.array_equal(up + down, full)
        assert not cx.hodge_laplacian(toy, 0, "down").any()
        assert not cx.hodge_laplacian(toy, 2, "up").any()

    def test_bad_inputs(self, toy):
        with pytest.raises(errors.BadDimension):
            cx.hodge_laplacian(toy, 3)
        with pytest.raises(ValueError):
            cx.hodge_laplacian(toy, 1, "sideways")
        with pytest.raises(errors.NonPositiveWeight):
            cx.WeightSet((np.zeros(5), np.ones(6), np.ones(2)))
        with pytest.raises(errors.ShapeMismatch):
            cx.hodge_laplacian(toy, 1, "full", cx.WeightSet((np.ones(4), np.ones(6), np.ones(2))))

    def test_size_limit(self):
        path = cx.cubical([hodge.MAX_DENSE_CELLS + 2])
        with pytest.raises(errors.SizeLimitExceeded):
            cx.hodge_laplacian(path, 0)


class TestWeightedBoundaries:
    def test_weighted_exactness(self, toy):
        rng = random.Random(6)
        for _ in range(5):
            weights = helpers.random_weights(rng, toy)
            b1w = hodge.dense_boundary(toy, 1, weights)
            b2w = hodge.dense_boundary(toy, 2, weights)
            assert np.max(np.abs(b1w @ b2w)) <= 1e-10


class TestNonsymmetricHodge:
    def test_unit_weights_give_unweighted_l1(self, toy):
        prime = cx.nonsymmetric_hodge(toy, cx.unit_weights(toy))
        assert np.max(np.abs(prime - cx.hodge_laplacian(toy, 1))) <= 1e-12

    def test_similarity_relation_with_unit_vertex_weights(self, toy):
        # L1^W = W1^(1/2) L1' W1^(1/2) holds whenever W0 = I; W2 cancels.
        rng = random.Random(7)
        for _ in range(10):
            w1 = np.array([np.exp(rng.uniform(-1, 1)) for _ in range(6)])
            w2 = np.array([np.exp(rng.uniform(-1, 1)) for _ in range(2)])
            weights = cx.WeightSet((np.ones(5), w1, w2))
            sym = cx.hodge_laplacian(toy, 1, "full", weights)
            prime = cx.nonsymmetric_hodge(toy, weights)
            half = np.diag(np.sqrt(w1))
            assert np.max(np.abs(sym - half @ prime @ half)) <= 1e-10

    def test_harmonic_eigenvector_transport(self, toy_minus):
        rng = random.Random(8)
        w1 = np.array([np.exp(rng.uniform(-1, 1)) for _ in range(6)])
        weights = cx.WeightSet((np.ones(5), w1, np.ones(1)))
        sym = cx.hodge_laplacian(toy_minus, 1, "full", weights)
        evals, vecs = np.linalg.eigh(sym)
        harmonic = vecs[:, np.abs(evals) <= 1e-9]
        assert harmonic.shape[1] == 1
        prime = cx.nonsymmetric_hodge(toy_minus, weights)
        transported = np.sqrt(w1) * harmonic[:, 0]
        assert np.max(np.abs(prime @ transported)) <= 1e-8

    def test_needs_two_dimensions(self, toy_graph):
        with pytest.raises(errors.BadDimension):
            cx.nonsymmetric_hodge(toy_graph, cx.WeightSet((np.ones(5), np.ones(6))))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_formula_and_is_symmetric(self, seed):
        rng = random.Random(seed)
        cc = helpers.random_two_complex(rng)
        weights = helpers.random_weights(rng, cc, WIDE)
        w0, w1, w2 = weights.vectors
        b1, b2 = dense(cc, 1), dense(cc, 2)
        up = np.diag(1 / w1) @ b2 @ np.diag(w2) @ b2.T @ np.diag(1 / w1)
        want = b1.T @ np.diag(w0) @ b1 + up
        got = cx.nonsymmetric_hodge(cc, weights)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale
        assert np.max(np.abs(got - got.T)) <= 1e-14 * scale


class TestDenseBoundaryScatter:
    """dense_boundary against the dense weighting it replaced, bit for bit."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_matches_dense_weighting(self, seed, two_complex):
        rng = random.Random(seed)
        cc = zoo_complex(rng, two_complex)
        for weights in (None, helpers.random_weights(rng, cc, WIDE)):
            for k in range(cc.dim + 2):
                got = hodge.dense_boundary(cc, k, weights)
                want = helpers.dense_boundary_oracle(cc, k, weights)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_mismatched_weights_rejected_at_the_empty_maps(self, toy):
        short = cx.WeightSet((np.ones(4), np.ones(6), np.ones(2)))
        for k in (0, 3):
            with pytest.raises(errors.ShapeMismatch):
                hodge.dense_boundary(toy, k, short)


class TestNormalizedRwWeights:
    def test_toy_golden_values(self, toy):
        weights = cx.normalized_rw_weights(toy)
        assert np.array_equal(weights.vector(2), [3, 4])
        assert np.array_equal(weights.vector(1), [1, 2, 1, 1, 1, 1])
        assert np.array_equal(weights.vector(0), [8, 4, 4, 8, 4])

    def test_floor_keeps_unbordered_edges_positive(self, toy_minus):
        weights = cx.normalized_rw_weights(toy_minus)
        assert np.array_equal(weights.vector(1), [1, 1, 1, 1, 1, 1])

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_matches_dense_formula(self, seed, two_complex):
        cc = zoo_complex(random.Random(seed), two_complex)
        if cc.dim != 2:
            return
        expected = helpers.rw_weights_oracle(cc)
        # an isolated vertex, or a 2-cell with an empty boundary, weighs 0
        if not all(vector.all() for vector in expected):
            with pytest.raises(errors.NonPositiveWeight):
                cx.normalized_rw_weights(cc)
            return
        weights = cx.normalized_rw_weights(cc)
        for got, want in zip(weights.vectors, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_zero_weight_names_the_cell(self, toy_graph):
        isolated = cx.from_tuples(range(4), [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)])
        with pytest.raises(errors.NonPositiveWeight) as info:
            cx.normalized_rw_weights(isolated)
        assert str(info.value) == "0-cell '3' is isolated: its random-walk weight is 0"
        empty = cx.BoundaryMatrix(toy_graph.n_cells(1), 1, ())
        hollow = cx.from_boundary_matrices(
            [*toy_graph.cells, ["f"]], [toy_graph.boundary(1), empty]
        )
        with pytest.raises(errors.NonPositiveWeight) as info:
            cx.normalized_rw_weights(hollow)
        assert str(info.value) == "2-cell 'f' has an empty boundary: its random-walk weight is 0"

    def test_past_the_dense_limit(self):
        grid = cx.cubical([60, 60])
        assert grid.n_cells(1) > hodge.MAX_DENSE_CELLS
        w0, w1, w2 = cx.normalized_rw_weights(grid).vectors
        assert np.array_equal(w2, np.full(grid.n_cells(2), 4.0))
        # 4 * 59 edges on the outline border one square, the rest two
        assert sorted(Counter(w1.tolist()).items()) == [(1.0, 236), (2.0, grid.n_cells(1) - 236)]
        tails = np.array([i for i, _, s in grid.boundary(1).entries if s == -1])
        heads = np.array([i for i, _, s in grid.boundary(1).entries if s == 1])
        expected = np.zeros(grid.n_cells(0))
        np.add.at(expected, tails, 2 * w1)
        np.add.at(expected, heads, 2 * w1)
        assert np.array_equal(w0, expected)


class TestDirac:
    def test_unweighted_square_is_block_diagonal_exactly(self, toy):
        dirac = cx.dirac_operator(toy)
        assert dirac.dtype == np.int64
        offsets = hodge.chain_offsets(toy)
        expected = np.zeros_like(dirac)
        for k in range(3):
            block = cx.hodge_laplacian(toy, k).astype(np.int64)
            expected[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = block
        assert np.array_equal(dirac @ dirac, expected)

    def test_zero_dimensional_complex(self):
        assert not cx.dirac_operator(cx.from_tuples(["v"])).any()

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_blocks_are_the_dense_weighted_boundaries(self, seed, two_complex):
        # Bit for bit, the scatter of W_{k-1}^{-1/2} B_k W_k^{1/2} into block (k-1, k).
        rng = random.Random(seed)
        cc = zoo_complex(rng, two_complex)
        offsets = hodge.chain_offsets(cc)
        for weights in (None, helpers.random_weights(rng, cc, WIDE)):
            want = np.zeros((offsets[-1],) * 2, dtype=np.int64 if weights is None else float)
            for k in range(1, cc.dim + 1):
                block = helpers.dense_boundary_oracle(cc, k, weights)
                want[offsets[k - 1] : offsets[k], offsets[k] : offsets[k + 1]] = block
                want[offsets[k] : offsets[k + 1], offsets[k - 1] : offsets[k]] = block.T
            got = cx.dirac_operator(cc, weights)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_weighted_square(self, toy):
        weights = helpers.random_weights(random.Random(9), toy)
        dirac = cx.dirac_operator(toy, weights)
        offsets = hodge.chain_offsets(toy)
        square = dirac @ dirac
        for k in range(3):
            block = square[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]]
            assert np.max(np.abs(block - cx.hodge_laplacian(toy, k, "full", weights))) <= 1e-10
        square[np.abs(square) < 1e-10] = 0
        off_blocks = square.copy()
        for k in range(3):
            off_blocks[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = 0
        assert not off_blocks.any()


class TestHodgeDecompose:
    def test_pure_gradient_input(self, toy):
        rng = np.random.default_rng(10)
        x = cx.ChainVector(1, dense(toy, 1).T @ rng.normal(size=5))
        split = cx.hodge_decompose(toy, 1, x)
        assert np.max(np.abs(split.curl.values)) <= 1e-8
        assert np.max(np.abs(split.harmonic.values)) <= 1e-8

    def test_zero_chain(self, toy):
        split = cx.hodge_decompose(toy, 1, cx.ChainVector(1, np.zeros(6)))
        for part in (split.gradient, split.curl, split.harmonic):
            assert not part.values.any()

    def test_worked_cycle_has_no_gradient_part(self, toy_minus):
        x = cx.chain_on(toy_minus, 1, {"0-3": 1, "3-4": 1, "0-4": -1})
        split = cx.hodge_decompose(toy_minus, 1, x)
        assert np.max(np.abs(split.gradient.values)) <= 1e-8
        assert np.linalg.norm(split.curl.values) > 0.1
        assert np.linalg.norm(split.harmonic.values) > 0.1

    def test_completeness_and_orthogonality(self, toy):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = cx.ChainVector(1, rng.normal(size=6))
            split = cx.hodge_decompose(toy, 1, x)
            total = split.gradient.values + split.curl.values + split.harmonic.values
            assert np.max(np.abs(total - x.values)) <= 1e-10
            assert abs(split.gradient.values @ split.curl.values) <= 1e-8
            assert abs(split.gradient.values @ split.harmonic.values) <= 1e-8
            assert abs(split.curl.values @ split.harmonic.values) <= 1e-8


class TestSpectralBasis:
    def test_eigenpairs_satisfy_laplacian(self, toy):
        for k in range(3):
            basis = cx.spectral_basis(toy, k)
            lap = cx.hodge_laplacian(toy, k)
            assert len(basis.tags) == toy.n_cells(k)
            for lam, vec in zip(basis.eigenvalues, basis.vectors.T):
                assert np.max(np.abs(lap @ vec - lam * vec)) <= 1e-8
            gram = basis.vectors.T @ basis.vectors
            assert np.max(np.abs(gram - np.eye(toy.n_cells(k)))) <= 1e-8

    def test_eigenvalues_ascend_and_are_nonnegative(self, toy):
        basis = cx.spectral_basis(toy, 1)
        assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
        assert np.all(basis.eigenvalues >= 0)

    def test_nonzero_spectrum_correspondence(self, toy):
        for k in range(2):
            up = np.linalg.eigvalsh(cx.hodge_laplacian(toy, k, "up"))
            down = np.linalg.eigvalsh(cx.hodge_laplacian(toy, k + 1, "down"))
            up_nonzero = np.sort(up[up > 1e-9])
            down_nonzero = np.sort(down[down > 1e-9])
            assert np.allclose(up_nonzero, down_nonzero, atol=1e-8)

    def test_transported_eigenvectors(self, toy):
        b2 = dense(toy, 2)
        up = cx.hodge_laplacian(toy, 1, "up")
        down_next = cx.hodge_laplacian(toy, 2, "down")
        evals, vecs = np.linalg.eigh(up)
        for lam, vec in zip(evals, vecs.T):
            if lam > 1e-9:
                moved = b2.T @ vec
                assert np.max(np.abs(down_next @ moved - lam * moved)) <= 1e-8

    def test_tag_counts(self, toy, toy_minus):
        basis = cx.spectral_basis(toy, 1)
        counts = (basis.count("gradient"), basis.count("curl"), basis.count("harmonic"))
        assert counts == (4, 2, 0)
        basis = cx.spectral_basis(toy_minus, 1)
        counts = (basis.count("gradient"), basis.count("curl"), basis.count("harmonic"))
        assert counts == (4, 1, 1)

    def test_gradient_count_is_vertex_rank(self, toy):
        basis = cx.spectral_basis(toy, 1)
        assert basis.count("gradient") == 5 - 1

    def test_classifier_agrees_with_construction(self, toy_minus):
        for k in range(3):
            basis = cx.spectral_basis(toy_minus, k)
            for tag, vec in zip(basis.tags, basis.vectors.T):
                classified, residual = helpers.classify_eigenvector(toy_minus, k, vec)
                assert classified == tag
                assert residual <= 1e-7

    def test_deterministic_output(self, toy):
        a = cx.spectral_basis(toy, 1)
        b = cx.spectral_basis(toy, 1)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.tags == b.tags

    def test_sign_convention(self, toy):
        basis = cx.spectral_basis(toy, 1)
        for vec in basis.vectors.T:
            assert vec[int(np.argmax(np.abs(vec)))] > 0


class TestAgainstOracles:
    """The SVD split against exact ranks, eigvalsh, and the least-squares oracles."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans(), weighted=st.booleans())
    def test_split_matches_oracles(self, seed, two_complex, weighted):
        rng = random.Random(seed)
        if two_complex:
            cc = helpers.random_two_complex(rng)
        else:
            cc = helpers.random_builder_complex(rng)
        weights = helpers.random_weights(rng, cc) if weighted else None
        for k in range(cc.dim + 1):
            n = cc.n_cells(k)
            down = helpers.rank_over_q(cc.boundary(k).to_dense()) if k >= 1 else 0
            up = helpers.rank_over_q(cc.boundary(k + 1).to_dense()) if k < cc.dim else 0
            basis = cx.spectral_basis(cc, k, weights)
            counts = tuple(basis.count(t) for t in ("gradient", "curl", "harmonic"))
            assert counts == (down, up, n - down - up)
            lap = cx.hodge_laplacian(cc, k, "full", weights)
            assert np.max(
                np.abs(basis.eigenvalues - np.linalg.eigvalsh(lap)), initial=0.0
            ) <= 1e-8
            for tag, vec in zip(basis.tags, basis.vectors.T):
                assert helpers.classify_eigenvector(cc, k, vec, weights)[0] == tag
            x = cx.ChainVector(k, np.array([rng.uniform(-2, 2) for _ in range(n)]))
            split = cx.hodge_decompose(cc, k, x, weights)
            expected = helpers.decompose_oracle(cc, k, x.values, weights)
            for part, want in zip((split.gradient, split.curl, split.harmonic), expected):
                assert np.max(np.abs(part.values - want), initial=0.0) <= 1e-8
            for descriptor in ("identity", "lowpass", "heat:t=0.5", "poly:0.5,-0.25,0.125"):
                out = cx.spectral_filter(cc, k, x, descriptor, weights)
                want = helpers.filter_oracle(cc, k, x.values, descriptor, weights)
                assert np.max(np.abs(out.values - want), initial=0.0) <= 1e-8


def _cycle(n, filled):
    return cx.from_tuples(range(n), [(i, (i + 1) % n) for i in range(n)],
                          [tuple(range(n))] if filled else [])


def _thrice_filled_triangle():
    """A triangle with three 2-cells on its one cycle: B_2 is square."""
    b1 = cx.BoundaryMatrix(3, 3, ((0, 0, -1), (1, 0, 1), (1, 1, -1), (2, 1, 1),
                                  (0, 2, -1), (2, 2, 1)))
    column = ((0, 1), (1, 1), (2, -1))
    b2 = cx.BoundaryMatrix(3, 3, tuple((i, j, s) for j in range(3) for i, s in column))
    return cx.from_boundary_matrices([["a", "b", "c"], ["ab", "bc", "ac"],
                                      ["f", "g", "h"]], [b1, b2])


# (complex, k): B_k^T and B_{k+1} at k are wide, tall or square.
SPLIT_CASES = {
    "toy-0": (helpers.toy, 0),
    "toy-1": (helpers.toy, 1),
    "toy-2": (helpers.toy, 2),
    "cycle-0": (lambda: _cycle(5, False), 0),
    "filled-cycle-1": (lambda: _cycle(5, True), 1),
    "grid-1": (lambda: cx.cubical([3, 4]), 1),
    "path-1": (lambda: cx.cubical([5]), 1),
    "triangles-1": (_thrice_filled_triangle, 1),
    "triangles-2": (_thrice_filled_triangle, 2),
}


def _shape_class(matrix):
    rows, cols = matrix.shape
    return "square" if rows == cols else "tall" if rows > cols else "wide"


class TestTallSideSplit:
    """Decompose (pivot-basis solves) and heat (an SVD on the taller side)
    against the least-squares projection and eigh oracles, to 1e-12 of max|x|."""

    def test_cases_cover_every_shape(self):
        seen = set()
        for build, k in SPLIT_CASES.values():
            cc = build()
            down = hodge.dense_boundary(cc, k).T
            up = hodge.dense_boundary(cc, k + 1)
            for side, matrix in (("gradient", down), ("curl", up)):
                if matrix.size:
                    seen.add((side, _shape_class(matrix)))
        assert seen == {(side, shape) for side in ("gradient", "curl")
                        for shape in ("wide", "tall", "square")}

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_fixed_shapes(self, case, weighted):
        build, k = SPLIT_CASES[case]
        cc = build()
        rng = random.Random(case)
        weights = helpers.random_weights(rng, cc) if weighted else None
        self.check(cc, k, weights, rng)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans(), weighted=st.booleans())
    def test_zoo(self, seed, two_complex, weighted):
        rng = random.Random(seed)
        cc = zoo_complex(rng, two_complex)
        weights = helpers.random_weights(rng, cc) if weighted else None
        for k in range(cc.dim + 1):
            self.check(cc, k, weights, rng)

    @pytest.mark.parametrize("case", ["cycle-0", "filled-cycle-1", "triangles-1", "triangles-2"])
    def test_spectrum_of_a_square_boundary_reads_b_itself(self, case):
        """The values-only SVD keeps its bytes: square B as B, otherwise the taller side."""
        build, k = SPLIT_CASES[case]
        cc = build()
        weights = helpers.random_weights(random.Random(case), cc, WIDE)
        parts, square = [], False
        for j in (k, k + 1):
            b = helpers.dense_boundary_oracle(cc, j, weights)
            if b.size:
                square |= b.shape[0] == b.shape[1]
                rank = helpers.rank_over_q(helpers.to_dense_oracle(cc.boundary(j)))
                taller = b if b.shape[0] >= b.shape[1] else b.T
                parts.append(np.linalg.svd(taller, compute_uv=False)[:rank] ** 2)
        assert square
        harmonic = np.zeros(cc.n_cells(k) - sum(map(len, parts)))
        expected = np.sort(np.concatenate([*parts, harmonic]))
        assert np.array_equal(cx.laplacian_spectrum(cc, k, weights)[0], expected)

    @staticmethod
    def check(cc, k, weights, rng):
        x = np.array([rng.uniform(-2, 2) for _ in range(cc.n_cells(k))])
        tol = 1e-12 * np.max(np.abs(x))
        split = cx.hodge_decompose(cc, k, cx.ChainVector(k, x), weights)
        expected = helpers.decompose_oracle(cc, k, x, weights)
        for part, want in zip((split.gradient, split.curl, split.harmonic), expected):
            assert np.max(np.abs(part.values - want)) <= tol
        heat = cx.spectral_filter(cc, k, cx.ChainVector(k, x), "heat:t=0.5", weights)
        want = helpers.filter_oracle(cc, k, x, "heat:t=0.5", weights)
        assert np.max(np.abs(heat.values - want)) <= tol


class TestGroundedDecompose:
    """The split by solves on the Smith kernel's pivots, against the exact
    rational oracle, and its independence of W_{k-1} and W_{k+1}."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_matches_the_exact_oracle(self, seed, two_complex):
        # Weights 4^u, u in [-7, 7], spread about 10^+-4.
        rng = random.Random(seed)
        cc = zoo_complex(rng, two_complex)
        weights = helpers.power_of_four_weights(rng, cc, 7)
        for k in range(cc.dim + 1):
            x = np.array([rng.uniform(-2, 2) for _ in range(cc.n_cells(k))])
            tol = 1e-12 * np.max(np.abs(x), initial=0.0)
            split = cx.hodge_decompose(cc, k, cx.ChainVector(k, x), weights)
            expected = helpers.decompose_exact_oracle(cc, k, x, weights)
            for part, want in zip((split.gradient, split.curl, split.harmonic), expected):
                assert np.max(np.abs(part.values - want), initial=0.0) <= tol

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_only_w_k_enters(self, seed, two_complex):
        rng = random.Random(seed)
        cc = zoo_complex(rng, two_complex)
        weights = helpers.random_weights(rng, cc, WIDE)
        for k in range(cc.dim + 1):
            x = cx.ChainVector(k, np.array([rng.uniform(-2, 2) for _ in range(cc.n_cells(k))]))
            vectors = list(weights.vectors)
            for j in (k - 1, k + 1):
                if 0 <= j <= cc.dim:
                    vectors[j] = vectors[j] * 10.0 ** np.array(
                        [rng.uniform(-4, 4) for _ in range(cc.n_cells(j))])
            split = cx.hodge_decompose(cc, k, x, weights)
            moved = cx.hodge_decompose(cc, k, x, cx.WeightSet(tuple(vectors)))
            for part in ("gradient", "curl", "harmonic"):
                assert np.array_equal(getattr(split, part).values, getattr(moved, part).values)

    def test_a_wrong_length_weight_vector_is_rejected_in_every_dimension(self, toy):
        # Only W_k enters the split, yet every vector is checked.
        for k in range(3):
            x = cx.ChainVector(k, np.ones(toy.n_cells(k)))
            for j in range(3):
                vectors = [np.ones(toy.n_cells(i) + (i == j)) for i in range(3)]
                with pytest.raises(errors.ShapeMismatch):
                    cx.hodge_decompose(toy, k, x, cx.WeightSet(tuple(vectors)))


class TestValuesOnlySpectrum:
    """laplacian_spectrum against the eigenvalues and tags of spectral_basis."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans(), weighted=st.booleans())
    def test_matches_spectral_basis(self, seed, two_complex, weighted):
        rng = random.Random(seed)
        if two_complex:
            cc = helpers.random_two_complex(rng)
        else:
            cc = helpers.random_builder_complex(rng)
        weights = helpers.random_weights(rng, cc) if weighted else None
        for k in range(cc.dim + 1):
            eigenvalues, tags = cx.laplacian_spectrum(cc, k, weights)
            basis = cx.spectral_basis(cc, k, weights)
            assert Counter(tags) == Counter(basis.tags)
            assert np.all(np.diff(eigenvalues) >= 0)
            scale = float(np.max(basis.eigenvalues, initial=0.0))
            for tag in set(tags):
                mine = np.sort(eigenvalues[np.array(tags) == tag])
                full = np.sort(basis.eigenvalues[np.array(basis.tags) == tag])
                assert np.max(np.abs(mine - full)) <= 1e-10 * scale

    def test_bad_dimension(self, toy):
        for k in (-1, 3):
            with pytest.raises(errors.BadDimension):
                cx.laplacian_spectrum(toy, k)


class TestPastTheDenseLimit:
    """Polynomial filters and the quadratic form on a 60x60 grid, whose 3,600
    vertices exceed MAX_DENSE_CELLS, against L_0 from the edge list, and the
    heat filter in every dimension against the Taylor reference."""

    @pytest.fixture(scope="class")
    def grid(self):
        return cx.cubical([60, 60])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_polynomial_filters_and_energy(self, grid, weighted):
        assert grid.n_cells(0) > hodge.MAX_DENSE_CELLS
        weights = helpers.random_weights(random.Random(15), grid) if weighted else None
        w0, w1 = (weights.vector(0), weights.vector(1)) if weighted else (1.0, 1.0)
        tails = np.array([i for i, _, s in grid.boundary(1).entries if s == -1])
        heads = np.array([i for i, _, s in grid.boundary(1).entries if s == 1])

        def differences(v):  # W1^{1/2} B1^T W0^{-1/2} v
            y = v / np.sqrt(w0)
            return np.sqrt(w1) * (y[heads] - y[tails])

        def laplacian(v):  # W0^{-1/2} B1 W1 B1^T W0^{-1/2} v, edge by edge
            flow = np.sqrt(w1) * differences(v)
            out = np.zeros(len(v))
            np.add.at(out, heads, flow)
            np.add.at(out, tails, -flow)
            return out / np.sqrt(w0)

        x = np.random.default_rng(15).normal(size=grid.n_cells(0))
        chain = cx.ChainVector(0, x)
        lx = laplacian(x)
        expected = {
            "identity": x,
            "lowpass": x - lx,
            "poly:0.5,-0.25,0.125": 0.5 * x - 0.25 * lx + 0.125 * laplacian(lx),
        }
        for descriptor, want in expected.items():
            out = cx.spectral_filter(grid, 0, chain, descriptor, weights).values
            assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))
        energy = float(np.sum(differences(x) ** 2))
        assert abs(cx.quadratic_form(grid, 0, chain, weights) - energy) <= 1e-12 * energy

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_heat_matches_the_taylor_reference(self, grid, k):
        weights = helpers.random_weights(random.Random(k), grid, math.log(2))  # in [0.5, 2]
        x = np.random.default_rng(k).normal(size=grid.n_cells(k))
        out = cx.spectral_filter(grid, k, cx.ChainVector(k, x), "heat:t=2", weights).values
        want = helpers.heat_taylor_oracle(grid, k, x, 2.0, weights)
        assert np.max(np.abs(out - want)) <= 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_stiff_heat_stays_dense(self, grid, k):
        # At weights 10^+-4 the a-priori step count reaches n_k: the exact-rank split.
        weights = helpers.random_weights(random.Random(k), grid, WIDE)
        x = cx.ChainVector(k, np.ones(grid.n_cells(k)))
        with pytest.raises(errors.SizeLimitExceeded):
            cx.spectral_filter(grid, k, x, "heat:t=2", weights)


@contextlib.contextmanager
def counted_image_bases():
    """The calls to hodge._image_bases, which only the exact-rank split makes."""
    calls, original = [], hodge._image_bases

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hodge, "_image_bases", counted)
        yield calls


class TestHeatPaths:
    """Heat by Lanczos, where the a-priori step count m is below n_k, and by the
    exact-rank split everywhere else, against the eigh oracle."""

    @staticmethod
    def check(cc, weights, t, rng):
        """The paths that heat:t takes on cc, after each output matched the oracle:
        Lanczos to 1e-12 of max|x|; the split to that times max(1, t lambda_max),
        as its eigenvectors and the oracle's move by the unit roundoff of t L_k."""
        paths = set()
        for k in range(cc.dim + 1):
            x = np.array([rng.uniform(-2, 2) for _ in range(cc.n_cells(k))])
            with counted_image_bases() as calls:
                out = cx.spectral_filter(cc, k, cx.ChainVector(k, x), f"heat:t={t}", weights)
            want = helpers.filter_oracle(cc, k, x, f"heat:t={t}", weights)
            tol = 1e-12 * np.max(np.abs(x), initial=0.0)
            if calls:
                lap = cx.hodge_laplacian(cc, k, "full", weights)
                tol *= max(1.0, t * np.max(np.linalg.eigvalsh(lap), initial=0.0))
            assert np.max(np.abs(out.values - want), initial=0.0) <= tol
            paths.add("split" if calls else "lanczos")
        return paths

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans(),
           spread=st.floats(0.2, 4.0), t=st.sampled_from([0.001, 0.05, 0.5, 2.0]))
    def test_zoo_matches_the_oracle(self, seed, two_complex, spread, t):
        # Weights 10^u, u uniform in [-spread, spread].
        rng = random.Random(seed)
        cc = zoo_complex(rng, two_complex)
        self.check(cc, helpers.random_weights(rng, cc, spread * math.log(10)), t, rng)

    def test_each_path_is_taken(self):
        paths = set()
        for seed in range(20):
            rng = random.Random(seed)
            cc = zoo_complex(rng, seed % 2)
            for spread in (0.2, 4.0):
                weights = helpers.random_weights(rng, cc, spread * math.log(10))
                paths |= self.check(cc, weights, 0.001, rng)
        assert paths == {"lanczos", "split"}

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("t, path", [(0.5, "lanczos"), (1000.0, "split")])
    def test_non_finite_chain(self, value, t, path):
        # On the 6x6 grid's 60 edges, t = 1000 asks for m >= 60 steps: the split.
        grid = cx.cubical([6, 6])
        x = np.r_[value, np.ones(59)]
        with counted_image_bases() as calls, pytest.raises(errors.NonFiniteResult):
            cx.spectral_filter(grid, 1, cx.ChainVector(1, x), f"heat:t={t}")
        assert ("split" if calls else "lanczos") == path

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e308])
    def test_extreme_chains_scale_through(self, scale):
        # Lanczos runs on x / max|x|, whose 2-norm neither underflows nor overflows.
        grid = cx.cubical([6, 6])
        x = np.random.default_rng(0).normal(size=60)
        x /= np.max(np.abs(x))
        want = cx.spectral_filter(grid, 1, cx.ChainVector(1, x), "heat:t=0.5").values
        with counted_image_bases() as calls:
            out = cx.spectral_filter(grid, 1, cx.ChainVector(1, scale * x), "heat:t=0.5").values
        assert not calls and np.max(np.abs(out - scale * want)) <= 1e-12 * scale

    @pytest.mark.parametrize("t", [0.5, -0.1, -0.5])
    def test_the_split_scales_chains_near_the_float_range(self, toy, t):
        # The split runs on x over a power of two, so 1e308 times each sign pattern
        # gives the oracle's output, or NonFiniteResult where that passes the range.
        top = np.finfo(float).max / 1e308
        for signs in itertools.product((1.0, -1.0), repeat=6):
            x = np.array(signs)
            want = helpers.filter_oracle(toy, 1, x, f"heat:t={t}")
            with counted_image_bases() as calls:
                if np.max(np.abs(want)) > top:
                    with pytest.raises(errors.NonFiniteResult):
                        cx.spectral_filter(toy, 1, cx.ChainVector(1, 1e308 * x), f"heat:t={t}")
                else:
                    out = cx.spectral_filter(toy, 1, cx.ChainVector(1, 1e308 * x), f"heat:t={t}")
                    assert np.max(np.abs(out.values / 1e308 - want)) <= 1e-12
            assert calls

    def test_negative_time_takes_the_split(self, toy):
        # exp(-t L) grows for t < 0, where no a-priori step count exists.
        x = np.linspace(-1, 1, 6)
        with counted_image_bases() as calls:
            out = cx.spectral_filter(toy, 1, cx.ChainVector(1, x), "heat:t=-0.5").values
        want = helpers.filter_oracle(toy, 1, x, "heat:t=-0.5")
        assert calls and np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    def test_the_krylov_basis_is_capped_at_the_dense_limit(self, monkeypatch):
        # (m + 1) n_k floats may reach MAX_DENSE_CELLS^2, the dense path's largest array.
        grid, steps, count = cx.cubical([8, 8]), [], hodge._lanczos_steps
        monkeypatch.setattr(hodge, "_lanczos_steps", lambda *a: steps.append(count(*a)) or steps[-1])
        x = cx.ChainVector(1, np.ones(grid.n_cells(1)))
        cx.spectral_filter(grid, 1, x, "heat:t=0.5")
        cap = math.ceil(math.sqrt((steps[0] + 1) * grid.n_cells(1)))
        monkeypatch.setattr(hodge, "MAX_DENSE_CELLS", cap)
        with counted_image_bases() as calls:
            cx.spectral_filter(grid, 1, x, "heat:t=0.5")
        assert not calls
        monkeypatch.setattr(hodge, "MAX_DENSE_CELLS", cap - 1)  # below n_1: the split refuses
        with pytest.raises(errors.SizeLimitExceeded):
            cx.spectral_filter(grid, 1, x, "heat:t=0.5")

    @pytest.mark.parametrize("t, path", [(20.0, "lanczos"), (40.0, "split")])
    def test_the_split_serves_where_its_svds_cost_less(self, monkeypatch, t, path):
        # On cubical([12, 12]) at k = 1, 2 m^2 n_1 <= n_1 (n_0^2 + n_2^2) for
        # m <= 132 of n_1 = 264: t = 20 asks for 125 steps, t = 40 for 177.
        grid, seen, count = cx.cubical([12, 12]), [], hodge._lanczos_steps
        monkeypatch.setattr(hodge, "_lanczos_steps", lambda *a: seen.append(a) or count(*a))
        x = np.linspace(-1, 1, 264)
        with counted_image_bases() as calls:
            out = cx.spectral_filter(grid, 1, cx.ChainVector(1, x), f"heat:t={t}").values
        (rho_t, limit), = seen
        assert limit == 132 and count(rho_t, 264) < 264
        assert ("split" if calls else "lanczos") == path
        want = helpers.filter_oracle(grid, 1, x, f"heat:t={t}")
        tol = 1e-12 * (t * 16 if calls else 1.0)  # as in check, with lambda_max <= 16
        assert np.max(np.abs(out - want)) <= tol

    def test_a_breakdown_ends_the_steps(self, monkeypatch):
        # A constant vertex signal spans an invariant space: one product, exact.
        products, laplacian = [], hodge._laplacian
        monkeypatch.setattr(hodge, "_laplacian", lambda *a: products.append(a) or laplacian(*a))
        grid = cx.cubical([8, 8])
        for x in (np.full(64, 0.25), np.zeros(64)):
            out = cx.spectral_filter(grid, 0, cx.ChainVector(0, x), "heat:t=2")
            assert np.max(np.abs(out.values - x)) <= 1e-15
        assert len(products) == 3  # the spectrum bound twice, one Lanczos step

    @pytest.mark.parametrize("rho_t", [0.0, 1e-9, 0.3, 2.0, 8.0, 50.0, 400.0])
    def test_step_count_is_the_least_with_the_bound_at_roundoff(self, rho_t):
        def log_bound(m):  # Hochbruck & Lubich (1997), Thm. 2
            if m <= 2 * rho_t:
                return math.log(10) - m * m / (5 * rho_t)
            return math.log(10 / rho_t) - rho_t + m * math.log(math.e * rho_t / m)

        n = 10_000
        m = hodge._lanczos_steps(rho_t, n)
        if rho_t:
            assert m >= math.sqrt(4 * rho_t) and log_bound(m) <= math.log(2.0**-53)
            assert m - 1 < math.sqrt(4 * rho_t) or log_bound(m - 1) > math.log(2.0**-53)
        else:
            assert m == 1
        assert hodge._lanczos_steps(rho_t, m) == m  # none below n_k = m


class TestSpectralFilter:
    def test_identity(self, toy):
        x = cx.ChainVector(1, np.arange(1.0, 7.0))
        out = cx.spectral_filter(toy, 1, x, "identity")
        assert np.max(np.abs(out.values - x.values)) <= 1e-10

    def test_lowpass_matches_matrix_free_path(self, toy, toy_minus):
        rng = np.random.default_rng(12)
        for cc in (toy, toy_minus):
            for k in range(cc.dim + 1):
                x = cx.ChainVector(k, rng.normal(size=cc.n_cells(k)))
                spectral = cx.spectral_filter(cc, k, x, "lowpass")
                direct = x.values - cx.hodge_laplacian(cc, k) @ x.values
                assert np.max(np.abs(spectral.values - direct)) <= 1e-8

    def test_heat_at_time_zero_is_identity(self, toy):
        x = cx.ChainVector(1, np.linspace(-1, 1, 6))
        out = cx.spectral_filter(toy, 1, x, "heat:t=0")
        assert np.max(np.abs(out.values - x.values)) <= 1e-10

    def test_polynomial_filter(self, toy):
        x = cx.ChainVector(1, np.linspace(-1, 1, 6))
        out = cx.spectral_filter(toy, 1, x, "poly:2,-1")
        direct = 2 * x.values - cx.hodge_laplacian(toy, 1) @ x.values
        assert np.max(np.abs(out.values - direct)) <= 1e-8

    def test_polynomial_filter_checks_dimension_and_weights(self, toy):
        with pytest.raises(errors.BadDimension):
            cx.spectral_filter(toy, 3, cx.ChainVector(3, []), "poly:1,2")
        short = cx.WeightSet((np.ones(4), np.ones(6), np.ones(2)))
        with pytest.raises(errors.ShapeMismatch):
            cx.spectral_filter(toy, 1, cx.ChainVector(1, np.ones(6)), "lowpass", short)

    @pytest.mark.parametrize(
        "descriptor",
        ["bandpass", "heat", "heat:tau=1", "heat:t=abc", "poly:", "poly:a,b", "identity:x"],
    )
    def test_unknown_filters_rejected(self, toy, descriptor):
        x = cx.ChainVector(1, np.zeros(6))
        with pytest.raises(errors.UnknownFilter):
            cx.spectral_filter(toy, 1, x, descriptor)


TOY_EDGE_CHAIN = cx.ChainVector(1, np.arange(1.0, 7.0))


@pytest.mark.parametrize("call", [
    lambda toy, x: cx.hodge_decompose(toy, -1, x),
    lambda toy, x: cx.spectral_filter(toy, 7, x, "identity"),
    lambda toy, x: cx.spectral_filter(toy, 3, x, "heat:t=1"),
    lambda toy, x: cx.quadratic_form(toy, 7, x),
], ids=["decompose", "poly", "heat", "energy"])
def test_a_dimension_off_the_complex_is_named_before_the_chain(toy, call):
    with pytest.raises(errors.BadDimension, match=r"^no Laplacian L_-?\d on a 2-complex$"):
        call(toy, TOY_EDGE_CHAIN)


@pytest.mark.parametrize("call, error, message", [
    (lambda toy: cx.WeightSet((np.ones((5, 1)), np.ones(6), np.ones(2))),
     errors.ShapeMismatch, "weight vector 0 must be one-dimensional"),
    (lambda toy: hodge.dense_boundary(toy, 4), errors.BadDimension,
     "no boundary B_4 on a 2-complex"),
    (lambda toy: cx.normalized_rw_weights(cx.cubical([3])), errors.BadDimension,
     "random-walk weights need a 2-dimensional complex"),
], ids=["weight-vector-2d", "dense-boundary-k", "rw-weights-dim"])
def test_malformed_library_input_is_named(toy, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(toy)


def test_a_chain_of_another_dimension_is_named(toy):
    with pytest.raises(errors.BadDimension, match="^chain has dimension 1, expected 0$"):
        cx.hodge_decompose(toy, 0, TOY_EDGE_CHAIN)


class TestOverflowRaisesNonFiniteResult:
    """Overflow ends in NonFiniteResult alone; RuntimeWarnings are errors in this suite."""

    TINY_VERTICES = (np.full(5, 1e-300), np.full(6, 1e300), np.ones(2))

    @pytest.mark.parametrize("call", [
        lambda toy, w: cx.spectral_filter(toy, 1, TOY_EDGE_CHAIN, "heat:t=-1000"),
        lambda toy, w: cx.spectral_filter(toy, 1, TOY_EDGE_CHAIN, "poly:0,1e308,1e308"),
        lambda toy, w: cx.hodge_decompose(
            toy, 1, cx.ChainVector(1, np.array([1e308, -1e308, 1e308, 1, 2, 3]))),
        lambda toy, w: cx.laplacian_spectrum(toy, 1, w),
        lambda toy, w: cx.spectral_basis(toy, 1, w),
        lambda toy, w: cx.quadratic_form(toy, 1, cx.ChainVector(1, [1e308] * 6)),
        lambda toy, w: cx.hodge_laplacian(toy, 1, "full", w),
        lambda toy, w: cx.dirac_operator(
            toy, cx.WeightSet((np.full(5, 1e-320), np.full(6, 1e308), np.ones(2)))),
        lambda toy, w: cx.nonsymmetric_hodge(
            toy, cx.WeightSet((np.full(5, 1e308), np.ones(6), np.ones(2)))),
    ], ids=["heat", "poly", "decompose", "spectrum", "basis", "quadratic", "laplacian",
            "dirac", "rescaled"])
    def test_overflow(self, toy, call):
        with pytest.raises(errors.NonFiniteResult):
            call(toy, cx.WeightSet(self.TINY_VERTICES))

    def test_heat_damps_the_overflowed_gradient_part(self, toy):
        # The gradient eigenvalues overflow to inf and exp(-inf) = 0; the
        # curl eigenvalues are near 1e-300 and keep their part.
        out = cx.spectral_filter(toy, 1, TOY_EDGE_CHAIN, "heat:t=0.5",
                                 cx.WeightSet(self.TINY_VERTICES))
        split = cx.hodge_decompose(toy, 1, TOY_EDGE_CHAIN)
        want = split.curl.values + split.harmonic.values
        assert np.max(np.abs(out.values - want)) <= 1e-12


class TestQuadraticForm:
    def test_constant_vertex_signal_has_zero_energy(self, toy):
        constant = cx.ChainVector(0, np.full(5, 3.25))
        assert cx.quadratic_form(toy, 0, constant) <= 1e-12

    def test_unit_edge_energy(self, toy):
        x = cx.chain_on(toy, 1, {"0-1": 1})
        assert np.isclose(cx.quadratic_form(toy, 1, x), 3.0)

    def test_parseval_identity(self, toy):
        rng = np.random.default_rng(13)
        basis = cx.spectral_basis(toy, 1)
        for _ in range(10):
            x = cx.ChainVector(1, rng.normal(size=6))
            direct = cx.quadratic_form(toy, 1, x)
            coeffs = basis.vectors.T @ x.values
            assert np.isclose(direct, np.sum(basis.eigenvalues * coeffs**2), atol=1e-8)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans(), weighted=st.booleans())
    def test_matches_dense_boundaries(self, seed, two_complex, weighted):
        rng = random.Random(seed)
        if two_complex:
            cc = helpers.random_two_complex(rng)
        else:
            cc = helpers.random_builder_complex(rng)
        weights = helpers.random_weights(rng, cc) if weighted else None
        for k in range(cc.dim + 1):
            x = np.array([rng.uniform(-2, 2) for _ in range(cc.n_cells(k))])
            down = hodge.dense_boundary(cc, k, weights)
            up = hodge.dense_boundary(cc, k + 1, weights)
            dense = float(np.sum((up.T @ x) ** 2) + np.sum((down @ x) ** 2))
            energy = cx.quadratic_form(cc, k, cx.ChainVector(k, x), weights)
            assert abs(energy - dense) <= 1e-12 * dense + 1e-300

    def test_bad_dimension(self, toy):
        with pytest.raises(errors.BadDimension):
            cx.quadratic_form(toy, 3, cx.ChainVector(3, []))

    def test_nonnegative_and_zero_on_harmonics(self, toy_minus):
        rng = np.random.default_rng(14)
        weights = helpers.random_weights(random.Random(14), toy_minus)
        for _ in range(10):
            x = cx.ChainVector(1, rng.normal(size=6))
            assert cx.quadratic_form(toy_minus, 1, x, weights) >= 0
        harmonic = cx.harmonic_basis(toy_minus, 1)[0]
        assert cx.quadratic_form(toy_minus, 1, harmonic) <= 1e-12
