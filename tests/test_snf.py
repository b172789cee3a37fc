"""Smith normal form: examples, invariant-factor oracle, overflow, graph incidences."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import errors, snf
from cellcomplex.core import BoundaryMatrix, _forest_merges
from cellcomplex.snf import SnfResult, smith_normal_form

import helpers


def test_unimodular_column():
    result = smith_normal_form([[-1], [1]])
    assert result.diagonal == (1,) and result.rank == 1


def test_single_entry():
    assert smith_normal_form([[2]]) == SnfResult((2,), 1)


def test_toy_b1_rank_and_factors():
    result = smith_normal_form(helpers.TOY_B1)
    assert result.rank == 4
    assert result.diagonal == (1, 1, 1, 1, 0)


def test_zero_and_empty_matrices():
    assert smith_normal_form(np.zeros((3, 2), dtype=int)) == SnfResult((0, 0), 0)
    assert smith_normal_form(np.zeros((0, 4), dtype=int)) == SnfResult((), 0)


def test_known_torsion_example():
    # diag(2, 6) has factors (2, 6); mixing rows keeps them.
    assert smith_normal_form([[2, 0], [0, 6]]).diagonal == (2, 6)
    assert smith_normal_form([[2, 4], [4, 8]]).diagonal == (2, 0)
    assert smith_normal_form([[3, 0], [0, 5]]).diagonal == (1, 15)


def test_divisibility_chain_and_minor_gcd_oracle():
    rng = random.Random(20240817)
    for _ in range(60):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        matrix = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        result = smith_normal_form(matrix)
        factors = result.diagonal[: result.rank]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        # Product of the first r invariant factors equals the gcd of all
        # r x r minors, up to sign.
        if result.rank:
            product = 1
            for d in factors:
                product *= d
            assert product == helpers.minors_gcd(matrix, result.rank)
        if result.rank < min(n_rows, n_cols):
            assert helpers.minors_gcd(matrix, result.rank + 1) == 0


def test_rank_matches_rational_oracle():
    rng = random.Random(99)
    for _ in range(40):
        matrix = [
            [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
        ]
        matrix += [
            [rng.randint(-2, 2) for _ in range(len(matrix[0]))]
            for _ in range(rng.randint(0, 4))
        ]
        assert smith_normal_form(matrix).rank == helpers.rank_over_q(matrix)


def test_overflow_detection():
    big = 2**61
    with pytest.raises(errors.IntegerOverflow):
        smith_normal_form([[big, big - 1], [big - 3, big - 7]])


def test_rejects_fractional_entries():
    with pytest.raises(ValueError):
        smith_normal_form([[0.5]])


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_entries(entry):
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        smith_normal_form([[1.0, entry]])


@pytest.mark.parametrize("entry", [1e20, 9.3e18, -9.3e18, 2.0**62 + 2**10])
def test_float_beyond_the_limit_names_its_value(entry):
    # Checked before any cast, so the value named is the one given.
    with pytest.raises(errors.IntegerOverflow, match=f"^input entry {int(entry)} exceeds"):
        smith_normal_form([[entry]])
    assert smith_normal_form([[2.0**62]]).diagonal == (2**62,)


def test_result_invariants_enforced():
    with pytest.raises(ValueError):
        SnfResult((2, 3), 2)
    with pytest.raises(ValueError):
        SnfResult((1, 0, 1), 2)


@st.composite
def int_matrices(draw, values=(0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3), min_size=1):
    """Integer matrices up to 6 x 6, entries weighted toward 0 and +-1."""
    rows = draw(st.integers(min_size, 6))
    cols = draw(st.integers(min_size, 6))
    flat = draw(st.lists(st.sampled_from(values), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=200)
@given(matrix=int_matrices())
def test_factors_are_quotients_of_minor_gcds(matrix):
    # d_1 * ... * d_r is the gcd of the r x r minors, for every r up to
    # the rank, and the rank is the rational rank.
    result = smith_normal_form(matrix)
    assert result.rank == helpers.rank_over_q(matrix)
    product = 1
    for r, d in enumerate(result.diagonal[: result.rank], start=1):
        product *= d
        assert product == helpers.minors_gcd(matrix, r)


@settings(max_examples=200)
@given(matrix=int_matrices(values=(0, 0, 1, -1), min_size=0))
def test_boundary_matrix_and_dense_input_agree(matrix):
    entries = tuple((int(i), int(j), int(matrix[i, j])) for i, j in zip(*np.nonzero(matrix)))
    sparse = BoundaryMatrix(*matrix.shape, entries)
    assert smith_normal_form(sparse) == smith_normal_form(matrix.tolist())


@st.composite
def graphs(draw, max_vertices=8, max_edges=12):
    """(vertex count, edges): any (tail, head) pairs of distinct vertices, parallel
    edges allowed."""
    n = draw(st.integers(1, max_vertices))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=max_edges)) if n > 1 else []


def components(n: int, edges) -> int:
    """Connected components by depth-first search."""
    adjacent = {v: set() for v in range(n)}
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen, count = set(), 0
    for v in range(n):
        if v not in seen:
            count += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack.extend(adjacent[u] - seen)
    return count


@settings(max_examples=200)
@given(graph=graphs())
def test_graph_incidence_factors_are_ones(graph):
    # A graph's B_1 is totally unimodular: rank V - components, every factor 1.
    # The Smith kernel ranks it by its spanning forest, from _forest_merges.
    n, edges = graph
    b1 = BoundaryMatrix(n, len(edges), [(v, j, s) for j, (t, h) in enumerate(edges)
                                        for v, s in ((t, -1), (h, 1))])
    result = smith_normal_form(b1)
    assert result.rank == n - components(n, edges)
    assert set(result.diagonal[: result.rank]) <= {1}
    assert len(_forest_merges(n, edges)) == result.rank


@settings(max_examples=200)
@given(graph=graphs())
def test_forest_merges_keep_the_elder_root(graph):
    # Every tree's root is its smallest vertex, so a pair that joins two trees
    # reports the larger of their minima; the oracle merges vertex sets.
    n, edges = graph
    tree = {v: {v} for v in range(n)}
    expected = []
    for p, (a, b) in enumerate(edges):
        if tree[a] is not tree[b]:
            expected.append((max(min(tree[a]), min(tree[b])), p))
            merged = tree[a] | tree[b]
            tree.update(dict.fromkeys(merged, merged))
    assert _forest_merges(n, edges) == expected


@st.composite
def multigraph_incidences(draw):
    """(B_1 of a multigraph as a dense array, whether a column was planted): any
    (tail, head) edges, so parallel edges and isolated vertices occur, and maybe
    one planted column of -1, 0, +1 that is not one -1 and one +1."""
    n, edges = draw(graphs(max_vertices=5, max_edges=6))
    matrix = np.zeros((n, len(edges)), dtype=np.int64)
    for j, (t, h) in enumerate(edges):
        matrix[t, j], matrix[h, j] = -1, 1
    column = st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)
    planted = draw(st.none() | column.filter(lambda c: sorted(v for v in c if v) != [-1, 1]))
    if planted is None:
        return matrix, False
    return np.insert(matrix, draw(st.integers(0, len(edges))), planted, axis=1), True


@settings(max_examples=150, deadline=None)
@given(drawn=multigraph_incidences())
def test_incidence_rule_matches_the_oracles(drawn):
    # An incidence matrix takes no elimination step; with a planted column it
    # is eliminated.  Either way, from BoundaryMatrix or dense input, the rank
    # is the rational rank and d_1 * ... * d_r the gcd of the r x r minors.
    matrix, planted = drawn
    entries = [(int(i), int(j), int(matrix[i, j])) for i, j in zip(*np.nonzero(matrix))]
    with mock.patch.object(snf, "_eliminate", wraps=snf._eliminate) as eliminate:
        result = smith_normal_form(BoundaryMatrix(*matrix.shape, entries))
        assert smith_normal_form(matrix) == result
    if not planted:
        assert eliminate.call_count == 0
    assert result.rank == helpers.rank_over_q(matrix)
    product = 1
    for r, d in enumerate(result.diagonal[: result.rank], start=1):
        product *= d
        assert product == helpers.minors_gcd(matrix, r)


def assert_pivot_bases(matrix) -> list[int]:
    """The kernel's pivots: one per factor, as many as the rational rank, on
    distinct rows and columns, and B on the pivot rows and on the pivot columns
    each reaches that rank.  Returns the factors."""
    matrix = np.asarray(matrix, dtype=np.int64).reshape(np.shape(matrix))
    entries = [(int(i), int(j), int(matrix[i, j])) for i, j in zip(*np.nonzero(matrix))]
    factors, pivots = snf._smith(*matrix.shape, entries)
    rank = helpers.rank_over_q(matrix)
    rows, cols = [r for r, _ in pivots], [c for _, c in pivots]
    assert len(set(rows)) == len(set(cols)) == len(pivots) == len(factors) == rank
    assert helpers.rank_over_q(matrix[rows, :]) == rank
    assert helpers.rank_over_q(matrix[:, cols]) == rank
    return factors


def test_pivots_after_a_non_unit_pivot_come_from_the_rationals():
    # No unit here, so the elimination mixes columns: its last pivot sits in
    # column 1, which alone with column 3 has rank 1.
    matrix = [[-4, -4, 4, 6], [-4, 0, -4, 0]]
    with mock.patch.object(snf, "_rational_pivots", wraps=snf._rational_pivots) as rational:
        assert assert_pivot_bases(matrix) == [2, 4]
    assert rational.call_count == 1


@settings(max_examples=200)
@given(matrix=int_matrices())
def test_pivots_of_integer_matrices_are_bases(matrix):
    assert_pivot_bases(matrix)


@settings(max_examples=150)
@given(drawn=multigraph_incidences())
def test_pivots_of_multigraph_incidences_are_bases(drawn):
    # Without a planted column these are the spanning forest's (younger root, edge).
    assert_pivot_bases(drawn[0])


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
def test_pivots_of_zoo_boundaries_are_bases(seed, two_complex):
    rng = random.Random(seed)
    cc = helpers.random_two_complex(rng) if two_complex else helpers.random_builder_complex(rng)
    for k in range(1, cc.dim + 1):
        assert_pivot_bases(cc.boundary(k).to_dense())


@pytest.mark.parametrize("build", [
    helpers.rp2,
    lambda: cx.product(helpers.rp2(), helpers.rp2()),
    lambda: cx.product(helpers.rp2(), cx.cubical([3])),
], ids=["rp2", "rp2-x-rp2", "rp2-x-path"])
def test_pivots_with_torsion_are_bases(build):
    cc = build()
    factors = [assert_pivot_bases(cc.boundary(k).to_dense()) for k in range(1, cc.dim + 1)]
    assert max(max(f) for f in factors) == 2  # a non-unit pivot was taken
