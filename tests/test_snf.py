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


def test_non_unit_column_is_not_an_edge():
    # Two entries summing to 0 are an edge only if they are -1 and +1.
    assert smith_normal_form([[2], [-2]]) == SnfResult((2,), 1)


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


@pytest.mark.parametrize("matrix", [
    [["1", 2]], [[b"1", 2]], [[None, 1]], [[1, "a"]], np.array([[1 + 0j, 2]]),
], ids=["str", "bytes", "none", "letter", "complex"])
def test_rejects_non_numeric_entries(matrix):
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        smith_normal_form(matrix)


def test_object_entries_past_the_limit_still_overflow():
    with pytest.raises(errors.IntegerOverflow, match=f"^input entry {2**70} exceeds"):
        smith_normal_form([[2**70, 1]])


@pytest.mark.parametrize("entry", [1e20, 9.3e18, -9.3e18, 2.0**62 + 2**10])
def test_float_beyond_the_limit_names_its_value(entry):
    # Checked before any cast, so the value named is the one given.
    with pytest.raises(errors.IntegerOverflow, match=f"^input entry {int(entry)} exceeds"):
        smith_normal_form([[entry]])
    assert smith_normal_form([[2.0**62]]).diagonal == (2**62,)


def test_result_invariants_enforced():
    with pytest.raises(ValueError, match="^rank disagrees"):
        SnfResult((1, 0), 2)
    with pytest.raises(ValueError):
        SnfResult((2, 3), 2)
    with pytest.raises(ValueError):
        SnfResult((1, 0, 1), 2)


def test_rejects_a_one_dimensional_array():
    with pytest.raises(ValueError, match="^expected a 2-d integer matrix$"):
        smith_normal_form([1, 2])
    assert smith_normal_form([]) == SnfResult((), 0)


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
    factors, pivots, _ = snf._smith(*snf._int_csc(matrix))
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


def column_lists(indptr, indices, values) -> list:
    """The (row, value) lists of CSC arrays, values as Python ints."""
    ptr = indptr.tolist()
    pairs = list(zip(indices.tolist(), values.tolist()))
    return [pairs[p:q] for p, q in zip(ptr, ptr[1:])]


def outcome(fn):
    try:
        return fn()
    except errors.IntegerOverflow as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(drawn=st.one_of(int_matrices(values=(0, 0, 1, -1), min_size=0),
                       multigraph_incidences().map(lambda drawn: drawn[0])))
def test_boundary_matrix_and_its_dense_copy_give_one_smith_form(drawn):
    # The kernel on a BoundaryMatrix's arrays and on the dense reader's arrays of
    # to_dense(), in any dtype that holds it, returns the same factors and pivots.
    entries = [(int(i), int(j), int(drawn[i, j])) for i, j in zip(*np.nonzero(drawn))]
    b = BoundaryMatrix(*drawn.shape, entries)
    want = snf._smith(b.rows, b.indptr, b.indices, b.signs)
    for dense in (b.to_dense(), b.to_dense().astype(float), b.to_dense().astype(object)):
        n, *arrays = snf._int_csc(dense)
        assert n == b.rows and column_lists(*arrays) == b.columns()
        assert snf._smith(n, *arrays) == want


BIG = (2**62, -(2**62), 3 * 2**60, -(2**61))


@settings(max_examples=200, deadline=None)
@given(matrix=st.one_of(int_matrices(), int_matrices(values=(0, 0, 1, -1, 2) + BIG)))
def test_dense_reader_keeps_the_column_lists_in_every_dtype(matrix):
    # The reader gives the column lists that the list-based reader built, as Python
    # ints, for int, float, bool and object arrays, entries up to 2^62; the kernel's
    # factors, pivots or overflow are then the same for every dtype.
    want = [[(i, int(row[j])) for i, row in enumerate(matrix.tolist()) if row[j]]
            for j in range(matrix.shape[1])]
    result = outcome(lambda: snf._smith(*snf._int_csc(matrix)))
    for dense in (matrix.astype(float), matrix.astype(object)):
        _, *arrays = snf._int_csc(dense)
        assert column_lists(*arrays) == want
        assert all(type(v) is int for column in column_lists(*arrays) for _, v in column)
        assert outcome(lambda: snf._smith(*snf._int_csc(dense))) == result
    nonzero = matrix != 0
    _, *arrays = snf._int_csc(nonzero)
    assert column_lists(*arrays) == [[(i, 1) for i, _ in column] for column in want]
    assert snf._smith(*snf._int_csc(nonzero)) == snf._smith(*snf._int_csc(nonzero.astype(int)))


@st.composite
def peelable_matrices(draw):
    """Integer matrices up to 6 x 6: a core with entries such as 2 and 3, plus up to
    two planted rows or columns with one nonzero entry, +-1 or (not a unit) +-2, in
    a random row and column order."""
    matrix = draw(int_matrices(values=(0, 0, 1, -1, 2, -2, 3, -3))
                  .filter(lambda m: max(m.shape) <= 4))
    for _ in range(draw(st.integers(0, 2))):
        as_row = draw(st.booleans())
        line = np.zeros(matrix.shape[1] if as_row else matrix.shape[0], dtype=np.int64)
        line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from((1, -1, 1, -1, 2, -2)))
        matrix = np.vstack((matrix, line)) if as_row else np.column_stack((matrix, line))
    rows = draw(st.permutations(range(matrix.shape[0])))
    cols = draw(st.permutations(range(matrix.shape[1])))
    return matrix[np.ix_(rows, cols)]


@settings(max_examples=200, deadline=None)
@given(matrix=peelable_matrices())
def test_peeled_factors_are_quotients_of_minor_gcds(matrix):
    # The peel's pairs and the elimination of the rest give the Smith form:
    # d_1 * ... * d_r is the gcd of the r x r minors, and r the rational rank.
    result = smith_normal_form(matrix)
    assert result.rank == helpers.rank_over_q(matrix)
    product = 1
    for r, d in enumerate(result.diagonal[: result.rank], start=1):
        product *= d
        assert product == helpers.minors_gcd(matrix, r)
    if result.rank < min(matrix.shape):
        assert helpers.minors_gcd(matrix, result.rank + 1) == 0


@settings(max_examples=200, deadline=None)
@given(matrix=peelable_matrices())
def test_pivots_of_peelable_matrices_are_bases(matrix):
    assert_pivot_bases(matrix)


def test_the_peel_takes_unit_singletons_and_leaves_the_rest():
    # Column 0 has one entry, a 1: a coreduction.  Rows 1 and 2 have one entry
    # each, but a 2 and a 3 are not units, so the elimination takes them.
    matrix = np.array([[1, 2, 3], [0, 2, 0], [0, 0, 3]])
    peeled, row_ids, col_ids, indptr, indices, values = snf._peel(*snf._int_csc(matrix))
    assert peeled == [(0, 0)]
    assert row_ids.tolist() == col_ids.tolist() == [1, 2]
    assert (indptr.tolist(), indices.tolist(), values.tolist()) == ([0, 1, 2], [0, 1], [2, 3])
    assert smith_normal_form(matrix).diagonal == (1, 1, 6)
    assert assert_pivot_bases(matrix) == [1, 1, 6]


def test_free_faces_pair_one_row_per_column():
    # Rows 0 and 1 are free faces of column 0; one of them pairs with it and
    # the other is left empty.  Row 2 is then a free face of column 1.
    matrix = np.array([[1, 0], [-1, 0], [1, 1]])
    peeled, row_ids, *_ = snf._peel(*snf._int_csc(matrix))
    assert peeled == [(0, 0), (2, 1)] and row_ids.size == 0
    assert assert_pivot_bases(matrix) == [1, 1]


def test_the_peel_reads_a_bounded_number_of_entries(monkeypatch):
    # A chain that frees one pair at each end per round (row i holds columns i
    # and i + 1).  A round counts the live entries twice, by row and by column,
    # and none starts past _SCANS times the entries; the middle is left to the
    # elimination, which finds the same factors.
    n = 200
    matrix = np.eye(n, dtype=np.int64) + np.eye(n, k=1, dtype=np.int64)
    reads = []
    bincount = np.bincount
    monkeypatch.setattr(snf.np, "bincount", lambda key: reads.append(key.size) or bincount(key))
    peeled, row_ids, *_ = snf._peel(*snf._int_csc(matrix))
    monkeypatch.undo()
    assert 0 < len(peeled) < n and len(row_ids) == n - len(peeled)
    assert sum(reads) <= 2 * (snf._SCANS + 1) * (2 * n - 1)
    assert assert_pivot_bases(matrix) == [1] * n
