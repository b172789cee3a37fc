"""The CSC boundary layout against the tuple code it replaced.

Each array routine of core, and validate_nd's per-cell readers, is
checked against its oracle in helpers: the constructor's sort and checks
(errors and messages included), the exactness product (also against
dense numpy, with planted violations), edge endpoints (and the Smith
kernel's unit stage against the path its edge test picks), restriction and
the per-cell regularity reports (on builder outputs, cubical grids,
products, Vietoris-Rips complexes, polygons and two glued RP2s, with
planted faults in B_1, B_2 and the top cells), and which cells the
unit-pivot certificate settles without the per-cell path.
"""

import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import builders, cli, core, errors, io, snf, validate
from cellcomplex.core import BoundaryMatrix, _edge_endpoints, integer_product
from cellcomplex.snf import smith_normal_form

import helpers

HUGE = (2**70, -(2**70), 2**63, -(2**63) - 1)


@st.composite
def triplet_lists(draw):
    """(rows, cols, triplets): a valid sign pattern in any order, or in (col, row)
    order as _simplex_boundaries hands it over, plus up to three planted faults
    (out of shape, bad sign, repeat, beyond int64), which the ordered draws
    keep in order."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    entries = [(i, j, draw(st.sampled_from((-1, 1)))) for i, j in chosen]
    for fault in draw(st.lists(st.sampled_from(("shape", "sign", "repeat", "huge")),
                               max_size=3)):
        i, j = draw(st.integers(0, max(rows - 1, 0))), draw(st.integers(0, max(cols - 1, 0)))
        s = draw(st.sampled_from((-1, 1)))
        if fault == "shape":
            i, j = draw(st.sampled_from(((-1, j), (i, -1), (rows, j), (i, cols))))
        elif fault == "sign":
            s = draw(st.sampled_from((0, 2, -2, 3)))
        elif fault == "repeat" and entries:
            i, j, _ = draw(st.sampled_from(entries))
        elif fault == "huge":
            slot = draw(st.integers(0, 2))
            i, j, s = [draw(st.sampled_from(HUGE)) if k == slot else v
                       for k, v in enumerate((i, j, s))]
        entries.insert(draw(st.integers(0, len(entries))), (i, j, s))
    if draw(st.booleans()):
        entries.sort(key=lambda e: (e[1], e[0]))
    return rows, cols, entries


def raised(fn, *args):
    try:
        fn(*args)
    except (errors.CellComplexError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestConstructor:
    @settings(max_examples=400)
    @given(case=triplet_lists())
    def test_matches_the_sort_and_check_oracle(self, case):
        rows, cols, entries = case
        want = raised(helpers.sorted_entries_oracle, rows, cols, entries)
        inputs = [entries, tuple(entries)]
        if not any(abs(v) >= 2**63 for e in entries for v in e):
            inputs.append(np.array(entries, dtype=np.int64).reshape(-1, 3))
        for given_entries in inputs:
            assert raised(BoundaryMatrix, rows, cols, given_entries) == want
        if want is None:
            m = BoundaryMatrix(rows, cols, entries)
            assert m.entries == helpers.sorted_entries_oracle(rows, cols, entries)
            assert all(BoundaryMatrix(rows, cols, e) == m for e in inputs)
            assert len({hash(BoundaryMatrix(rows, cols, e)) for e in inputs}) == 1
            for array in (m.indptr, m.indices, m.signs):
                assert array.dtype == np.int64 and not array.flags.writeable
            assert m.indptr[-1] == len(entries) and len(m.indptr) == cols + 1

    @pytest.mark.parametrize("entries, error, message", [
        ([(0, 0, 1), (5, 0, 1)], errors.ShapeMismatch, "entry (5, 0) outside 2x1 matrix"),
        ([(1, 0, 1), (0, 0, 2)], ValueError, "boundary entry sign must be +-1, got 2"),
        ([(1, 0, 1), (1, 0, -1)], errors.DuplicateEntry, "duplicate entry at (1, 0)"),
        ([(2**70, 0, 1)], errors.ShapeMismatch,
         f"entry ({2**70}, 0) outside 2x1 matrix"),
        ([(2**71, 0, 1), (2**70, 0, 1)], errors.ShapeMismatch,
         f"entry ({2**70}, 0) outside 2x1 matrix"),
        ([(0, 0)], ValueError, "boundary entries must be (row, col, sign) triplets"),
    ], ids=["shape", "sign", "repeat", "huge", "huge-tie", "pairs"])
    def test_error_messages(self, entries, error, message):
        with pytest.raises(error) as info:
            BoundaryMatrix(2, 1, entries)
        assert str(info.value) == message

    @pytest.mark.parametrize("entries", [
        [(0, 0, -1), (1, 0, 1.5)], [(0, 0, -1), (1, 0, 1.0)], [(0, 0, -1), (1, 0, "1")],
    ], ids=["sign-1.5", "sign-1.0", "sign-str"])
    def test_a_sign_must_be_the_integer_one(self, entries):
        with pytest.raises(ValueError) as info:
            BoundaryMatrix(2, 1, entries)
        assert str(info.value) == f"boundary entry sign must be +-1, got {entries[1][2]}"
        if entries[1][2] == 1.5:  # the tuple code rejected it the same way
            assert raised(helpers.sorted_entries_oracle, 2, 1, entries) == (
                type(info.value), str(info.value))

    @pytest.mark.parametrize("entries, message", [
        ([(0, 0, -1), (0.5, 0, 1)], "entry (0.5, 0) outside 2x1 matrix"),
        ([(0, 0, -1), (1, 0.0, 1)], "entry (1, 0.0) outside 2x1 matrix"),
        (np.array([[0, 0, -1], [1.7, 0, 1]]), "entry (0.0, 0.0) outside 2x1 matrix"),
    ], ids=["row-0.5", "col-0.0", "float-array"])
    def test_an_index_must_be_an_integer(self, entries, message):
        # The tuple code stored such entries unchecked; no cast truncates them now.
        with pytest.raises(errors.ShapeMismatch) as info:
            BoundaryMatrix(2, 1, entries)
        assert str(info.value) == message

    def test_unsigned_object_and_empty_inputs(self):
        m = BoundaryMatrix(2, 1, [(0, 0, -1), (1, 0, 1)])
        assert BoundaryMatrix(2, 1, np.array([(1, 0, 1), (0, 0, -1)], dtype=object)) == m
        assert BoundaryMatrix(2, 1, np.array([[1, 0, 1]], dtype=np.uint8)).entries == ((1, 0, 1),)
        assert BoundaryMatrix(2, 1, []) == BoundaryMatrix(2, 1, np.empty((0, 3)))

    @settings(max_examples=100)
    @given(data=st.data(), shape=st.sampled_from([(2**62 - 1, 2), (2**62, 2), (2**62, 3)]))
    def test_shapes_at_the_sort_key_bound(self, data, shape):
        # The one key col * rows + row is exact while rows * cols < 2^63; past
        # that the entries sort by two keys.  Both give the oracle's order and errors.
        rows, cols = shape
        row = st.sampled_from((0, 1, 2**40, rows - 2, rows - 1))
        cells = data.draw(st.lists(st.tuples(row, st.integers(0, cols - 1)), unique=True))
        entries = [(i, j, data.draw(st.sampled_from((-1, 1)))) for i, j in cells]
        for fault in data.draw(st.lists(st.sampled_from(("shape", "repeat")), max_size=2)):
            i, j = (rows, 0) if fault == "shape" or not entries else data.draw(
                st.sampled_from(entries))[:2]
            entries.insert(data.draw(st.integers(0, len(entries))), (i, j, 1))
        want = raised(helpers.sorted_entries_oracle, rows, cols, entries)
        assert raised(BoundaryMatrix, rows, cols, entries) == want
        if want is None:
            m = BoundaryMatrix(rows, cols, entries)
            assert m.entries == helpers.sorted_entries_oracle(rows, cols, entries)
            b = BoundaryMatrix(cols, 4, [(i, j, 1) for i in range(cols) for j in (0, 3)])
            assert integer_product(m, b) == helpers.integer_product_oracle(m, b)

    def test_a_huge_shape_without_columns(self):
        m = BoundaryMatrix(2**70, 0, [])
        assert m.shape == (2**70, 0) and m.entries == () and m.indptr.tolist() == [0]

    def test_flips_ignore_indices_outside_the_shape(self):
        m = BoundaryMatrix(2, 1, ((0, 0, -1), (1, 0, 1)))
        assert m.flip_columns([-1, 1, 5]) == m == m.flip_rows([-1, 2])
        assert m.flip_rows([1, 1]).entries == ((0, 0, -1), (1, 0, -1))


def zoo(seed: int) -> cx.CellComplex:
    rng = random.Random(seed)
    return (helpers.random_two_complex if seed % 3 == 0 else helpers.random_builder_complex)(rng)


def plant_violation(cc: cx.CellComplex, rng: random.Random) -> cx.CellComplex:
    """The complex with one entry of some B_k (k >= 2) negated, unchecked."""
    ks = [k for k in range(2, cc.dim + 1) if cc.boundary(k).entries]
    if not ks:
        return cc
    k = rng.choice(ks)
    b = cc.boundary(k)
    pick = rng.randrange(len(b.entries))
    entries = [(i, j, -s if n == pick else s) for n, (i, j, s) in enumerate(b.entries)]
    mats = list(cc.boundaries)
    mats[k - 1] = BoundaryMatrix(b.rows, b.cols, entries)
    return cx.CellComplex(cc.dim, cc.cells, tuple(mats))


def with_columns(cc: cx.CellComplex, k: int, columns: list, labels=None) -> cx.CellComplex:
    """The complex with B_k's columns replaced (and k-cells relabelled), unchecked."""
    labels = cc.cells[k] if labels is None else tuple(labels)
    mats = list(cc.boundaries)
    mats[k - 1] = BoundaryMatrix(cc.boundary(k).rows, len(columns),
                                 [(i, j, s) for j, col in enumerate(columns) for i, s in col])
    if k < cc.dim and len(labels) > cc.n_cells(k):  # new k-cells bound nothing above
        b = cc.boundary(k + 1)
        mats[k] = BoundaryMatrix(len(labels), b.cols, b.entries)
    cells = cc.cells[:k] + (labels,) + cc.cells[k + 1:]
    return cx.CellComplex(cc.dim, cells, tuple(mats))


def plant_fault(cc: cx.CellComplex, fault: str, rng: random.Random) -> cx.CellComplex:
    """The complex with one planted fault, unchecked; unchanged where it has no place.

    b1-single and b1-same-sign break an edge column; b2-branch adds an edge
    touching a 2-cell's cycle, b2-split sums the columns of two 2-cells with
    disjoint edges and b2-empty clears one; top-cell adds the benchmark's
    bad cell, bounded by the first and last top cells' columns together.
    """
    if fault == "exactness":
        return plant_violation(cc, rng)
    k = cc.dim if fault == "top-cell" else 1 if fault.startswith("b1") else 2
    if not 1 <= k <= cc.dim:
        return cc
    columns = cc.boundary(k).columns()
    j = rng.randrange(len(columns))
    col = columns[j]
    if fault == "b1-single" and col:
        columns[j] = [rng.choice(col)]
    elif fault == "b1-same-sign" and col:
        sign = rng.choice((-1, 1))
        columns[j] = [(i, sign) for i, _ in col]
    elif fault == "b2-branch":
        edges = cc.boundary(1).columns()
        touched = {v for i, _ in col for v, _ in edges[i]}
        near = [e for e, edge in enumerate(edges) if e not in dict(col)
                and touched & {v for v, _ in edge}]
        if near:
            columns[j] = sorted(col + [(rng.choice(near), rng.choice((-1, 1)))])
    elif fault == "b2-split":
        other = [c for c in columns if c and not set(dict(c)) & set(dict(col))]
        if col and other:
            columns[j] = sorted(col + rng.choice(other))
    elif fault == "b2-empty":
        columns[j] = []
    elif fault == "top-cell":
        first, last = columns[0], columns[-1]
        if set(dict(first)) & set(dict(last)):
            return cc
        return with_columns(cc, k, columns + [sorted(first + last)], cc.cells[k] + ("planted",))
    return with_columns(cc, k, columns)


FAULTS = ("exactness", "b1-single", "b1-same-sign", "b2-branch", "b2-split", "b2-empty",
          "top-cell")


def polygons(copies: int, m: int) -> cx.CellComplex:
    """``copies`` disjoint m-gons, each a 2-cell over its cycle of edges."""
    rings = [list(range(c * m, c * m + m)) for c in range(copies)]
    edges = [(ring[i], ring[(i + 1) % m]) for ring in rings for i in range(m)]
    return cx.from_tuples(range(copies * m), edges, rings)


def product_factor(rng: random.Random) -> cx.CellComplex:
    kind = rng.randrange(4)
    if kind == 0:
        return helpers.random_factor(rng)
    if kind == 1:
        return polygons(1, rng.randint(3, 9))
    if kind == 2:
        return cx.cubical([rng.randint(2, 3) for _ in range(rng.randint(1, 2))])
    return helpers.rp2()


@st.composite
def faulty_complexes(draw):
    """A zoo complex, a 2-, 3- or 4-D cubical grid, a product, a Vietoris-Rips
    complex, disjoint polygons (long ones among them) or helpers.rp2_pair, with up
    to three planted faults."""
    kind = draw(st.sampled_from(("zoo", "cubical", "zoo", "cubical", "product", "rips",
                                 "polygons", "rp2")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "zoo":
        cc = zoo(rng.randrange(2**32))
    elif kind == "cubical":
        dim = draw(st.integers(2, 4))
        sizes = st.integers(2, 4 if dim == 2 else 3)
        cc = cx.cubical(draw(st.lists(sizes, min_size=dim, max_size=dim)))
    elif kind == "product":
        cc = cx.product(product_factor(rng), product_factor(rng))
    elif kind == "rips":
        cc = cx.vietoris_rips(helpers.random_cloud(rng, 4, 10), rng.uniform(0.5, 2.5), 3)
    elif kind == "polygons":
        cc = polygons(draw(st.integers(1, 30)), draw(st.integers(3, 64)))
    else:
        cc = helpers.rp2_pair()
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        cc = plant_fault(cc, fault, rng)
    return cc


@st.composite
def sign_matrices(draw, rows=None):
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6))
    values = draw(st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=rows * cols,
                           max_size=rows * cols))
    dense = np.array(values, dtype=np.int64).reshape(rows, cols)
    return BoundaryMatrix(rows, cols, [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))])


class TestExactnessProduct:
    @settings(max_examples=200)
    @given(a=sign_matrices(), data=st.data())
    def test_random_products(self, a, data):
        b = data.draw(sign_matrices(rows=a.cols))
        product = integer_product(a, b)
        assert product == helpers.integer_product_oracle(a, b)
        dense = a.to_dense() @ b.to_dense()
        assert product == {(int(i), int(j)): int(dense[i, j]) for i, j in zip(*np.nonzero(dense))}
        keys = list(product)
        assert keys == sorted(keys, key=lambda rc: (rc[1], rc[0]))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zoo_with_planted_violations(self, seed):
        cc = plant_violation(zoo(seed), random.Random(seed))
        for k in range(2, cc.dim + 1):
            a, b = cc.boundary(k - 1), cc.boundary(k)
            dense = a.to_dense() @ b.to_dense()
            assert integer_product(a, b) == helpers.integer_product_oracle(a, b)
            assert len(integer_product(a, b)) == np.count_nonzero(dense)
        want = helpers.exactness_violation_oracle(cc)
        if want is None:
            cx.from_boundary_matrices(cc.cells, cc.boundaries)
            return
        with pytest.raises(errors.ExactnessViolated) as info:
            cx.from_boundary_matrices(cc.cells, cc.boundaries)
        exc = info.value
        assert (exc.k, exc.row, exc.col, exc.value) == want
        assert str(exc) == str(errors.ExactnessViolated(*want))

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            integer_product(BoundaryMatrix(2, 3, ()), BoundaryMatrix(2, 1, ()))


def endpoints_oracle(b1: BoundaryMatrix) -> tuple[list[int], list[int]]:
    """Tails and heads by helpers.edge_endpoints_oracle, -1 where it raises."""
    tails, heads = [], []
    for j in range(b1.cols):
        try:
            tail, head = helpers.edge_endpoints_oracle(b1, j)
        except errors.NotACycleColumn:
            tail = head = -1
        tails.append(tail)
        heads.append(head)
    return tails, heads


def assert_endpoints(b1: BoundaryMatrix) -> None:
    tails, heads = _edge_endpoints(b1.indptr, b1.indices, b1.signs)
    assert tails.dtype == heads.dtype == np.int64
    assert (tails.tolist(), heads.tolist()) == endpoints_oracle(b1)


def assert_units_take_their_slow_path(b: BoundaryMatrix) -> None:
    """snf._units equals _forest_merges over the oracle's (tail, head) pairs when
    every column is an edge, and _peel's output otherwise."""
    csc = (b.rows, b.indptr, b.indices, b.signs)
    try:
        pairs = [helpers.edge_endpoints_oracle(b, j) for j in range(b.cols)]
    except errors.NotACycleColumn:
        want = snf._peel(*csc)
    else:
        empty = np.zeros(0, dtype=np.int64)
        want = core._forest_merges(b.rows, pairs), empty, empty, np.zeros(1, np.int64), empty, empty
    got = snf._units(*csc)
    assert got[0] == want[0]
    for mine, theirs in zip(got[1:], want[1:], strict=True):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def with_one_sign_flipped(b: BoundaryMatrix, rng: random.Random) -> BoundaryMatrix:
    """B with one entry negated: a column of length 2 that is not an edge."""
    pick = rng.randrange(len(b.entries))
    return BoundaryMatrix(b.rows, b.cols, [(i, j, -s if n == pick else s)
                                           for n, (i, j, s) in enumerate(b.entries)])


class TestEdgeEndpoints:
    @settings(max_examples=200)
    @given(b1=sign_matrices())
    def test_random_columns(self, b1):
        assert_endpoints(b1)
        tails, _ = endpoints_oracle(b1)
        cells = [[f"v{i}" for i in range(b1.rows)], [f"e{j}" for j in range(b1.cols)]]
        cc = cx.CellComplex(1, cells, (b1,))
        if -1 in tails:
            with pytest.raises(errors.NotACycleColumn) as info:
                core._edges(cc)
            j = tails.index(-1)
            assert str(info.value) == f"edge column {j} is not a (tail, head) incidence"
        else:
            assert core._edges(cc) == [helpers.edge_endpoints_oracle(b1, j)
                                       for j in range(b1.cols)]

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zoo(self, seed):
        cc = zoo(seed)
        if cc.dim >= 1 and cc.boundary(1).entries:
            assert_endpoints(cc.boundary(1))
            assert_endpoints(with_one_sign_flipped(cc.boundary(1), random.Random(seed)))


class TestUnitsAgainstTheirSlowPath:
    # The unit stage's graph test picks between two paths; either way it must
    # return what the path it picked returns on its own.
    @settings(max_examples=200)
    @given(b=sign_matrices())
    def test_random_matrices(self, b):
        assert_units_take_their_slow_path(b)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zoo_edges(self, seed):
        cc = zoo(seed)
        if cc.dim >= 1 and cc.boundary(1).entries:
            assert_units_take_their_slow_path(cc.boundary(1))
            assert_units_take_their_slow_path(
                with_one_sign_flipped(cc.boundary(1), random.Random(seed)))


def _refuse_triplets(monkeypatch) -> None:
    def refuse(self):
        raise AssertionError("read BoundaryMatrix.entries")

    monkeypatch.setattr(BoundaryMatrix, "entries", property(refuse))


def test_kernel_callers_read_columns_not_triplets(monkeypatch):
    # Only io.complex_to_json reads a boundary's triplets, and only is_simple and
    # validate_dim2 its column lists: the Smith kernel, the edge test, the closure
    # walk and the exact path of validate_nd read the CSC arrays.
    cube, big = cx.cubical([2, 2, 2]), cx.cubical([3, 3, 3])
    chain = cx.ChainVector(1, np.arange(cube.n_cells(1), dtype=float))
    columns = big.boundary(3).columns()
    planted = with_columns(big, 3, columns + [sorted(columns[0] + columns[-1])],
                           big.cells[3] + ("planted",))
    square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    filtration = cx.Filtration(cube.boundaries, np.zeros(sum(map(len, cube.cells))))
    _refuse_triplets(monkeypatch)

    def refuse(self):
        raise AssertionError("read BoundaryMatrix.columns")

    monkeypatch.setattr(BoundaryMatrix, "columns", refuse)
    assert smith_normal_form(cube.boundary(2)).rank == cube.n_cells(1) - cube.n_cells(0) + 1
    assert cx.betti_numbers(helpers.rp2(), "integer").torsion == ((), (2,), ())
    split = cx.hodge_decompose(cube, 1, chain)
    assert np.allclose(split.gradient.values + split.curl.values, chain.values)
    assert cx.validate_dim1(cube).valid and cx.validate_nd(cube).valid
    assert {f.cell for f in cx.validate_nd(planted).failures} == {"3-cell planted"}
    assert core.closure_indices(cube, cx.CellRef(3, 0)) == [list(range(8)), list(range(12)),
                                                            list(range(6)), [0]]
    assert filtration.steps[-1].vertices == tuple(range(8))
    assert cx.spanning_tree_lifting(square).n_cells(2) == 1


def test_cli_writes_complexes_without_triplets(monkeypatch, capsys, tmp_path):
    # Every command that prints a complex writes it from the CSC arrays.
    square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    coords = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    window = builders.window_lifting(
        builders.PlanarEmbedding(coords, builders._underlying_graph(square), square.cells[0])
    )
    window = cx.CellComplex(window.dim, square.cells + window.cells[2:],
                            square.boundaries + window.boundaries[1:])
    graph, edge = tmp_path / "graph.json", tmp_path / "edge.json"
    graph.write_text(io.dumps(io.complex_to_json(square)))
    edge.write_text(io.dumps(io.complex_to_json(helpers.k2_paper())))
    (tmp_path / "coords.csv").write_text("0,0\n1,0\n1,1\n0,1\n")
    cases = [
        (["build", "cubical", "3", "3"], cx.cubical([3, 3])),
        (["product", str(graph), str(edge)], cx.product(square, helpers.k2_paper())),
        (["lift", "tree", str(graph)], cx.spanning_tree_lifting(square)),
        (["lift", "window", str(graph), "--coords", str(tmp_path / "coords.csv")], window),
        (["lift", "chordless", str(graph)], cx.chordless_cycle_lifting(square)),
    ]
    expected = [io.dumps(io.complex_to_json(cc)) for _, cc in cases]
    _refuse_triplets(monkeypatch)
    for (argv, _), want in zip(cases, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want


class TestRestrict:
    @settings(max_examples=200)
    @given(m=sign_matrices(), data=st.data())
    def test_matches_the_column_oracle(self, m, data):
        rows = data.draw(st.lists(st.integers(0, max(m.rows - 1, 0)), unique=True)
                         if m.rows else st.just([]))
        cols = data.draw(st.lists(st.integers(0, max(m.cols - 1, 0)), unique=True)
                         if m.cols else st.just([]))
        sub = m.restrict(rows, cols)
        assert sub.shape == (len(rows), len(cols))
        oracle = helpers.restrict_oracle(m, rows, cols)
        assert sub.entries == helpers.sorted_entries_oracle(len(rows), len(cols), oracle)

    @pytest.mark.parametrize("rows, cols", [
        ([0, 0], [0]), ([2], [0]), ([-1], [0]), ([0], [1]), ([0], [0, 0]),
    ])
    def test_bad_index_lists(self, rows, cols):
        with pytest.raises(errors.ShapeMismatch):
            BoundaryMatrix(2, 1, ((0, 0, -1), (1, 0, 1))).restrict(rows, cols)


def _track_exact_path(monkeypatch) -> list:
    """(k, index) of every cell that validate_nd sends to _cell_failures, in order."""
    seen, cell_failures = [], validate._cell_failures

    def tracking(cc, k, index):
        seen.append((k, index))
        return cell_failures(cc, k, index)

    monkeypatch.setattr(validate, "_cell_failures", tracking)
    return seen


class TestValidateNd:
    @settings(max_examples=150, deadline=None)
    @given(cc=faulty_complexes())
    def test_reports_match_the_restrict_and_smith_oracle(self, cc):
        report = cx.validate_nd(cc)
        got = [(f.condition, f.cell, f.detail) for f in report.failures]
        assert got == helpers.validate_nd_oracle(cc)
        assert report.valid == (not got)

    def test_planted_bad_cells_are_named(self):
        cube = cx.cubical([2, 2, 2])
        bad = plant_violation(cube, random.Random(1))
        got = helpers.validate_nd_oracle(bad)
        assert got and [(f.condition, f.cell, f.detail)
                        for f in cx.validate_nd(bad).failures] == got

    @settings(max_examples=150, deadline=None)
    @given(cc=faulty_complexes())
    def test_settled_cells_have_no_failure(self, cc):
        if helpers.exactness_violation_oracle(cc) is not None:
            return
        failing = {cell for condition, cell, _ in helpers.validate_nd_oracle(cc)
                   if condition != "B1-columns"}
        for k in range(1, cc.dim + 1):
            settled = validate._settled(cc, k)
            assert settled.shape == (cc.n_cells(k),)
            assert not {f"{k}-cell {cc.cells[k][i]}" for i in np.flatnonzero(settled)} & failing

    def test_rp2_torsion_does_not_settle(self):
        # The 3-cell's closure has H_1 = Z/2, so no unit pivots reach the rank of its B_2.
        pair = helpers.rp2_pair()
        assert not validate._settled(pair, 3).any()
        assert validate._settled(pair, 2).all() and validate._settled(pair, 1).all()
        failures = cx.validate_nd(pair).failures
        assert [(f.condition, f.cell, f.detail) for f in failures] == \
            helpers.validate_nd_oracle(pair)
        assert [(f.condition, f.cell) for f in failures] == [("cell-acyclic", "3-cell ball")]
        assert failures[0].detail.endswith("1, 2))")

    def test_long_polygon_costs_no_more_than_the_per_cell_path(self):
        # One 3000-gon: its spanning tree pairs 2999 edges, and the one edge row
        # left pairs with the 2-cell's column, so every cell settles.
        polygon = polygons(1, 3000)
        got = [(f.condition, f.cell, f.detail) for f in cx.validate_nd(polygon).failures]
        assert got == helpers.validate_nd_oracle(polygon) == []
        assert validate._settled(polygon, 1).all() and validate._settled(polygon, 2).all()

        def per_cell():  # the exact path for every cell
            return [validate._cell_failures(polygon, k, i)
                    for k in (1, 2) for i in range(polygon.n_cells(k))]

        def best(fn):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(lambda: cx.validate_nd(polygon)) <= best(per_cell)

    def test_disjoint_polygons_take_no_exact_path(self, monkeypatch):
        # Free-face rounds would take a 64-gon's 2-cell down one pair of edges
        # per round; its unit pivots settle it at once, as for the 3000-gon.
        seen = _track_exact_path(monkeypatch)
        assert cx.validate_nd(polygons(30, 64)).valid
        assert seen == []

    def test_builds_no_matrix_per_cell(self, monkeypatch):
        # A valid complex settles: no cell reaches the exact path or the
        # elimination.  The sizes are the valid grids of the benchmark's lattice
        # validate commands, and [3, 3, 3].
        calls = []
        original = BoundaryMatrix.__init__

        def counting(self, *args, **kwargs):
            calls.append(args[:2])
            original(self, *args, **kwargs)

        def refuse(*args):
            raise AssertionError("reached the exact path")

        grids = [cx.cubical(sizes) for sizes in (
            [6, 6], [8, 8], [10, 10], [12, 12], [3, 3, 3], [3, 3, 4], [4, 4, 3], [3, 4, 4],
            [2, 3, 3, 3])]
        monkeypatch.setattr(core.BoundaryMatrix, "__init__", counting)
        monkeypatch.setattr(validate, "_cell_failures", refuse)
        monkeypatch.setattr(snf, "_eliminate", refuse)
        assert all(validate.validate_nd(grid).valid for grid in grids)
        assert calls == []
        monkeypatch.undo()
        assert cx.closure(grids[4], cx.CellRef(3, 0)).n_cells(0) == 8

    def test_smith_runs_only_between_level_one_and_the_top(self, monkeypatch):
        # Only the planted cell takes the exact path; its pivots of the
        # elimination, snf._eliminate, are counted.
        cube = cx.cubical([3, 3, 3])
        columns = cube.boundary(3).columns()
        planted = with_columns(cube, 3, columns + [sorted(columns[0] + columns[-1])],
                               cube.cells[3] + ("planted",))
        seen, pivots, eliminate = _track_exact_path(monkeypatch), Counter(), snf._eliminate

        def counting(*args):
            pivots[seen[-1]] += 1
            return eliminate(*args)

        monkeypatch.setattr(snf, "_eliminate", counting)
        failures = validate.validate_nd(planted).failures
        assert {f.cell for f in failures} == {"3-cell planted"}
        assert seen == [(3, 8)]
        # Level 1 of the closure is a graph and the top is one column: only
        # level 2 is eliminated, the 12 squares of two cubes, of rank 10.
        assert pivots == {(3, 8): 10}

    def test_every_cell_of_a_complex_that_is_not_exact_takes_the_exact_path(
            self, monkeypatch):
        bad = plant_violation(cx.cubical([3, 3, 3]), random.Random(1))
        assert helpers.exactness_violation_oracle(bad) is not None
        seen = _track_exact_path(monkeypatch)
        got = [(f.condition, f.cell, f.detail) for f in cx.validate_nd(bad).failures]
        assert got and got == helpers.validate_nd_oracle(bad)
        assert seen == [(k, i) for k in range(1, 4) for i in range(bad.n_cells(k))]
