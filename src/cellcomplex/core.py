"""Core data model: boundary matrices, cell complexes, and chains.

A cell complex of dimension n is stored as ordered per-dimension label
lists together with signed sparse boundary matrices B_1..B_n.  Entries
of B_k live in {-1, +1}: column j lists the (k-1)-cells bounding the
j-th k-cell, with the sign recording whether reference orientations
agree.  Every layer reads the one layout of BoundaryMatrix: read-only
CSC arrays (indptr, indices, signs), sorted and checked by numpy, so a
column costs its length.  Everything here is immutable; operations
return new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadDimension,
    DimensionTooHigh,
    DimZeroHasNoBoundary,
    DuplicateEntry,
    DuplicateLabel,
    ExactnessViolated,
    MissingEdge,
    NotACycleColumn,
    NotDownwardClosed,
    NotSimple,
    PolygonTooShort,
    RepeatedVertexInPolygon,
    SelfLoopEdge,
    ShapeMismatch,
    UnknownVertex,
)

# Exact integer arithmetic is declared overflowing beyond this bound.
# Boundary entries are +-1, so reaching it signals a bug, not data.
INT_LIMIT = 2**62


@dataclass(frozen=True, init=False, eq=False)
class BoundaryMatrix:
    """Sparse signed incidence matrix with entries in {-1, +1}, stored CSC.

    Three read-only int64 arrays hold it: column j has the increasing rows
    ``indices[indptr[j]:indptr[j + 1]]`` and their signs at the same
    positions of ``signs``.  The constructor takes (row, col, sign)
    triplets in any order, as a sequence or an (n, 3) array, and rejects
    the first entry in (col, row) order whose indices are not integers
    inside the shape, whose sign is not the integer +-1 or that repeats a
    position.  Equality is by value.
    """

    rows: int
    cols: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    def __init__(self, rows: int, cols: int, entries):
        self.__post_init__(rows, cols, entries)

    def __post_init__(self, rows: int, cols: int, entries) -> None:
        given = np.asarray(entries)
        given = given.reshape(0, 3) if given.size == 0 else given
        if given.ndim != 2 or given.shape[1] != 3:
            raise ValueError("boundary entries must be (row, col, sign) triplets")
        if given.dtype.kind not in "bi":  # floats, strings, unsigned, ints beyond int64
            _reject_entry(rows, cols, entries)
        given = given.astype(np.int64, copy=False)
        order = np.lexsort((given[:, 0], given[:, 1]))
        r, c, s = given[order].T.copy()
        bad = (r < 0) | (r >= rows) | (c < 0) | (c >= cols) | (np.abs(s) != 1)
        bad[1:] |= (r[1:] == r[:-1]) & (c[1:] == c[:-1])
        if bad.any():
            _reject_entry(rows, cols, entries)
        indptr = np.searchsorted(c, np.arange(cols + 1))
        indptr.flags.writeable = r.flags.writeable = s.flags.writeable = False
        vars(self).update(rows=int(rows), cols=int(cols), indptr=indptr, indices=r, signs=s)

    def _key(self) -> tuple:
        return self.shape, self.indptr.tobytes(), self.indices.tobytes(), self.signs.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundaryMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The (row, col, sign) triplets in (col, row) order, as Python ints."""
        return tuple(zip(*(array.tolist() for array in _entry_arrays(self)[:3])))

    def columns(self) -> list[list[tuple[int, int]]]:
        """Per-column lists of (row, sign)."""
        pairs = list(zip(self.indices.tolist(), self.signs.tolist()))
        ptr = self.indptr.tolist()
        return [pairs[p:q] for p, q in zip(ptr, ptr[1:])]

    def column(self, j: int) -> list[tuple[int, int]]:
        if not 0 <= j < self.cols:
            raise ShapeMismatch(f"column {j} outside 0..{self.cols - 1}")
        p, q = self.indptr[j : j + 2].tolist()
        return list(zip(self.indices[p:q].tolist(), self.signs[p:q].tolist()))

    def to_dense(self) -> np.ndarray:
        rows, cols, signs, shape = _entry_arrays(self)
        dense = np.zeros(shape, dtype=np.int64)
        dense[rows, cols] = signs
        return dense

    def flip_columns(self, cols: Iterable[int]) -> "BoundaryMatrix":
        return self._negated(1, cols)

    def flip_rows(self, rows: Iterable[int]) -> "BoundaryMatrix":
        return self._negated(0, rows)

    def _negated(self, axis: int, indices: Iterable[int]) -> "BoundaryMatrix":
        """The entries in the given rows (axis 0) or columns (axis 1) negated."""
        triplets = np.column_stack(_entry_arrays(self)[:3])
        triplets[np.isin(triplets[:, axis], list(indices)), 2] *= -1
        return BoundaryMatrix(self.rows, self.cols, triplets)

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "BoundaryMatrix":
        """Submatrix on the given row/col index lists (order preserved)."""
        position = np.full(self.rows, -1, dtype=np.int64)
        position[_indices(rows, self.rows, "row")] = np.arange(len(rows))
        at, new_col = _gather(self.indptr, _indices(cols, self.cols, "column"))
        new_row = position[self.indices[at]]
        kept = new_row >= 0
        triplets = np.column_stack((new_row[kept], new_col[kept], self.signs[at][kept]))
        return BoundaryMatrix(len(rows), len(cols), triplets)


def _reject_entry(rows: int, cols: int, triplets) -> None:
    """Raise for the first triplet in (col, row) order that is not an integer index
    inside the shape, has a sign other than the integer +-1 or repeats a position.
    Only a faulty or non-integer input reaches this one-at-a-time check."""
    last = None
    for i, j, s in sorted(triplets, key=lambda e: (e[1], e[0])):
        if not (isinstance(i, Integral) and isinstance(j, Integral)
                and 0 <= i < rows and 0 <= j < cols):
            raise ShapeMismatch(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
        if s not in (-1, 1) or not isinstance(s, Integral):
            raise ValueError(f"boundary entry sign must be +-1, got {s}")
        if (i, j) == last:
            raise DuplicateEntry(f"duplicate entry at ({i}, {j})")
        last = (i, j)


def _entry_arrays(b: BoundaryMatrix):
    """Rows, columns and signs (int64 arrays, in stored order) and the shape of B,
    for every numeric reader; the column index is derived from indptr."""
    return b.indices, np.repeat(np.arange(b.cols), np.diff(b.indptr)), b.signs, b.shape


def _gather(indptr: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of columns ``which``, in order, and their column's place in it."""
    starts = indptr[which]
    lengths = indptr[which + 1] - starts
    owner = np.repeat(np.arange(len(which)), lengths)
    return np.arange(owner.size) + (starts - np.cumsum(lengths) + lengths)[owner], owner


def _product(b, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """B x, or B^T x, for B as (rows, cols, values, shape): one np.bincount,
    which adds in entry order as a loop over the entries would."""
    rows, cols, values, (m, n) = b
    if transpose:
        return np.bincount(cols, weights=values * x[rows], minlength=n)
    return np.bincount(rows, weights=values * x[cols], minlength=m)


def _indices(indices: Sequence[int], n: int, what: str) -> np.ndarray:
    """The index list as an int64 array; all must be distinct and in 0..n-1."""
    array = np.asarray(indices, dtype=np.int64).reshape(-1)
    if array.size and (array.min() < 0 or array.max() >= n or len(set(indices)) < array.size):
        raise ShapeMismatch(f"{what} indices must be distinct, non-negative and below {n}")
    return array


def integer_product(a: BoundaryMatrix, b: BoundaryMatrix) -> dict[tuple[int, int], int]:
    """Exact integer product a @ b as a dict of its nonzero entries in (col, row) order:
    each entry of b expands into its row's column of a, summed per position.  A sum of
    at most nnz(a) terms of +-1 cannot come near INT_LIMIT, so none is tested."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    at, owner = _gather(a.indptr, b.indices)
    rows, cols = a.indices[at], _entry_arrays(b)[1][owner]
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(new)
    sums = np.add.reduceat((a.signs[at] * b.signs[owner])[order], starts) if rows.size else rows
    keep = starts[sums != 0]
    return dict(zip(zip(rows[keep].tolist(), cols[keep].tolist()), sums[sums != 0].tolist()))


@dataclass(frozen=True, eq=False)
class ChainVector:
    """Real-valued signal on the k-cells of a fixed complex.

    The value array is copied and frozen; chains are safe to share.
    """

    dim: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CellRef:
    """Addresses one cell: dimension, position in the cell order, orientation."""

    dim: int
    index: int
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +-1")


@dataclass(frozen=True)
class CellComplex:
    """Immutable cell complex: per-dimension cell labels plus B_1..B_n."""

    dim: int
    cells: tuple[tuple[str, ...], ...]
    boundaries: tuple[BoundaryMatrix, ...]

    def n_cells(self, k: int) -> int:
        return len(self.cells[k]) if 0 <= k <= self.dim else 0

    def labels(self, k: int) -> tuple[str, ...]:
        return self.cells[k]

    def boundary(self, k: int) -> BoundaryMatrix:
        """B_k for 1 <= k <= dim."""
        if not 1 <= k <= self.dim:
            raise BadDimension(f"no boundary matrix B_{k} on a {self.dim}-complex")
        return self.boundaries[k - 1]

    def index_of(self, k: int, label: str) -> int:
        if not 0 <= k <= self.dim:
            raise BadDimension(f"no {k}-cells on a {self.dim}-complex")
        try:
            return self.cells[k].index(label)
        except ValueError:
            raise UnknownVertex(f"no {k}-cell labelled {label!r}") from None

    def ref(self, k: int, label: str, orientation: int = 1) -> CellRef:
        return CellRef(k, self.index_of(k, label), orientation)


def _cell_layers(cells: Sequence[Sequence[str]]) -> tuple[tuple[str, ...], ...]:
    """The label layers as string tuples; each must be nonempty and unique."""
    if not cells or not cells[0]:
        raise ShapeMismatch("a complex needs a nonempty set of 0-cells")
    cell_lists = tuple(tuple(str(label) for label in layer) for layer in cells)
    for k, layer in enumerate(cell_lists):
        if not layer:
            raise ShapeMismatch(f"cell layer {k} is empty")
        if len(set(layer)) != len(layer):
            dup = next(l for l in layer if layer.count(l) > 1)
            raise DuplicateLabel(f"duplicate {k}-cell label {dup!r}")
    return cell_lists


def from_boundary_matrices(
    cells: Sequence[Sequence[str]],
    boundaries: Sequence[BoundaryMatrix],
) -> CellComplex:
    """Build a complex from explicit cell labels and boundary matrices.

    Checks shapes, per-dimension label uniqueness, and the chain-complex
    condition B_{k-1} @ B_k = 0 in exact integer arithmetic.  Full
    regularity validation lives in the validate module.
    """
    cell_lists = _cell_layers(cells)
    dim = len(cell_lists) - 1
    if len(boundaries) != dim:
        raise ShapeMismatch(
            f"{dim + 1} cell layers need {dim} boundary matrices, got {len(boundaries)}"
        )
    for k, b in enumerate(boundaries, start=1):
        want = (len(cell_lists[k - 1]), len(cell_lists[k]))
        if b.shape != want:
            raise ShapeMismatch(f"B_{k} has shape {b.shape}, expected {want}")
    for k in range(2, dim + 1):
        product = integer_product(boundaries[k - 2], boundaries[k - 1])
        if product:
            (row, col), value = next(iter(product.items()))
            raise ExactnessViolated(k, row, col, value)
    return CellComplex(dim, cell_lists, tuple(boundaries))


def _rotate_min_first(seq: Sequence[int]) -> tuple[int, ...]:
    pos = seq.index(min(seq))
    return tuple(seq[pos:]) + tuple(seq[:pos])


def _edge_lookup(pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each ordered vertex pair (a, b) to (edge, +1) when the edge runs a -> b
    and (edge, -1) when it runs b -> a, for edges given as (tail, head) pairs;
    the first edge in order wins where several join the same two vertices."""
    lookup: dict[tuple[int, int], tuple[int, int]] = {}
    for j, (tail, head) in enumerate(pairs):
        lookup.setdefault((tail, head), (j, 1))
        lookup.setdefault((head, tail), (j, -1))
    return lookup


def _column(lookup: Mapping, steps: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The B_2 column of a closed walk given as (a, b) steps: the signed edges of
    ``lookup`` summed per edge, so an edge walked both ways cancels, sorted by
    edge.  A step that joins no edge raises KeyError with the step."""
    net: dict[int, int] = {}
    for step in steps:
        j, sign = lookup[step]
        net[j] = net.get(j, 0) + sign
    return [(j, sign) for j, sign in sorted(net.items()) if sign]


def from_tuples(
    vertices: Sequence,
    edges: Sequence[Sequence] = (),
    polygons: Sequence[Sequence] = (),
) -> CellComplex:
    """Build a simple complex from tuple notation.

    Edges are ordered (tail, head) vertex pairs, labelled ``tail-head``;
    B_1 gets -1 at the tail and +1 at the head.  Each polygon is a cyclic
    vertex tuple tracing a closed walk over existing edges, labelled from
    its minimal vertex; its B_2 column is the ``_column`` of that walk.
    """
    vlabels = [str(v) for v in vertices]
    if len(set(vlabels)) != len(vlabels):
        dup = next(l for l in vlabels if vlabels.count(l) > 1)
        raise DuplicateLabel(f"duplicate vertex {dup!r}")
    vindex = {label: i for i, label in enumerate(vlabels)}

    def vertex_id(v) -> int:
        label = str(v)
        if label not in vindex:
            raise UnknownVertex(f"unknown vertex {label!r}")
        return vindex[label]

    pairs: list[tuple[int, int]] = []
    for tail, head in edges:
        pairs.append((vertex_id(tail), vertex_id(head)))
        if pairs[-1][0] == pairs[-1][1]:
            raise SelfLoopEdge(f"edge ({tail}, {head}) is a self-loop")

    lookup = _edge_lookup(pairs)
    poly_labels: list[str] = []
    columns: list[list[tuple[int, int]]] = []
    for polygon in polygons:
        ids = [vertex_id(v) for v in polygon]
        if len(ids) < 3:
            raise PolygonTooShort(f"polygon {tuple(polygon)} has fewer than 3 vertices")
        if len(set(ids)) != len(ids):
            raise RepeatedVertexInPolygon(f"polygon {tuple(polygon)} repeats a vertex")
        try:
            column = _column(lookup, zip(ids, ids[1:] + ids[:1]))
        except KeyError as missing:
            a, b = missing.args[0]
            raise MissingEdge(polygon, (vlabels[a], vlabels[b])) from None
        columns.append(column)
        poly_labels.append("-".join(vlabels[i] for i in _rotate_min_first(ids)))
    return _with_2cells(_graph(vlabels, pairs), poly_labels, columns)


def _graph(vlabels: Sequence[str], pairs: Sequence[tuple[int, int]]) -> CellComplex:
    """The complex of a graph: its vertices, and one edge per (tail, head) vertex
    index pair, labelled ``tail-head``, with -1 at the tail and +1 at the head
    of its B_1 column.  Without edges it is a 0-complex."""
    if not len(pairs):
        return from_boundary_matrices([vlabels], [])
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    m = len(ends)
    triplets = np.empty((m, 2, 3), dtype=np.int64)  # (tail, j, -1) and (head, j, +1)
    triplets[:, :, 0] = ends
    triplets[:, :, 1] = np.arange(m)[:, None]
    triplets[:, :, 2] = (-1, 1)
    edge_labels = [f"{vlabels[t]}-{vlabels[h]}" for t, h in ends.tolist()]
    return from_boundary_matrices(
        [vlabels, edge_labels], [BoundaryMatrix(len(vlabels), m, triplets.reshape(-1, 3))]
    )


def _with_2cells(
    graph: CellComplex, labels: Sequence[str], columns: Sequence[Sequence[tuple[int, int]]]
) -> CellComplex:
    """A 1-complex with one 2-cell per label attached, its B_2 column the
    matching list of (edge, sign) pairs.  The pairs are read as one flat
    int64 array, as numpy reads nested lists slowly.  Without labels it
    is the graph unchanged."""
    if not labels:
        return graph
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(columns)), np.int64)
    edges, signs = pairs.reshape(-1, 2).T
    cols = np.repeat(np.arange(len(columns)), [len(column) for column in columns])
    b1 = graph.boundary(1)
    b2 = BoundaryMatrix(b1.cols, len(labels), np.column_stack((edges, cols, signs)))
    return from_boundary_matrices([*graph.cells, labels], [b1, b2])


def boundary_of_cell(cc: CellComplex, cell: CellRef) -> list[tuple[CellRef, int]]:
    """Signed (k-1)-cells bounding the given k-cell."""
    if cell.dim < 1:
        raise DimZeroHasNoBoundary("0-cells have empty boundary")
    b = cc.boundary(cell.dim)
    return [
        (CellRef(cell.dim - 1, i), s * cell.orientation) for i, s in b.column(cell.index)
    ]


def apply_boundary(cc: CellComplex, chain: ChainVector) -> ChainVector:
    """B_k applied to a k-chain, yielding a (k-1)-chain."""
    if chain.dim < 1:
        raise DimZeroHasNoBoundary("0-chains have no boundary")
    b = cc.boundary(chain.dim)
    if len(chain.values) != b.cols:
        raise ShapeMismatch(f"chain has {len(chain.values)} values, B has {b.cols} columns")
    return ChainVector(chain.dim - 1, _product(_entry_arrays(b), chain.values))


def chain_on(cc: CellComplex, k: int, coeffs: Mapping[str, float]) -> ChainVector:
    """Chain with the given coefficients on labelled k-cells, 0 elsewhere."""
    if not 0 <= k <= cc.dim:
        raise BadDimension(f"no {k}-cells on a {cc.dim}-complex")
    index = {label: i for i, label in enumerate(cc.cells[k])}
    values = np.zeros(len(index))
    for label, value in coeffs.items():
        if label not in index:
            raise UnknownVertex(f"no {k}-cell labelled {label!r}")
        values[index[label]] = value
    return ChainVector(k, values)


def euler_characteristic(cc: CellComplex) -> int:
    return sum((-1) ** k * cc.n_cells(k) for k in range(cc.dim + 1))


def _signed_canonical(column: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # Normalise a column up to global sign: first stored sign becomes +1.
    if not column:
        return ()
    flip = column[0][1]
    return tuple((i, s * flip) for i, s in column)


def is_simple(cc: CellComplex) -> bool:
    """True iff no two k-cells (k >= 1) share a boundary up to sign."""
    for k in range(1, cc.dim + 1):
        seen = set()
        for column in cc.boundary(k).columns():
            key = _signed_canonical(column)
            if key in seen:
                return False
            seen.add(key)
    return True


def _edge_endpoints(b1: BoundaryMatrix) -> list[tuple[int, int] | None]:
    """(tail, head) of every edge of B_1, in one array pass; None for a column that
    is not one -1 and one +1, which _tail_head rejects."""
    rows, cols, signs, _ = _entry_arrays(b1)
    ends = np.zeros((2, b1.cols), dtype=np.int64)
    ends[(signs + 1) // 2, cols] = rows  # tails, where -1, then heads, where +1
    good = (np.bincount(cols, minlength=b1.cols) == 2) & (np.bincount(cols, signs, b1.cols) == 0)
    pairs: list = list(zip(*ends.tolist()))
    for j in np.flatnonzero(~good).tolist():
        pairs[j] = None
    return pairs


def _forest_merges(n: int, pairs: Iterable[Sequence[int]]) -> list[tuple[int, int]]:
    """Spanning forest of the edges (a, b) on vertices 0..n-1, in order, by union-find
    with path halving; the smaller root survives each merge (the elder rule).  Returns
    (younger root, position) for each edge that joins two trees: as (row, column),
    the pivots of the edges' incidence matrix."""
    parent = list(range(n))
    merges = []
    for position, (a, b) in enumerate(pairs):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            merges.append((b, position))
    return merges


def _tail_head(ends: Sequence[tuple[int, int] | None], j: int) -> tuple[int, int]:
    """Edge j's (tail, head) from _edge_endpoints; NotACycleColumn if it has none."""
    if ends[j] is None:
        raise NotACycleColumn(f"edge column {j} is not a (tail, head) incidence")
    return ends[j]


def oriented_cycle(
    ends: Sequence[tuple[int, int] | None], entries: Sequence[tuple[int, int]]
) -> tuple[list[int], str | None]:
    """Trace a signed edge selection as one oriented simple cycle.

    ``ends`` holds each edge's (tail, head) from ``_edge_endpoints`` and
    ``entries`` the (edge index, sign) pairs; sign -1 traverses the edge
    against its reference orientation.  Returns (vertex cycle, None) on
    success, or ([], reason) when the selection is empty, branches, is
    inconsistently oriented, or splits into several components.
    """
    if not entries:
        return [], "empty edge selection"
    succ: dict[int, int] = {}
    indeg: dict[int, int] = {}
    for j, s in entries:
        tail, head = _tail_head(ends, j)
        if s == -1:
            tail, head = head, tail
        if tail in succ:
            return [], f"two outgoing edges at vertex {tail} (branch or bad orientation)"
        succ[tail] = head
        indeg[head] = indeg.get(head, 0) + 1
    for vertex, count in indeg.items():
        if count > 1 or vertex not in succ:
            return [], f"inconsistent orientation at vertex {vertex}"
    if set(indeg) != set(succ):
        return [], "walk does not close"
    start = min(succ)
    cycle = [start]
    current = succ[start]
    while current != start:
        cycle.append(current)
        current = succ[current]
    if len(cycle) != len(entries):
        return [], "edge selection splits into several cycles (disconnected)"
    return cycle, None


def _canonical_cycle(cycle: Sequence[int]) -> tuple[tuple[int, ...], bool]:
    """The vertex cycle in canonical orientation, which starts at its minimal vertex
    and moves toward the smaller of that vertex's two neighbours, and whether that
    orientation reverses the given one."""
    rotated = _rotate_min_first(cycle)
    if len(rotated) >= 3 and rotated[1] > rotated[-1]:
        return (rotated[0],) + rotated[:0:-1], True
    return rotated, False


def _cycle_tuple(cc: CellComplex, ends: Sequence[tuple[int, int]], col: int) -> list[int]:
    cycle, reason = oriented_cycle(ends, cc.boundary(2).column(col))
    if reason is not None:
        label = cc.cells[2][col]
        raise NotACycleColumn(f"2-cell {label!r}: {reason}")
    return cycle


def canonicalize_orientations(cc: CellComplex) -> CellComplex:
    """Flip cell orientations into the canonical form.

    Edges are made to run from lower to higher vertex index; each 2-cell
    cycle takes the orientation of ``_canonical_cycle``.  A flipped k-cell
    negates its column of B_k and its row of B_{k+1}.
    """
    if cc.dim > 2:
        raise DimensionTooHigh("canonical orientation is defined up to dimension 2")
    if not is_simple(cc):
        raise NotSimple("canonical orientation requires a simple complex")
    if cc.dim == 0:
        return cc
    ends = _edge_endpoints(cc.boundary(1))
    pairs = [_tail_head(ends, j) for j in range(len(ends))]
    edge_flips = [j for j, (tail, head) in enumerate(pairs) if tail > head]
    mats = [cc.boundary(1).flip_columns(edge_flips)]
    if cc.dim == 2:
        # A flipped edge with its B_2 row negated is walked the same way.
        cycles = [_cycle_tuple(cc, pairs, col) for col in range(cc.n_cells(2))]
        poly_flips = [col for col, c in enumerate(cycles) if _canonical_cycle(c)[1]]
        mats.append(cc.boundary(2).flip_rows(edge_flips).flip_columns(poly_flips))
    return CellComplex(cc.dim, cc.cells, tuple(mats))


def to_tuples(
    cc: CellComplex,
) -> tuple[list[str], list[tuple[str, str]], list[tuple[str, ...]]]:
    """Read a simple complex back into tuple notation.

    Inverse of :func:`from_tuples` for simple complexes whose 2-cell
    columns trace simple cycles; polygon tuples are rotated to start at
    their minimal vertex (orientation preserved).
    """
    if cc.dim > 2:
        raise DimensionTooHigh("tuple notation covers dimension at most 2")
    if not is_simple(cc):
        raise NotSimple("tuple notation requires a simple complex")
    vlabels = list(cc.cells[0])
    edges: list[tuple[str, str]] = []
    polygons: list[tuple[str, ...]] = []
    ends = _edge_endpoints(cc.boundary(1)) if cc.dim >= 1 else []
    for j in range(len(ends)):
        tail, head = _tail_head(ends, j)
        edges.append((vlabels[tail], vlabels[head]))
    if cc.dim == 2:
        for col in range(cc.n_cells(2)):
            cycle = _rotate_min_first(_cycle_tuple(cc, ends, col))
            polygons.append(tuple(vlabels[i] for i in cycle))
    return vlabels, edges, polygons


def flip_cell(cc: CellComplex, cell: CellRef) -> CellComplex:
    """Flip one cell's reference orientation (column and coboundary row)."""
    if cell.dim < 1:
        raise BadDimension("0-cells have no orientation to flip")
    boundary_of_cell(cc, cell)  # BadDimension or ShapeMismatch for a cell cc lacks
    mats = list(cc.boundaries)
    mats[cell.dim - 1] = mats[cell.dim - 1].flip_columns([cell.index])
    if cell.dim < cc.dim:
        mats[cell.dim] = mats[cell.dim].flip_rows([cell.index])
    return CellComplex(cc.dim, cc.cells, tuple(mats))


def subcomplex(cc: CellComplex, keep: Sequence[Sequence[int]]) -> CellComplex:
    """Sub-complex on the given per-dimension index lists.

    ``keep`` may be shorter than dim+1; trailing dimensions are dropped.
    Index order within each dimension is preserved from the input lists.
    Every face of a kept cell must be kept: NotDownwardClosed names the
    first kept cell, lowest dimension first, and its first dropped face.
    """
    layers = [list(idx) for idx in keep]
    while layers and not layers[-1]:
        layers.pop()
    if not layers or not layers[0]:
        raise ShapeMismatch("sub-complex needs at least one 0-cell")
    for k, layer in enumerate(layers):
        _indices(layer, cc.n_cells(k), f"{k}-cell")
    for k in range(1, len(layers)):
        b = cc.boundary(k)
        at, owner = _gather(b.indptr, np.asarray(layers[k], dtype=np.int64))
        dropped = np.flatnonzero(~np.isin(b.indices[at], layers[k - 1]))
        if dropped.size:
            cell, face = layers[k][owner[dropped[0]]], b.indices[at[dropped[0]]]
            raise NotDownwardClosed(
                f"{k}-cell {cc.cells[k][cell]!r} kept without its face {cc.cells[k - 1][face]!r}"
            )
    cells = tuple(
        tuple(cc.cells[k][i] for i in layer) for k, layer in enumerate(layers)
    )
    mats = tuple(
        cc.boundary(k).restrict(layers[k - 1], layers[k]) for k in range(1, len(layers))
    )
    return CellComplex(len(layers) - 1, cells, mats)


def _closure(column, k: int, index: int) -> list[list[int]]:
    """closure_indices of k-cell ``index``, reading column j of B_l as column(l, j)."""
    support: list[set[int]] = [set() for _ in range(k + 1)]
    support[k].add(index)
    for l in range(k, 0, -1):
        for j in support[l]:
            support[l - 1].update(i for i, _ in column(l, j))
    return [sorted(layer) for layer in support]


def closure_indices(cc: CellComplex, cell: CellRef) -> list[list[int]]:
    """Per-dimension indices of the smallest sub-complex containing a cell."""
    return _closure(lambda l, j: cc.boundary(l).column(j), cell.dim, cell.index)
