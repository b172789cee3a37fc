"""Core data model: boundary matrices, cell complexes, and chains.

A cell complex of dimension n is stored as ordered per-dimension label
lists together with signed sparse boundary matrices B_1..B_n.  Entries
of B_k live in {-1, +1}: column j lists the (k-1)-cells bounding the
j-th k-cell, with the sign recording whether reference orientations
agree.  Every layer reads the one layout of BoundaryMatrix: entries
sorted by (column, row) plus a column pointer, so reading one column
costs the length of that column.  Everything here is immutable;
operations return new values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadDimension,
    DimensionTooHigh,
    DimZeroHasNoBoundary,
    DuplicateEntry,
    DuplicateLabel,
    ExactnessViolated,
    IntegerOverflow,
    MissingEdge,
    NotACycleColumn,
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


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse signed incidence matrix with entries in {-1, +1}.

    Entries are stored as (row, col, sign) triplets sorted by (col, row),
    at most one per position: compressed sparse column order.  The
    column pointer ``indptr`` holds cols + 1 offsets, so column j is
    ``entries[indptr[j]:indptr[j + 1]]`` and reading it costs its length.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]
    indptr: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(sorted(self.entries, key=lambda e: (e[1], e[0])))
        counts = [0] * (self.cols + 1)
        pi = pj = -1
        for i, j, s in entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ShapeMismatch(
                    f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix"
                )
            if s not in (-1, 1):
                raise ValueError(f"boundary entry sign must be +-1, got {s}")
            if i == pi and j == pj:
                raise DuplicateEntry(f"duplicate entry at ({i}, {j})")
            pi, pj = i, j
            counts[j + 1] += 1
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "indptr", tuple(itertools.accumulate(counts)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def columns(self) -> list[list[tuple[int, int]]]:
        """Per-column lists of (row, sign)."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, j, s in self.entries:
            cols[j].append((i, s))
        return cols

    def column(self, j: int) -> list[tuple[int, int]]:
        if not 0 <= j < self.cols:
            raise ShapeMismatch(f"column {j} outside 0..{self.cols - 1}")
        return [(i, s) for i, _, s in self.entries[self.indptr[j] : self.indptr[j + 1]]]

    def row(self, i: int) -> list[tuple[int, int]]:
        if not 0 <= i < self.rows:
            raise ShapeMismatch(f"row {i} outside 0..{self.rows - 1}")
        return [(j, s) for ii, j, s in self.entries if ii == i]

    def to_dense(self) -> np.ndarray:
        rows, cols, signs, shape = _entry_arrays(self)
        dense = np.zeros(shape, dtype=np.int64)
        dense[rows, cols] = signs
        return dense

    def flip_columns(self, cols: Iterable[int]) -> "BoundaryMatrix":
        flip = set(cols)
        return BoundaryMatrix(
            self.rows,
            self.cols,
            tuple((i, j, -s if j in flip else s) for i, j, s in self.entries),
        )

    def flip_rows(self, rows: Iterable[int]) -> "BoundaryMatrix":
        flip = set(rows)
        return BoundaryMatrix(
            self.rows,
            self.cols,
            tuple((i, j, -s if i in flip else s) for i, j, s in self.entries),
        )

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "BoundaryMatrix":
        """Submatrix on the given row/col index lists (order preserved)."""
        rmap = _positions(rows, self.rows, "row")
        _positions(cols, self.cols, "column")
        entries, indptr = self.entries, self.indptr
        kept = tuple(
            (rmap[i], c, s)
            for c, j in enumerate(cols)
            for i, _, s in entries[indptr[j] : indptr[j + 1]]
            if i in rmap
        )
        return BoundaryMatrix(len(rows), len(cols), kept)


def _entry_arrays(b: BoundaryMatrix):
    """Rows, columns and signs (int64 arrays, in stored order) and the shape of B:
    the one place where entry tuples become arrays, for every numeric reader."""
    entries = b.entries
    rows, cols, signs = np.array(entries, dtype=np.int64).reshape(len(entries), 3).T
    return rows, cols, signs, b.shape


def _product(b, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """B x, or B^T x, for B as (rows, cols, values, shape): one np.bincount,
    which adds in entry order as a loop over the entries would."""
    rows, cols, values, (m, n) = b
    if transpose:
        return np.bincount(cols, weights=values * x[rows], minlength=n)
    return np.bincount(rows, weights=values * x[cols], minlength=m)


def _positions(indices: Sequence[int], n: int, what: str) -> dict[int, int]:
    """Position of each index in the list; all must be distinct and in 0..n-1."""
    pos = {i: k for k, i in enumerate(indices)}
    if len(pos) != len(indices) or (pos and (min(pos) < 0 or max(pos) >= n)):
        raise ShapeMismatch(f"{what} indices must be distinct, non-negative and below {n}")
    return pos


def integer_product(a: BoundaryMatrix, b: BoundaryMatrix) -> dict[tuple[int, int], int]:
    """Exact integer sparse product a @ b as a dict of nonzero entries."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    a_cols = [a.entries[p:q] for p, q in zip(a.indptr, a.indptr[1:])]
    out: dict[tuple[int, int], int] = {}
    for j, (p, q) in enumerate(zip(b.indptr, b.indptr[1:])):
        column: dict[int, int] = {}
        for i, _, s in b.entries[p:q]:
            for r, _, s2 in a_cols[i]:
                val = column.get(r, 0) + s * s2
                if abs(val) > INT_LIMIT:
                    raise IntegerOverflow("entry exceeded 64-bit range in exact product")
                column[r] = val
        out.update(((r, j), val) for r, val in column.items() if val)
    return out


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


def from_boundary_matrices(
    cells: Sequence[Sequence[str]],
    boundaries: Sequence[BoundaryMatrix],
) -> CellComplex:
    """Build a complex from explicit cell labels and boundary matrices.

    Checks shapes, per-dimension label uniqueness, and the chain-complex
    condition B_{k-1} @ B_k = 0 in exact integer arithmetic.  Full
    regularity validation lives in the validate module.
    """
    if not cells or not cells[0]:
        raise ShapeMismatch("a complex needs a nonempty set of 0-cells")
    cell_lists = tuple(tuple(str(label) for label in layer) for layer in cells)
    dim = len(cell_lists) - 1
    if len(boundaries) != dim:
        raise ShapeMismatch(
            f"{dim + 1} cell layers need {dim} boundary matrices, got {len(boundaries)}"
        )
    for k, layer in enumerate(cell_lists):
        if not layer:
            raise ShapeMismatch(f"cell layer {k} is empty")
        if len(set(layer)) != len(layer):
            dup = next(l for l in layer if layer.count(l) > 1)
            raise DuplicateLabel(f"duplicate {k}-cell label {dup!r}")
    for k, b in enumerate(boundaries, start=1):
        want = (len(cell_lists[k - 1]), len(cell_lists[k]))
        if b.shape != want:
            raise ShapeMismatch(f"B_{k} has shape {b.shape}, expected {want}")
    for k in range(2, dim + 1):
        product = integer_product(boundaries[k - 2], boundaries[k - 1])
        if product:
            (row, col), value = min(product.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            raise ExactnessViolated(k, row, col, value)
    return CellComplex(dim, cell_lists, tuple(boundaries))


def _rotate_min_first(seq: Sequence[int]) -> tuple[int, ...]:
    pos = seq.index(min(seq))
    return tuple(seq[pos:]) + tuple(seq[:pos])


def from_tuples(
    vertices: Sequence,
    edges: Sequence[Sequence] = (),
    polygons: Sequence[Sequence] = (),
) -> CellComplex:
    """Build a simple complex from tuple notation.

    Edges are ordered (tail, head) vertex pairs; B_1 gets -1 at the tail
    and +1 at the head.  Each polygon is a cyclic vertex tuple tracing a
    closed walk over existing edges; B_2 entries are +1 where the walk
    follows an edge's reference orientation and -1 where it opposes it.
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

    # A polygon pair may match an edge forwards or backwards; the first
    # match in construction order wins (unambiguous on simple complexes).
    edge_index: dict[tuple[int, int], tuple[int, int]] = {}
    edge_labels: list[str] = []
    b1_entries: list[tuple[int, int, int]] = []
    for j, pair in enumerate(edges):
        tail, head = pair
        t, h = vertex_id(tail), vertex_id(head)
        if t == h:
            raise SelfLoopEdge(f"edge ({tail}, {head}) is a self-loop")
        edge_index.setdefault((t, h), (j, 1))
        edge_index.setdefault((h, t), (j, -1))
        edge_labels.append(f"{vlabels[t]}-{vlabels[h]}")
        b1_entries.append((t, j, -1))
        b1_entries.append((h, j, 1))

    poly_labels: list[str] = []
    b2_entries: list[tuple[int, int, int]] = []
    for col, polygon in enumerate(polygons):
        ids = [vertex_id(v) for v in polygon]
        if len(ids) < 3:
            raise PolygonTooShort(f"polygon {tuple(polygon)} has fewer than 3 vertices")
        if len(set(ids)) != len(ids):
            raise RepeatedVertexInPolygon(f"polygon {tuple(polygon)} repeats a vertex")
        for a, b in zip(ids, ids[1:] + ids[:1]):
            if (a, b) not in edge_index:
                raise MissingEdge(polygon, (vlabels[a], vlabels[b]))
            j, sign = edge_index[(a, b)]
            b2_entries.append((j, col, sign))
        canonical = _rotate_min_first(ids)
        poly_labels.append("-".join(vlabels[i] for i in canonical))

    cells: list[Sequence[str]] = [vlabels]
    mats: list[BoundaryMatrix] = []
    if edge_labels or poly_labels:
        cells.append(edge_labels)
        mats.append(BoundaryMatrix(len(vlabels), len(edge_labels), tuple(b1_entries)))
    if poly_labels:
        cells.append(poly_labels)
        mats.append(BoundaryMatrix(len(edge_labels), len(poly_labels), tuple(b2_entries)))
    return from_boundary_matrices(cells, mats)


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


def _edge_endpoints(b1: BoundaryMatrix, j: int) -> tuple[int, int]:
    """(tail, head) of edge j; requires a valid dimension-1 column."""
    column = b1.column(j)
    if len(column) != 2 or column[0][1] == column[1][1]:
        raise NotACycleColumn(f"edge column {j} is not a (tail, head) incidence")
    (a, sign), (b, _) = column
    return (a, b) if sign == -1 else (b, a)


def oriented_cycle(
    b1: BoundaryMatrix, entries: Sequence[tuple[int, int]]
) -> tuple[list[int], str | None]:
    """Trace a signed edge selection as one oriented simple cycle.

    ``entries`` holds (edge index, sign) pairs; sign -1 traverses the edge
    against its reference orientation.  Returns (vertex cycle, None) on
    success, or ([], reason) when the selection is empty, branches, is
    inconsistently oriented, or splits into several components.
    """
    if not entries:
        return [], "empty edge selection"
    succ: dict[int, int] = {}
    indeg: dict[int, int] = {}
    for j, s in entries:
        tail, head = _edge_endpoints(b1, j)
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


def _cycle_tuple(cc: CellComplex, col: int) -> list[int]:
    cycle, reason = oriented_cycle(cc.boundary(1), cc.boundary(2).column(col))
    if reason is not None:
        label = cc.cells[2][col]
        raise NotACycleColumn(f"2-cell {label!r}: {reason}")
    return cycle


def canonicalize_orientations(cc: CellComplex) -> CellComplex:
    """Flip cell orientations into the canonical form.

    Edges are made to run from lower to higher vertex index; each 2-cell
    cycle is oriented so that, starting from its minimal vertex, it moves
    toward the smaller of that vertex's two cycle neighbours.  A flipped
    k-cell negates its column of B_k and its row of B_{k+1}.
    """
    if cc.dim > 2:
        raise DimensionTooHigh("canonical orientation is defined up to dimension 2")
    if not is_simple(cc):
        raise NotSimple("canonical orientation requires a simple complex")
    if cc.dim == 0:
        return cc
    b1 = cc.boundary(1)
    pairs = [_edge_endpoints(b1, j) for j in range(b1.cols)]
    edge_flips = [j for j, (tail, head) in enumerate(pairs) if tail > head]
    new_b1 = b1.flip_columns(edge_flips)
    mats = [new_b1]
    if cc.dim == 2:
        b2 = cc.boundary(2).flip_rows(edge_flips)
        interim = CellComplex(2, cc.cells, (new_b1, b2))
        poly_flips = []
        for col in range(b2.cols):
            cycle = _cycle_tuple(interim, col)
            if len(cycle) >= 2 and cycle[1] > cycle[-1]:
                poly_flips.append(col)
        mats.append(b2.flip_columns(poly_flips))
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
    if cc.dim >= 1:
        b1 = cc.boundary(1)
        for j in range(b1.cols):
            tail, head = _edge_endpoints(b1, j)
            edges.append((vlabels[tail], vlabels[head]))
    if cc.dim == 2:
        for col in range(cc.n_cells(2)):
            cycle = _rotate_min_first(_cycle_tuple(cc, col))
            polygons.append(tuple(vlabels[i] for i in cycle))
    return vlabels, edges, polygons


def flip_cell(cc: CellComplex, cell: CellRef) -> CellComplex:
    """Flip one cell's reference orientation (column and coboundary row)."""
    if cell.dim < 1:
        raise BadDimension("0-cells have no orientation to flip")
    mats = list(cc.boundaries)
    mats[cell.dim - 1] = mats[cell.dim - 1].flip_columns([cell.index])
    if cell.dim < cc.dim:
        mats[cell.dim] = mats[cell.dim].flip_rows([cell.index])
    return CellComplex(cc.dim, cc.cells, tuple(mats))


def subcomplex(cc: CellComplex, keep: Sequence[Sequence[int]]) -> CellComplex:
    """Sub-complex on the given per-dimension index lists.

    ``keep`` may be shorter than dim+1; trailing dimensions are dropped.
    Index order within each dimension is preserved from the input lists.
    """
    layers = [list(idx) for idx in keep]
    while layers and not layers[-1]:
        layers.pop()
    if not layers or not layers[0]:
        raise ShapeMismatch("sub-complex needs at least one 0-cell")
    for k, layer in enumerate(layers):
        _positions(layer, cc.n_cells(k), f"{k}-cell")
    cells = tuple(
        tuple(cc.cells[k][i] for i in layer) for k, layer in enumerate(layers)
    )
    mats = tuple(
        cc.boundary(k).restrict(layers[k - 1], layers[k]) for k in range(1, len(layers))
    )
    return CellComplex(len(layers) - 1, cells, mats)


def closure_indices(cc: CellComplex, cell: CellRef) -> list[list[int]]:
    """Per-dimension indices of the smallest sub-complex containing a cell."""
    support: list[set[int]] = [set() for _ in range(cell.dim + 1)]
    support[cell.dim].add(cell.index)
    for k in range(cell.dim, 0, -1):
        b = cc.boundary(k)
        for j in support[k]:
            support[k - 1].update(i for i, _ in b.column(j))
    return [sorted(layer) for layer in support]
