"""Constructing complexes from higher-level inputs.

Simplicial complexes and Vietoris-Rips point clouds, products of
complexes (and cubical grids as iterated products of path graphs), and
three ways of attaching 2-cells to a graph: inner windows of a plane
drawing, fundamental cycles of a BFS spanning tree, and chordless
cycles.  Each lifting takes the 1-complex itself (and the drawing's
coordinates, a BFS root or a cycle cap) and attaches its 2-cells to it,
keeping its vertex and edge layers and B_1; a lifting that finds no
cycle returns the 1-complex unchanged.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral
from typing import Sequence

import numpy as np

from .core import (
    BoundaryMatrix,
    CellComplex,
    _column,
    _columns_matrix,
    _edge_lookup,
    _edges,
    _forest_merges,
    _unchecked_matrix,
    from_boundary_matrices,
    oriented_cycle,
)
from .errors import (
    BadDimension,
    CapExceeded,
    Disconnected,
    DuplicateLabel,
    EdgesCross,
    NotACycleColumn,
    NotDownwardClosed,
    NotSimple,
    ShapeMismatch,
    TooManySimplices,
    UncoveredVertex,
    UnknownVertex,
)

DEFAULT_SIMPLEX_CAP = 10**6
DEFAULT_CYCLE_CAP = 10**5
# Elements per temporary array in blocked numpy passes: the Rips
# candidate masks and the pairwise checks of PlanarEmbedding.
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite point cloud in R^d."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("point cloud must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def distances(self) -> np.ndarray:
        """Euclidean distance matrix, one squared coordinate difference at
        a time; summed in numpy's pairwise order, so it is bit-identical
        to np.sqrt(np.sum(diff**2, axis=-1)) over the broadcast diff.

        That holds while every nonzero square and their sum are normal
        floats, which _squares_in_range tests from each coordinate's
        extent and smallest gap.  Otherwise _scaled_distances scales each
        pair's differences by a power of two, which in range gives the
        same bits and out of range keeps the distance's own range.  It
        costs about twice the arithmetic, so in-range clouds skip it.
        """
        points = self.points
        if _squares_in_range(points):
            return np.sqrt(_pairwise_sum([(c[:, None] - c[None, :]) ** 2 for c in points.T]))
        return _scaled_distances(points)


def _squares_in_range(points: np.ndarray) -> bool:
    """Whether no square of a coordinate difference, nor their sum, can leave
    the normal float range.  A nonzero difference is at least its
    coordinate's smallest nonzero gap between sorted values, so gaps of at
    least 2^-511 give squares of at least 2^-1022; and none exceeds its
    coordinate's extent, so extents whose squares sum below 2^1020 keep
    every sum finite."""
    ordered = np.sort(points, axis=0)
    with np.errstate(over="ignore"):
        gaps = np.diff(ordered, axis=0)
        extents = ordered[-1] - ordered[0]
        spread = np.sum(extents * extents)
    return bool(spread < 2.0**1020 and ((gaps == 0) | (gaps >= 2.0**-511)).all())


def _scaled_distances(points: np.ndarray) -> np.ndarray:
    """The distance matrix with each pair's coordinate differences divided by
    2^e, e from np.frexp of the largest, so they lie below 1 in magnitude and
    the largest at least 1/2; the sum of squares in distances' order is then
    in range, and its square root is multiplied back by 2^e (inf past the
    float range).  A power of two scales exactly, so a pair whose unscaled
    squares are normal gets the same bits as unscaled.  A difference that
    overflows is taken from the halved coordinates, which are exact there,
    with its exponent raised by one."""
    mantissas, exponents = [], []
    for c in points.T:
        with np.errstate(over="ignore"):
            diff = c[:, None] - c[None, :]
        over = np.isinf(diff)
        diff[over] = (c[:, None] / 2 - c[None, :] / 2)[over]
        mantissa, exponent = np.frexp(diff)
        exponent += over
        exponent[mantissa == 0] = -1100  # below every float's, so a zero never sets e
        mantissas.append(mantissa)
        exponents.append(exponent)
    top = np.maximum.reduce(exponents)
    squares = [np.ldexp(m, e - top) ** 2 for m, e in zip(mantissas, exponents)]
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(_pairwise_sum(squares)), top)


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of terms in the order numpy's pairwise summation
    adds the elements of a contiguous axis: in turn below 8 terms, eight
    running sums combined as a tree up to 128 terms, halves above."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n < 8:
        return sum(terms[1:], terms[0])
    full = n - n % 8
    r = [sum(terms[j + 8 : full : 8], terms[j]) for j in range(8)]
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return sum(terms[full:], tree)


# ---------------------------------------------------------------------------
# Simplicial complexes and Vietoris-Rips
# ---------------------------------------------------------------------------


def from_simplicial(
    vertices: Sequence,
    simplices: Sequence,
    auto_close: bool = False,
) -> CellComplex:
    """Complex from a simplex set; k-simplices become k-cells.

    The simplex set must be downward closed and cover every vertex
    (``auto_close=True`` adds missing faces instead of failing).  Cells
    of each dimension are ordered lexicographically by sorted vertex
    tuple; the face omitting position i gets boundary sign (-1)^i.
    """
    vlabels = [str(v) for v in vertices]
    if len(set(vlabels)) != len(vlabels):
        raise DuplicateLabel("duplicate vertex label")
    vindex = {label: i for i, label in enumerate(vlabels)}
    simplex_set: set[tuple[int, ...]] = set()
    for simplex in simplices:
        ids = set()
        for v in simplex:
            label = str(v)
            if label not in vindex:
                raise UnknownVertex(f"simplex {tuple(simplex)} uses unknown vertex {label!r}")
            ids.add(vindex[label])
        if not ids:
            raise ValueError("empty simplex")
        simplex_set.add(tuple(sorted(ids)))
    if auto_close:
        closure = set()
        for simplex in simplex_set:
            for size in range(1, len(simplex) + 1):
                closure.update(itertools.combinations(simplex, size))
        simplex_set = closure
    else:
        for simplex in simplex_set:
            if len(simplex) == 1:
                continue
            for face in itertools.combinations(simplex, len(simplex) - 1):
                if face not in simplex_set:
                    raise NotDownwardClosed(
                        f"simplex {simplex} present without its face {face}"
                    )
    covered = {i for simplex in simplex_set for i in simplex}
    missing = sorted(set(range(len(vlabels))) - covered)
    if missing:
        raise UncoveredVertex(f"vertex {vlabels[missing[0]]!r} lies in no simplex")

    dim = max((len(s) for s in simplex_set), default=1) - 1  # no vertex: _cell_layers raises
    layers = [
        np.array(sorted(s for s in simplex_set if len(s) == k + 1), dtype=np.int64)
        for k in range(dim + 1)
    ]
    return _complex_of_layers(vlabels, layers)


def _complex_of_layers(vlabels: Sequence[str], layers: Sequence[np.ndarray]) -> CellComplex:
    """Complex of simplex layers that are already checked and sorted (see
    _simplex_boundaries); a simplex is labelled by its vertices' labels."""
    table = np.array(vlabels, dtype=object)
    cells = [list(vlabels)] + [list(map("-".join, table[layer].tolist())) for layer in layers[1:]]
    return from_boundary_matrices(cells, _simplex_boundaries(layers))


def _simplex_boundaries(layers: Sequence[np.ndarray]) -> list[BoundaryMatrix]:
    """B_1..B_n of simplex layers that are already checked and sorted.

    Layer k is an int array whose rows are the k-simplices' increasing
    vertex tuples in lexicographic order, with no row twice; layer 0 is
    every vertex in order, so a vertex's row is its id.  The face
    omitting position i gets boundary sign (-1)^i.  Each face of a
    k-simplex, k >= 2, is found by one binary search of the layer
    below on the int64 keys of _row_keys, and the key found is compared
    with the face's: a face missing from that layer becomes row -1,
    which the BoundaryMatrix constructor rejects with ShapeMismatch
    (IndexError if that layer is empty).  An edge's vertex outside
    layer 0 is a row outside B_1, rejected alike.  The faces are searched
    facet by facet, where the keys come nearly sorted and the search runs
    fastest, and handed to the constructor column by column, in (col, row)
    order, so its sort finds them sorted: a column lists its facets from
    the one omitting the last vertex to the one omitting the first, whose
    rows increase in the lexicographic layer below.
    """
    n = len(layers[0]) if layers else 0
    mats = []
    for k in range(1, len(layers)):
        m = len(layers[k])
        faces = _facets(layers[k])
        if k == 1:
            rows = faces[:, 0]
        else:
            below, wanted = _row_keys(layers[k - 1], n), _row_keys(faces, n)
            rows = np.searchsorted(below, wanted)
            rows[below.take(rows, mode="clip") != wanted] = -1
        rows = rows.reshape(k + 1, m).T.ravel()  # from facet by facet to (col, row) order
        cols = np.repeat(np.arange(m), k + 1)
        signs = np.tile([(-1) ** (k - j) for j in range(k + 1)], m)
        mats.append(BoundaryMatrix(len(layers[k - 1]), m, np.column_stack((rows, cols, signs))))
    return mats


def _facets(simplices: np.ndarray) -> np.ndarray:
    """The facets of rows of k-simplices, facet j omitting vertex k - j
    (itertools.combinations order); facet j of row r is row j * m + r."""
    m, size = simplices.shape
    keep = [[c for c in range(size) if c != size - 1 - j] for j in range(size)]
    return simplices[:, keep].transpose(1, 0, 2).reshape(size * m, size - 1)


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row of t increasing vertex ids below n, ordered as the rows
    are lexicographically.

    While C(n, t) < 2^63 the key is the int64 -sum_i C(n - 1 - v_i, t - i)
    (Bauer 2021, Ripser: the combinatorial number system, Knuth TAOCP
    7.2.1.3).  Column j of the table is C(x, j) for x below n, the running
    sum of column j - 1; its entries past the ones an increasing row
    reaches may wrap, and none is read.  Past the bound, a vertex count
    that sparse simplicial input can reach, the key is the row's big-endian
    int64 bytes, compared as bytes.
    """
    t = rows.shape[1]
    if math.comb(n, t) >= 2**63:
        return np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * t}").ravel()
    key = np.zeros(len(rows), dtype=np.int64)
    comb = np.arange(n, dtype=np.int64)  # C(x, 1)
    for j in range(1, t + 1):
        key -= comb[n - 1 - rows[:, t - j]]
        comb[1:] = np.cumsum(comb[:-1])  # C(x, j + 1) = sum over y < x of C(y, j)
        comb[0] = 0
    return key


def rips_simplices(
    pc: PointCloud, eps: float, max_dim: int, cap: int = DEFAULT_SIMPLEX_CAP
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All Rips simplices up to max_dim with their birth diameters.

    A subset of points is a simplex when its pairwise distances all stay
    within eps; its diameter (0 for vertices) is the largest pairwise
    distance.  Level k of the returned list is one ``(vertices,
    diameters)`` pair: an int array of shape (m, k + 1) whose rows are
    the k-simplices' increasing vertex tuples in lexicographic order,
    and a float array of their m diameters.  The list stops at the
    highest dimension that has a simplex.

    Level k + 1 comes from level k.  The candidates of a simplex are the
    vertices above its last one within eps of all its vertices: the AND
    of its vertices' rows of the strict upper-triangular mask dist <= eps.
    A coface's diameter is the larger of its parent's and the largest
    distance from the new vertex.  Rows go in blocks of about _BLOCK
    mask elements, and each block's count is checked against cap before
    its simplices are built, so memory stays bounded when the cap is
    hit.  The cap counts the vertices too, but only a cloud with an edge
    can exceed it.
    """
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    dist = pc.distances()
    n = len(pc)
    near = np.triu(dist <= eps, 1)
    levels = [(np.arange(n).reshape(n, 1), np.zeros(n))]
    total = n
    step = max(1, _BLOCK // n)
    for _ in range(max_dim):
        vertices, diameters = levels[-1]
        blocks = []
        for start in range(0, len(vertices), step):
            parents = vertices[start : start + step]
            fits = near[parents[:, 0]]
            for column in parents.T[1:]:
                fits &= near[column]
            found = np.count_nonzero(fits)
            total += found
            if found and total > cap:
                raise TooManySimplices(f"more than {cap} simplices at eps={eps}; raise the cap")
            rows, new = np.nonzero(fits)
            parent = parents[rows]
            size = np.maximum(diameters[start + rows], dist[parent, new[:, None]].max(axis=1))
            blocks.append((np.column_stack([parent, new]), size))
        if not any(len(size) for _, size in blocks):
            break
        levels.append(tuple(map(np.concatenate, zip(*blocks))))
    return levels


def vietoris_rips(
    pc: PointCloud,
    eps: float,
    max_dim: int,
    max_simplices: int = DEFAULT_SIMPLEX_CAP,
) -> CellComplex:
    """Vietoris-Rips complex of a point cloud at scale eps.

    The vertex arrays of rips_simplices are downward closed and sorted,
    so they are the layers.
    """
    levels = rips_simplices(pc, eps, max_dim, max_simplices)
    return _complex_of_layers([str(i) for i in range(len(pc))], [v for v, _ in levels])


# ---------------------------------------------------------------------------
# Products and cubical complexes
# ---------------------------------------------------------------------------


def _product_blocks(a: CellComplex, b: CellComplex, total: int) -> list[tuple[int, int]]:
    """(first-factor dim, block offset) pairs for one product dimension."""
    ks = range(max(0, total - b.dim), min(total, a.dim) + 1)
    sizes = [a.n_cells(k) * b.n_cells(total - k) for k in ks]
    return list(zip(ks, itertools.accumulate(sizes, initial=0)))


def _factor_label(label: str) -> str:
    """A factor's cell label as written inside a product label.

    A label with balanced parentheses, no comma outside them and no
    backslash is kept as it is.  Any other label gets a backslash before
    each backslash, parenthesis and comma, so every product label splits
    back into its two factor labels at its one unescaped top-level comma.
    """
    depth = 0
    for ch in label:
        depth += (ch == "(") - (ch == ")")
        if depth < 0 or ch == "\\" or (ch == "," and depth == 0):
            break
    else:
        if depth == 0:
            return label
    return re.sub(r"([\\(),])", r"\\\1", label)


def product(a: CellComplex, b: CellComplex) -> CellComplex:
    """Product complex: cells are pairs, dimensions add.

    Cells of dimension d are ordered by (first-factor dimension k, index in
    a, index in b) and labelled ``(la,lb)``, or ``(la,lb)[k]`` where the pair
    recurs in a block k2: la in a's layers k and k2, lb in b's d-k and d-k2.
    The boundary of s x t, s a k-cell, is ds x t + (-1)^(k+1) s x dt.  As
    every function that takes a CellComplex, product trusts its factors, and
    its output needs none of from_boundary_matrices' checks.  Its labels are
    distinct per layer, as factor labels are: _factor_label is injective, a
    recurring pair names its block, and a suffixed label ends in ``]``, a
    plain one in ``)``.  It is exact, as its factors are:
    dd(s x t) = dds x t + ((-1)^k + (-1)^(k+1)) ds x dt + s x ddt = 0.

    Each boundary is written as CSC arrays, block by block, with no sort and
    no constructor (_unchecked_matrix): column (i, j) of block k holds
    da_i x b_j, rows in block k - 1, then a_i x db_j, rows in block k.  Both
    runs increase, as the factors' columns do, and the first ends below the
    second, as block k - 1 comes before block k.
    """
    dim = a.dim + b.dim
    names_a, names_b = ([[_factor_label(l) for l in layer] for layer in c.cells] for c in (a, b))
    cells = []
    for total in range(dim + 1):
        ks = [k for k, _ in _product_blocks(a, b, total)]
        recur = {  # the pairs that occur in two blocks
            f"({la},{lb})" for k, k2 in itertools.combinations(ks, 2)
            for la in set(names_a[k]).intersection(names_a[k2])
            for lb in set(names_b[total - k]).intersection(names_b[total - k2])
        }
        blocks = [[f"({la},{lb})" for la in names_a[k] for lb in names_b[total - k]] for k in ks]
        if recur:
            blocks = [[f"{l}[{k}]" if l in recur else l for l in ls] for k, ls in zip(ks, blocks)]
        cells.append(tuple(itertools.chain.from_iterable(blocks)))
    # Per factor and dimension: each cell's boundary length, and each boundary
    # entry's column and place in it (none for vertices).
    runs_a, runs_b = ([_column_runs(c, k) for k in range(c.dim + 1)] for c in (a, b))
    mats = []
    for total in range(1, dim + 1):
        row_offset = dict(_product_blocks(a, b, total - 1))
        blocks = _product_blocks(a, b, total)
        lengths = [(runs_a[k][0][:, None] + runs_b[total - k][0]).ravel() for k, _ in blocks]
        indptr = np.zeros(len(cells[total]) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(lengths), out=indptr[1:])
        indices, signs = np.empty((2, indptr[-1]), dtype=np.int64)
        for k, col_base in blocks:
            kb = total - k
            (la, owner_a, place_a), (lb, owner_b, place_b) = runs_a[k], runs_b[kb]
            na, nb = len(la), len(lb)
            first = indptr[col_base : col_base + na * nb].reshape(na, nb)
            if k >= 1:  # the boundary of a's cell i, paired with b's cell j
                at = first[owner_a] + place_a[:, None]
                bd = a.boundary(k)
                indices[at] = row_offset[k - 1] + bd.indices[:, None] * nb + np.arange(nb)
                signs[at] = bd.signs[:, None]
            if kb >= 1:  # a's cell i, paired with the boundary of b's cell j
                at = first[:, owner_b] + la[:, None] + place_b
                bd = b.boundary(kb)
                i = np.arange(na)[:, None]
                indices[at] = row_offset[k] + i * b.n_cells(kb - 1) + bd.indices
                signs[at] = (-1) ** (k + 1) * bd.signs
        shape = len(cells[total - 1]), len(cells[total])
        mats.append(_unchecked_matrix(*shape, indptr, indices, signs))
    return CellComplex(dim, tuple(cells), tuple(mats))


def _column_runs(c: CellComplex, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the k-cells of c: each one's boundary length, and each entry of B_k's
    column and place in its column; zero lengths and no entries for vertices."""
    if k == 0:
        return np.zeros(c.n_cells(0), dtype=np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    indptr = c.boundary(k).indptr
    owner = np.repeat(np.arange(c.n_cells(k)), np.diff(indptr))
    return np.diff(indptr), owner, np.arange(owner.size) - indptr[owner]


def path_complex(n: int) -> CellComplex:
    """Path graph P_n: n vertices, n-1 edges (i, i+1), as _graph builds it, unchecked."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    if n == 1:
        return CellComplex(0, (("0",),), ())
    e = np.arange(2 * n - 2)  # entry e: row (e+1)//2 of column e//2, -1 then +1
    b1 = _unchecked_matrix(n, n - 1, np.arange(0, 2 * n - 1, 2), (e + 1) // 2, e % 2 * 2 - 1)
    labels = tuple(str(i) for i in range(n))
    return CellComplex(1, (labels, tuple(f"{i}-{j}" for i, j in zip(labels, labels[1:]))), (b1,))


def cubical(sizes: Sequence[int]) -> CellComplex:
    """Cubical lattice complex: iterated product of path graphs."""
    if not sizes:
        raise ValueError("cubical needs at least one size")
    if any(n < 1 for n in sizes):
        raise ValueError("cubical sizes must be positive")
    return reduce(product, (path_complex(n) for n in sizes))


# ---------------------------------------------------------------------------
# Graph liftings
# ---------------------------------------------------------------------------


def _first_violation(n_rows: int, n_cols: int, bad, upper: bool):
    """First (row, col) in row-major order where bad(rows, cols) holds.

    bad takes a slice of rows and a slice of columns and returns their
    boolean block; rows are visited in blocks so that no temporary
    exceeds about _BLOCK elements.  With upper, only cols > row count.
    """
    step = max(1, _BLOCK // n_cols)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        first = start + 1 if upper else 0
        block = bad(slice(start, stop), slice(first, n_cols))
        if upper:
            block &= np.arange(first, n_cols)[None, :] > np.arange(start, stop)[:, None]
        hits = np.argwhere(block)
        if len(hits):
            return start + int(hits[0, 0]), first + int(hits[0, 1])
    return None


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _in_box(a, b, c, eps: float):
    """c within eps of the bounding box of a and b, coordinate by coordinate."""
    return (
        (np.minimum(a[0], b[0]) - eps <= c[0]) & (c[0] <= np.maximum(a[0], b[0]) + eps)
        & (np.minimum(a[1], b[1]) - eps <= c[1]) & (c[1] <= np.maximum(a[1], b[1]) + eps)
    )


@dataclass(frozen=True, eq=False)
class PlanarEmbedding:
    """Straight-line plane drawing: vertex coordinates plus an edge list.

    Edges may only meet at shared endpoints; violations raise EdgesCross
    at construction.  The checks run in this order, each reporting its
    first violation in row-major order: coinciding vertices (np.allclose
    per vertex pair), edges without a shared endpoint that touch, and a
    vertex on an edge it does not bound.  All three are vectorised over
    blocks of rows, so memory stays O(block * E) rather than O(E^2).
    """

    points: np.ndarray = field(repr=False)
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "points", pts)
        n = len(pts)
        labels = self.labels or tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise ShapeMismatch(f"{n} coordinate rows for {len(labels)} vertices")
        if len(set(labels)) != n:
            raise DuplicateLabel("need one unique label per vertex")
        object.__setattr__(self, "labels", tuple(labels))
        edges, seen_pairs = [], set()
        for u, v in self.edges:
            if not (isinstance(u, Integral) and isinstance(v, Integral)):
                raise ShapeMismatch(f"edge ({u}, {v}) has a vertex index that is not an integer")
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise EdgesCross(f"edge ({u}, {v}) is a self-loop")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise EdgesCross(f"edge ({u}, {v}) drawn twice")
            seen_pairs.add(pair)
            edges.append((u, v))
        edges = tuple(edges)
        object.__setattr__(self, "edges", edges)
        scale = float(np.max(np.abs(pts)))
        eps = 1e-12 * scale * scale
        x, y = pts[:, 0], pts[:, 1]

        def same_point(i, j):  # np.allclose(pts[i], pts[j], atol=eps), rtol 1e-5
            a, b = pts[i, None, :], pts[None, j, :]
            return (np.abs(a - b) <= eps + 1e-5 * np.abs(b)).all(axis=2)

        hit = _first_violation(n, n, same_point, upper=True)
        if hit:
            raise EdgesCross(f"vertices {hit[0]} and {hit[1]} share coordinates")
        if not edges:
            return
        u, v = np.array(edges).T
        ends = [(x[u], y[u]), (x[v], y[v])]

        def touching(i, j):
            # Row edge p1-p2 against column edge q1-q2.
            p1, p2 = [(a[i, None], b[i, None]) for a, b in ends]
            q1, q2 = [(a[None, j], b[None, j]) for a, b in ends]
            d1, d2 = _cross(q1, q2, p1), _cross(q1, q2, p2)
            d3, d4 = _cross(p1, p2, q1), _cross(p1, p2, q2)
            proper = (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & (
                ((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps))
            )
            on = (
                (~(np.abs(d1) > eps) & _in_box(q1, q2, p1, eps))
                | (~(np.abs(d2) > eps) & _in_box(q1, q2, p2, eps))
                | (~(np.abs(d3) > eps) & _in_box(p1, p2, q1, eps))
                | (~(np.abs(d4) > eps) & _in_box(p1, p2, q2, eps))
            )
            ui, vi, uj, vj = u[i, None], v[i, None], u[None, j], v[None, j]
            shared = (ui == uj) | (ui == vj) | (vi == uj) | (vi == vj)
            return (proper | on) & ~shared

        hit = _first_violation(len(edges), len(edges), touching, upper=True)
        if hit:
            (u1, v1), (u2, v2) = edges[hit[0]], edges[hit[1]]
            raise EdgesCross(f"edges ({u1}, {v1}) and ({u2}, {v2}) intersect")

        def on_edge(w, j):
            p1, p2 = [(a[None, j], b[None, j]) for a, b in ends]
            c = (x[w, None], y[w, None])
            ws = np.arange(n)[w, None]
            apart = (ws != u[None, j]) & (ws != v[None, j])
            return (np.abs(_cross(p1, p2, c)) <= eps) & _in_box(p1, p2, c, eps) & apart

        hit = _first_violation(n, len(edges), on_edge, upper=False)
        if hit:
            w, (u1, v1) = hit[0], edges[hit[1]]
            raise EdgesCross(f"vertex {w} lies on edge ({u1}, {v1})")


def window_lifting(cc: CellComplex, points) -> CellComplex:
    """Attach every inner window of a straight-line plane drawing of cc as a 2-cell.

    ``points`` has one (x, y) row per vertex of cc; ``PlanarEmbedding``
    checks the drawing.  Edge j gives dart j (tail to head) and dart j + m
    (head to tail).  One np.lexsort by (tail, angle) orders each vertex's
    ring of darts, and the successor of (u, v) on its face is the dart just
    before (v, u) in v's ring.  One pass over the successors numbers the
    faces by their smallest (tail, head) dart, and np.bincount of the darts'
    cross products gives their signed areas.  The one face of negative area
    (the outer one) is dropped; every other becomes a counterclockwise
    2-cell of cc whose column is its darts' signed edges less its bridges
    (edges whose other dart lies in the same face), traced once by
    ``oriented_cycle`` into its vertex cycle.  Cells go in cycle order.
    """
    pairs = _underlying_graph(cc)
    x, y = PlanarEmbedding(points, pairs, cc.cells[0]).points.T
    n, m = cc.n_cells(0), len(pairs)
    if len(_forest_merges(n, pairs)) != n - 1:
        raise Disconnected("underlying graph is not connected")
    t, h = np.array(pairs, dtype=np.int64).reshape(m, 2).T
    tails, heads = np.concatenate((t, h)), np.concatenate((h, t))
    ring = np.lexsort((np.arctan2(y[heads] - y[tails], x[heads] - x[tails]), tails))
    back = np.roll(np.argsort(ring), m)  # where each dart's reverse stands in the rings
    first = np.searchsorted(tails[ring], np.arange(n + 1))
    start, size = first[heads], first[heads + 1] - first[heads]
    succ = ring[start + (back - start - 1) % size].tolist()
    face, faces = [-1] * (2 * m), 0
    for d in np.lexsort((heads, tails)).tolist():
        if face[d] < 0:
            while face[d] < 0:
                face[d] = faces
                d = succ[d]
            faces += 1
    if faces <= 1:
        return cc
    face = np.array(face)
    area = np.bincount(face, weights=x[tails] * y[heads] - x[heads] * y[tails])
    outer = np.flatnonzero(area < 0)
    if len(outer) != 1:
        raise EdgesCross(f"face traversal found {len(outer)} outer faces; drawing is not plane")
    darts = np.flatnonzero(face != np.roll(face, m))  # bridges have both darts in one face
    darts = darts[np.lexsort((darts % m, face[darts]))]
    bounds = np.searchsorted(face[darts], np.arange(faces + 1)).tolist()
    entries = list(zip((darts % m).tolist(), np.where(darts < m, 1, -1).tolist()))
    windows: list[tuple[list[int], list[tuple[int, int]]]] = []
    for f in range(faces):
        if f == outer[0]:
            continue
        column = entries[bounds[f] : bounds[f + 1]]
        cycle, reason = oriented_cycle(pairs, column)
        if reason is not None:
            raise NotACycleColumn(f"window boundary is not a simple cycle: {reason}")
        windows.append((cycle, column))
    windows.sort(key=lambda window: window[0])
    columns = _columns_matrix(m, [column for _, column in windows])
    return _cycle_cells(cc, [cycle for cycle, _ in windows], columns)


def _underlying_graph(cc: CellComplex) -> list[tuple[int, int]]:
    if cc.dim != 1:
        raise BadDimension("lifting expects a 1-dimensional complex")
    return _edges(cc)


def _cycle_cells(
    cc: CellComplex, cycles: Sequence[Sequence[int]], b2: BoundaryMatrix
) -> CellComplex:
    """Attach 2-cells to a 1-complex: cell c has the vertex cycle cycles[c],
    starting at its minimal vertex, and column c of b2, that cycle's signed
    edges.  A cell is labelled by its cycle's vertex labels, with a "+" per
    earlier cell of the same label.  Nothing goes through
    from_boundary_matrices: each column is the signed edge set of a closed
    walk, so B_1 B_2 = 0 holds by construction, and the "+" rule makes the
    labels unique."""
    if not cycles:
        return cc
    vlabels, labels, seen = cc.cells[0], [], set()
    for cycle in cycles:
        label = "-".join([vlabels[i] for i in cycle])
        while label in seen:
            label += "+"
        seen.add(label)
        labels.append(label)
    return CellComplex(2, (*cc.cells, tuple(labels)), (cc.boundary(1), b2))


def _climb(jumps: list[np.ndarray], vertices: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The ancestor steps levels above each vertex, where jumps[k] maps every
    vertex to its ancestor 2^k levels up: one jump per set bit of steps."""
    for k, jump in enumerate(jumps):
        vertices = np.where(steps >> k & 1, jump[vertices], vertices)
    return vertices


def spanning_tree_lifting(cc: CellComplex, root: str | int | None = None) -> CellComplex:
    """Fill the fundamental cycles of a BFS spanning tree with 2-cells.

    An integer root, other than a bool, is a vertex index; any other root
    is read as a vertex label.  The BFS takes each vertex's edges in edge
    order.  Each non-tree edge closes exactly one cycle through the tree:
    along the edge, from its head up to the lowest common ancestor of its
    ends, and down to its tail.  All cycles are found at once in numpy by
    ancestor jumps by powers of two over the BFS parents, a table of
    O(V log depth) entries: the common ancestors by binary lifting, then
    every cycle's vertices as ancestors of its ends in one flat array.  Each
    cycle is given the orientation of ``_canonical_cycle`` from its minimal
    vertex and that vertex's two neighbours; the number of 2-cells is
    |edges| - |vertices| + 1.
    """
    pairs = _underlying_graph(cc)
    n, m = cc.n_cells(0), len(pairs)
    if root is None:
        root_index = 0
    elif isinstance(root, Integral) and not isinstance(root, bool):
        if not 0 <= root < n:
            raise UnknownVertex(f"no 0-cell at index {root} of {n}")
        root_index = int(root)
    else:
        root_index = cc.index_of(0, str(root))
    # Entry e of ends is the tail (e even) or head (e odd) of edge e // 2; the
    # entries sorted by vertex, stably, list each vertex's edges in edge order.
    ends = np.fromiter(itertools.chain.from_iterable(pairs), np.int64, 2 * m)
    order = np.argsort(ends, kind="stable")
    first = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    neighbours, order = ends[order ^ 1].tolist(), order.tolist()
    parent, depth, via = [-1] * n, [0] * n, [0] * n  # via: the parent's entry of the tree edge
    parent[root_index] = root_index
    queue = [root_index]
    for u in queue:
        for p in range(first[u], first[u + 1]):
            v = neighbours[p]
            if parent[v] < 0:
                parent[v], depth[v], via[v] = u, depth[u] + 1, order[p]
                queue.append(v)
    if len(queue) != n:
        raise Disconnected("spanning tree lifting needs a connected graph")

    via = np.array(via)
    tree = np.zeros(m, dtype=bool)
    tree[via[queue[1:]] // 2] = True
    closing = np.flatnonzero(~tree)
    if not closing.size:
        return cc
    up_edge, up_sign = via // 2, via % 2 * 2 - 1  # +1 where a vertex is its tree edge's tail
    depth = np.array(depth)
    jumps = [np.array(parent)]
    while len(jumps) < int(depth.max()).bit_length():
        jumps.append(jumps[-1][jumps[-1]])
    tails, heads = ends[0::2][closing], ends[1::2][closing]
    gap = depth[heads] - depth[tails]
    x = _climb(jumps, np.where(gap > 0, heads, tails), np.abs(gap))
    y = np.where(gap > 0, tails, heads)
    for jump in reversed(jumps):
        apart = jump[x] != jump[y]
        x, y = np.where(apart, jump[x], x), np.where(apart, jump[y], y)
    meet = np.where(x == y, x, jumps[0][x])

    # Cycle c at positions starts[c]..starts[c + 1] - 1: its head, the head's
    # ancestors up to the meeting vertex, then the tail's back down to the tail.
    rise = depth[heads] - depth[meet]
    length = rise + depth[tails] - depth[meet] + 1
    starts = np.zeros(len(closing) + 1, dtype=np.int64)
    np.cumsum(length, out=starts[1:])
    owner = np.repeat(np.arange(len(closing)), length)
    place = np.arange(starts[-1]) - starts[owner]
    rising = place <= rise[owner]
    vertices = _climb(jumps, np.where(rising, heads[owner], tails[owner]),
                      np.where(rising, place, length[owner] - 1 - place))
    # A vertex below the meeting vertex adds its tree edge, walked up on the
    # head's side and down on the tail's; the meeting vertex's place holds
    # the closing edge, walked from tail to head.
    edges, signs = up_edge[vertices], np.where(rising, up_sign[vertices], -up_sign[vertices])
    edges[starts[:-1] + rise], signs[starts[:-1] + rise] = closing, 1
    low = np.flatnonzero(vertices == np.minimum.reduceat(vertices, starts[:-1])[owner])
    after = np.where(low + 1 == starts[1:], starts[:-1], low + 1)
    before = np.where(low == starts[:-1], starts[1:] - 1, low - 1)
    turn = np.where((length >= 3) & (vertices[after] > vertices[before]), -1, 1)
    rotated = (low - starts[:-1])[owner] + turn[owner] * place
    canonical = vertices[starts[owner] + rotated % length[owner]]
    b2 = BoundaryMatrix(m, len(closing), np.column_stack((edges, owner, signs * turn[owner])))
    flat, bounds = canonical.tolist(), starts.tolist()
    return _cycle_cells(cc, [flat[p:q] for p, q in zip(bounds, bounds[1:])], b2)


def chordless_cycle_lifting(
    cc: CellComplex, max_cells: int = DEFAULT_CYCLE_CAP
) -> CellComplex:
    """Attach every chordless (induced) cycle of a simple graph as a 2-cell.

    Each cycle is grown from its smallest vertex s along induced paths
    through vertices of the graph's 2-core above s, and closes at a
    neighbour of s.  It is recorded once, in the direction whose second
    vertex is below its last, which is the orientation of
    ``_canonical_cycle``, and gets the ``_column`` of that walk; output
    cells are sorted by vertex tuple.  Where a path branches, a step is
    taken only if a closing neighbour of s can still be reached from it,
    so a path that cannot close is a single chain and the work grows with
    the cycles found rather than with the induced paths.  The number of
    chordless cycles can grow exponentially, so enumeration stops with an
    error once max_cells is exceeded.
    """
    pairs = _underlying_graph(cc)
    lookup = _edge_lookup(pairs)
    if len(lookup) != 2 * len(pairs):  # two edges join the same two vertices
        raise NotSimple("chordless cycle lifting needs a simple underlying graph")
    adjacency: list[set[int]] = [set() for _ in range(cc.n_cells(0))]
    for t, h in pairs:
        adjacency[t].add(h)
        adjacency[h].add(t)
    # A vertex with fewer than two neighbours is on no cycle: drop such
    # vertices until none is left (what remains is the graph's 2-core).
    leaves = [v for v, ring in enumerate(adjacency) if len(ring) < 2]
    while leaves:
        v = leaves.pop()
        for w in adjacency[v]:
            adjacency[w].discard(v)
            if len(adjacency[w]) == 1:
                leaves.append(w)
        adjacency[v] = set()
    cycles: list[tuple[int, ...]] = []
    below: set[int] = set()  # s and the vertices before it
    for s, ring in enumerate(adjacency):
        below.add(s)
        # Induced paths s, v, ..., u, each with the vertices it may not take
        # next: its own, and the neighbours of its inner vertices (a chord).
        # A cycle closes at a neighbour of s above its second vertex, so
        # none starts at the last neighbour.
        last = max(ring, default=s)
        stack = [((s, v), {s, v}) for v in ring if s < v < last]
        while stack:
            path, blocked = stack.pop()
            u = path[-1]
            steps = []
            for w in adjacency[u] - blocked - below:
                if w not in ring:
                    steps.append(w)
                elif path[1] < w:
                    cycles.append(path + (w,))
                    if len(cycles) > max_cells:
                        raise CapExceeded(max_cells)
            blocked = blocked | adjacency[u]
            if len(steps) > 1:
                # Keep only the steps from which a closing neighbour of s is
                # still reachable through vertices the path may take (the
                # shortest such route is induced, so the cycle exists): a
                # path that cannot close is then a single chain, never a
                # tree of paths.
                live ={t for t in ring - blocked if t > path[1]}
                frontier = live
                while frontier:
                    frontier = set().union(*(adjacency[x] for x in frontier))
                    frontier = frontier - below - ring - blocked - live
                    live |= frontier
                steps = [w for w in steps if not live.isdisjoint(adjacency[w])]
            stack.extend((path + (w,), blocked) for w in steps)
    cycles.sort()
    columns = [_column(lookup, zip(cycle, cycle[1:] + cycle[:1])) for cycle in cycles]
    return _cycle_cells(cc, cycles, _columns_matrix(len(pairs), columns))
