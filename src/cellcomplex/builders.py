"""Constructing complexes from higher-level inputs.

Simplicial complexes and Vietoris-Rips point clouds, products of
complexes (and cubical grids as iterated products of path graphs), and
three ways of attaching 2-cells to a graph: inner windows of a planar
embedding, fundamental cycles of a BFS spanning tree, and chordless
cycles.  Liftings that find no cycles return the 1-complex unchanged.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    BoundaryMatrix,
    CellComplex,
    _canonical_cycle,
    _column,
    _edge_endpoints,
    _edge_lookup,
    _entry_arrays,
    _forest_merges,
    _graph,
    _tail_head,
    _with_2cells,
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
        to np.sqrt(np.sum(diff**2, axis=-1)) over the broadcast diff."""
        return np.sqrt(_pairwise_sum([(c[:, None] - c[None, :]) ** 2 for c in self.points.T]))


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
    cells = [list(vlabels)]
    cells += [["-".join([vlabels[v] for v in s]) for s in layer.tolist()] for layer in layers[1:]]
    return from_boundary_matrices(cells, _simplex_boundaries(layers))


def _simplex_boundaries(layers: Sequence[np.ndarray]) -> list[BoundaryMatrix]:
    """B_1..B_n of simplex layers that are already checked and sorted.

    Layer k is an int array whose rows are the k-simplices' increasing
    vertex tuples in lexicographic order, with no row twice; layer 0 is
    every vertex in order, so a vertex's row is its id.  The face
    omitting position i gets boundary sign (-1)^i.  Each face of a
    k-simplex, k >= 2, is found by one binary search of the layer
    below, and the row found is compared with the face: a face missing
    from that layer becomes row -1, which the BoundaryMatrix constructor
    rejects with ShapeMismatch (IndexError if that layer is empty).  An
    edge's vertex outside layer 0 is a row outside B_1, rejected alike.
    """
    mats = []
    for k in range(1, len(layers)):
        m = len(layers[k])
        faces = _facets(layers[k])
        if k == 1:
            rows = faces[:, 0]
        else:
            below, wanted = _row_keys(layers[k - 1]), _row_keys(faces)
            rows = np.searchsorted(below, wanted)
            rows[below.take(rows, mode="clip") != wanted] = -1
        cols = np.tile(np.arange(m), k + 1)
        signs = np.repeat([(-1) ** (k - j) for j in range(k + 1)], m)
        mats.append(BoundaryMatrix(len(layers[k - 1]), m, np.column_stack((rows, cols, signs))))
    return mats


def _facets(simplices: np.ndarray) -> np.ndarray:
    """The facets of rows of k-simplices, facet j omitting vertex k - j
    (itertools.combinations order); facet j of row r is row j * m + r."""
    m, size = simplices.shape
    keep = [[c for c in range(size) if c != size - 1 - j] for j in range(size)]
    return simplices[:, keep].transpose(1, 0, 2).reshape(size * m, size - 1)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of non-negative ints, ordered as the rows are
    lexicographically: the row's big-endian int64 bytes, compared as bytes."""
    return np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * rows.shape[1]}").ravel()


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
    blocks = []
    offset = 0
    for k in range(max(0, total - b.dim), min(total, a.dim) + 1):
        blocks.append((k, offset))
        offset += a.n_cells(k) * b.n_cells(total - k)
    return blocks


def _factor_label(label: str) -> str:
    """A factor's cell label as written inside a product label.

    A label with balanced parentheses, no comma outside them and no
    backslash is kept as it is.  Any other label gets a backslash before
    each backslash, parenthesis and comma, so every product label splits
    back into its two factor labels at its one unescaped top-level comma.
    """
    depth = 0
    for ch in label:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth < 0 or ch == "\\" or (ch == "," and depth == 0):
            break
    else:
        if depth == 0:
            return label
    return re.sub(r"([\\(),])", r"\\\1", label)


def product(a: CellComplex, b: CellComplex) -> CellComplex:
    """Product complex: cells are pairs, dimensions add.

    Cells of dimension d are ordered by (first-factor dimension, index in
    a, index in b) and labelled ``(la,lb)``.  The boundary of a pair
    applies each factor's boundary in turn; the second-factor blocks
    carry the alternating sign (-1)^(k+1), k the first-factor dimension,
    which keeps consecutive boundary maps composing to zero.
    """
    dim = a.dim + b.dim
    names_a = [[_factor_label(label) for label in layer] for layer in a.cells]
    names_b = [[_factor_label(label) for label in layer] for layer in b.cells]
    cells = []
    for total in range(dim + 1):
        labelled = [
            (k, f"({la},{lb})")
            for k, _ in _product_blocks(a, b, total)
            for la in names_a[k]
            for lb in names_b[total - k]
        ]
        # Factor labels are unique only per dimension, so one label pair
        # can recur across blocks; such labels name the first-factor
        # dimension.
        counts = Counter(label for _, label in labelled)
        cells.append(
            [label if counts[label] == 1 else f"{label}[{k}]" for k, label in labelled]
        )
    mats = []
    for total in range(1, dim + 1):
        row_offset = dict(_product_blocks(a, b, total - 1))
        parts = []  # triplets per factor boundary and block
        for k, col_base in _product_blocks(a, b, total):
            kb = total - k
            na, nb = a.n_cells(k), b.n_cells(kb)
            if k >= 1:  # the boundary of a's cell i, paired with b's cell j
                r, i, s, _ = _entry_arrays(a.boundary(k))
                r, i, j = r[:, None], i[:, None], np.arange(nb)
                rows, cols = row_offset[k - 1] + r * nb + j, col_base + i * nb + j
                parts.append(np.stack(np.broadcast_arrays(rows, cols, s[:, None]), -1))
            if kb >= 1:  # a's cell i, paired with the boundary of b's cell j
                r, j, s, _ = _entry_arrays(b.boundary(kb))
                i = np.arange(na)[:, None]
                rows, cols = row_offset[k] + i * b.n_cells(kb - 1) + r, col_base + i * nb + j
                parts.append(np.stack(np.broadcast_arrays(rows, cols, (-1) ** (k + 1) * s), -1))
        triplets = np.concatenate([part.reshape(-1, 3) for part in parts])
        mats.append(BoundaryMatrix(len(cells[total - 1]), len(cells[total]), triplets))
    return from_boundary_matrices(cells, mats)


def path_complex(n: int) -> CellComplex:
    """Path graph P_n as a complex: n vertices, n-1 edges (i, i+1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return _graph([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


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
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        scale = max(1.0, float(np.max(np.abs(pts))))
        eps = 1e-12 * scale * scale
        seen_pairs = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise EdgesCross(f"edge ({u}, {v}) is a self-loop")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise EdgesCross(f"edge ({u}, {v}) drawn twice")
            seen_pairs.add(pair)
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


def window_lifting(emb: PlanarEmbedding) -> CellComplex:
    """Attach every inner window of a plane drawing as a 2-cell.

    Faces are traced through the rotation system induced by the
    coordinates; the unique face of negative signed area (the outer one)
    is dropped and each remaining window becomes a counterclockwise
    2-cell whose column is the ``_column`` of its walk, so doubled bridge
    traversals cancel, traced once by ``oriented_cycle`` into its vertex
    cycle.  Edges are labelled ``tail-head``, as ``from_tuples`` does.
    """
    pts = emb.points
    n = len(pts)
    lookup = _edge_lookup(emb.edges)  # every edge walked both ways, in edge order
    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in lookup:
        adjacency[u].append(v)
    if len(_forest_merges(n, emb.edges)) != n - 1:
        raise Disconnected("underlying graph is not connected")
    order = {
        u: sorted(
            adjacency[u],
            key=lambda w: np.arctan2(pts[w][1] - pts[u][1], pts[w][0] - pts[u][0]),
        )
        for u in range(n)
    }

    # Each face is an orbit of the darts: a dart (u, v) is followed by (v, w),
    # w the neighbour of v just clockwise of u.
    remaining = set(lookup)
    faces: list[list[tuple[int, int]]] = []
    for dart in sorted(remaining):
        walk = []
        while dart in remaining:
            remaining.discard(dart)
            walk.append(dart)
            u, v = dart
            ring = order[v]
            dart = (v, ring[(ring.index(u) - 1) % len(ring)])
        if walk:
            faces.append(walk)

    base = _graph(emb.labels, emb.edges)
    if len(faces) <= 1:
        return base
    areas = [0.5 * sum(pts[u][0] * pts[v][1] - pts[v][0] * pts[u][1] for u, v in walk)
             for walk in faces]
    negatives = [i for i, area in enumerate(areas) if area < 0]
    if len(negatives) != 1:
        raise EdgesCross(
            f"face traversal found {len(negatives)} outer faces; drawing is not plane"
        )
    outer = negatives[0]

    windows: list[tuple[list[int], list[tuple[int, int]]]] = []
    for fi, walk in enumerate(faces):
        if fi == outer:
            continue
        column = _column(lookup, walk)
        cycle, reason = oriented_cycle(emb.edges, column)
        if reason is not None:
            raise NotACycleColumn(f"window boundary is not a simple cycle: {reason}")
        windows.append((cycle, column))
    windows.sort(key=lambda window: window[0])
    return _cycle_cells(base, windows)


def _underlying_graph(cc: CellComplex) -> list[tuple[int, int]]:
    if cc.dim != 1:
        raise BadDimension("lifting expects a 1-dimensional complex")
    ends = _edge_endpoints(cc.boundary(1))
    return [_tail_head(ends, j) for j in range(len(ends))]


def _cycle_cells(
    cc: CellComplex, cells: list[tuple[Sequence[int], list[tuple[int, int]]]]
) -> CellComplex:
    """Attach 2-cells to a 1-complex, each given as its vertex cycle, starting
    at its minimal vertex, and its signed edges.  A cell is labelled by its
    cycle's vertex labels, with a "+" per earlier cell of the same label."""
    labels: list[str] = []
    seen: set[str] = set()
    for cycle, _ in cells:
        label = "-".join(cc.cells[0][i] for i in cycle)
        while label in seen:
            label += "+"
        seen.add(label)
        labels.append(label)
    return _with_2cells(cc, labels, [signed_edges for _, signed_edges in cells])


def spanning_tree_lifting(cc: CellComplex, root: str | int | None = None) -> CellComplex:
    """Fill the fundamental cycles of a BFS spanning tree with 2-cells.

    Each non-tree edge closes exactly one cycle through the tree: parent
    edges are walked up from both of its ends, always from the deeper
    one, until the two walks meet.  The cycle runs along the non-tree
    edge and is then given the orientation of ``_canonical_cycle``; the
    number of 2-cells is |edges| - |vertices| + 1.
    """
    pairs = _underlying_graph(cc)
    n = cc.n_cells(0)
    if root is None:
        root_index = 0
    elif isinstance(root, int):
        if not 0 <= root < n:
            raise UnknownVertex(f"no 0-cell at index {root} of {n}")
        root_index = root
    else:
        root_index = cc.index_of(0, str(root))
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for j, (t, h) in enumerate(pairs):
        adjacency[t].append((j, h))
        adjacency[h].append((j, t))
    depth = {root_index: 0}
    # vertex -> (tree edge to its parent, that edge's sign walked upwards, parent)
    parent: dict[int, tuple[int, int, int]] = {}
    queue = deque([root_index])
    while queue:
        u = queue.popleft()
        for j, v in adjacency[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                parent[v] = (j, 1 if pairs[j][0] == v else -1, u)
                queue.append(v)
    if len(depth) != n:
        raise Disconnected("spanning tree lifting needs a connected graph")

    tree_edges = {j for j, _, _ in parent.values()}
    cells = []
    for j, (tail, head) in enumerate(pairs):
        if j in tree_edges:
            continue
        # The cycle tail -> head -> ... -> meeting vertex -> ... -> tail.
        up, down = [head], [tail]
        signed = [(j, 1)]
        while up[-1] != down[-1]:
            deeper = up if depth[up[-1]] >= depth[down[-1]] else down
            edge, sign, above = parent[deeper[-1]]
            signed.append((edge, sign if deeper is up else -sign))
            deeper.append(above)
        cycle, flipped = _canonical_cycle(up + down[-2::-1])
        cells.append((cycle, [(e, -s) for e, s in signed] if flipped else signed))
    return _cycle_cells(cc, cells)


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
    cells = [(cycle, _column(lookup, zip(cycle, cycle[1:] + cycle[:1]))) for cycle in cycles]
    return _cycle_cells(cc, cells)
