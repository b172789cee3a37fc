"""Shared fixtures and independent oracles for the test suite.

The rank oracle does exact row reduction over the rationals, fully
independent of the Smith normal form code.  The Hodge oracles project
by least squares onto the boundary images and filter through one eigh
of the full Laplacian, independent of the SVD split and the Lanczos
steps in ``hodge``; the heat oracle sums Taylor series of sparse L_k
matvecs in short steps, so it runs past the dense limit; the exact
decomposition oracle projects by Gram-Schmidt over the rationals,
at weights whose square roots are exact.  The persistence oracle is the
textbook Z/2 column reduction of the filtration boundary matrix, read
column by column from its B_k, and the Rips oracle tries every vertex
subset.  The writer oracle is the standard library's indented JSON
dump, and the plane-drawing oracle tests every vertex pair, edge pair
and vertex-edge pair in Python loops; the window-lifting oracle walks
each face dart by dart through dicts, as the lifting did before it
ordered and numbered darts in arrays.  The boundary oracles read the
entries one at a time and weight dense matrices by broadcasting, as
core and hodge did before they scattered and multiplied from entry
arrays.  The boundary-layout oracles are the tuple code that the CSC
arrays replaced: a sort-and-check of the triplets, a dict-summed
product, a per-column read of edge endpoints, a column-by-column
restriction, and per-cell validation through restricted matrices and
their Smith forms.  The fundamental-cycle oracle walks each non-tree
edge's full root paths and traces the column it finds, as the spanning
tree lifting did before it walked parent edges up from both ends.  The
chordless-cycle oracle tries every vertex subset for a connected,
2-regular induced subgraph.  The product-label oracle counts every
label of a dimension with a Counter, as product did before it read the
recurring labels off its factors' layers.  The complex zoo produces
small randomized builder outputs for the property suites.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from numbers import Integral

import numpy as np
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import hodge
from cellcomplex.builders import _factor_label
from cellcomplex.core import closure_indices, oriented_cycle
from cellcomplex.errors import (
    Disconnected,
    DuplicateEntry,
    DuplicateLabel,
    EdgesCross,
    NotACycleColumn,
    ShapeMismatch,
    UnknownVertex,
)
from cellcomplex.persist import Filtration, PersistenceBar, PersistenceDiagram

TOY_EDGES = [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]
TOY_TRIANGLE = (0, 3, 4)
TOY_SQUARE = (0, 1, 2, 3)

TOY_B1 = np.array(
    [
        [-1, -1, -1, 0, 0, 0],
        [1, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, -1, 0],
        [0, 1, 0, 0, 1, -1],
        [0, 0, 1, 0, 0, 1],
    ]
)
TOY_B2 = np.array(
    [
        [0, 1],
        [1, -1],
        [-1, 0],
        [0, 1],
        [0, 1],
        [1, 0],
    ]
)


# Six-vertex triangulation of the real projective plane: H_1 = Z/2.
RP2_TRIANGLES = [(0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


def rp2() -> cx.CellComplex:
    return cx.from_simplicial(range(6), RP2_TRIANGLES, auto_close=True)


def _signs_to(columns: np.ndarray, target: np.ndarray | None) -> np.ndarray:
    """The first +-1 vector x, in itertools.product order, with columns @ x equal to
    target, or (target None) supported on three rows with entries +-2."""
    signs = np.array(list(itertools.product((-1, 1), repeat=columns.shape[1])))
    sums = signs @ columns.T
    if target is None:
        hits = ((sums != 0).sum(axis=1) == 3) & (np.abs(sums).max(axis=1) == 2)
    else:
        hits = (sums == target).all(axis=1)
    return signs[np.flatnonzero(hits)[0]]


def rp2_pair() -> cx.CellComplex:
    """Two copies of RP2 glued along a projective line, plus one 3-cell: the chain of
    each copy's triangles, signed as one disk, bounds twice the line, so their
    difference is a cycle.  The 3-cell's closure has integer H_1 = Z/2."""
    b2 = rp2().boundary(2).to_dense()
    line = np.flatnonzero(b2 @ _signs_to(b2, None))
    edges = [tuple(map(int, label.split("-"))) for label in rp2().cells[1]]
    keep = {v for i in line for v in edges[i]}
    moved = lambda t: tuple(sorted(v if v in keep else v + 6 for v in t))  # noqa: E731
    triangles = RP2_TRIANGLES + [moved(t) for t in RP2_TRIANGLES]
    vertices = sorted({v for t in triangles for v in t})
    glued = cx.from_simplicial(vertices, triangles, auto_close=True)
    b2 = glued.boundary(2).to_dense()
    first = [glued.cells[2].index("-".join(map(str, t))) for t in RP2_TRIANGLES]
    second = [glued.cells[2].index("-".join(map(str, moved(t)))) for t in RP2_TRIANGLES]
    column = np.zeros(len(triangles), dtype=np.int64)
    column[first] = _signs_to(b2[:, first], None)
    column[second] = _signs_to(b2[:, second], -b2[:, first] @ column[first])
    b3 = cx.BoundaryMatrix(len(triangles), 1, [(i, 0, int(s)) for i, s in enumerate(column)])
    return cx.from_boundary_matrices([*glued.cells, ["ball"]], [*glued.boundaries, b3])


def toy() -> cx.CellComplex:
    return cx.from_tuples(range(5), TOY_EDGES, [TOY_TRIANGLE, TOY_SQUARE])


def toy_minus_triangle() -> cx.CellComplex:
    return cx.from_tuples(range(5), TOY_EDGES, [TOY_SQUARE])


def toy_graph() -> cx.CellComplex:
    return cx.from_tuples(range(5), TOY_EDGES)


def k2_paper() -> cx.CellComplex:
    """Single-edge complex with B1 = (1, -1)^T."""
    b1 = cx.BoundaryMatrix(2, 1, ((0, 0, 1), (1, 0, -1)))
    return cx.from_boundary_matrices([["u", "v"], ["e"]], [b1])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def rank_over_q(matrix) -> int:
    """Exact matrix rank by Gauss elimination over the rationals, on sparse rows."""
    array = np.asarray(matrix)
    if array.size == 0:
        return 0
    rows = [{j: Fraction(int(v)) for j, v in enumerate(row) if v} for row in array.tolist()]
    rank = 0
    for col in range(array.shape[1]):
        pivot = next((i for i in range(rank, len(rows)) if col in rows[i]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for row in rows[rank + 1 :]:
            if col in row:
                factor = row[col] / top[col]
                for j, v in top.items():
                    w = row.get(j, 0) - factor * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
        rank += 1
    return rank


def betti_oracle(cc: cx.CellComplex) -> tuple[int, ...]:
    """Betti numbers from the rational rank oracle."""
    ranks = [0] * (cc.dim + 2)
    for k in range(1, cc.dim + 1):
        ranks[k] = rank_over_q(cc.boundary(k).to_dense())
    return tuple(cc.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(cc.dim + 1))


def int_det(matrix: list[list[int]]) -> int:
    """Determinant by cofactor expansion; fine for the tiny oracle inputs."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * int_det(minor)
    return total


def minors_gcd(matrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    array = [[int(v) for v in row] for row in np.asarray(matrix).tolist()]
    n_rows, n_cols = len(array), len(array[0])
    result = 0
    for rows in itertools.combinations(range(n_rows), k):
        for cols in itertools.combinations(range(n_cols), k):
            minor = [[array[i][j] for j in cols] for i in rows]
            result = math.gcd(result, abs(int_det(minor)))
    return result


def to_dense_oracle(b: cx.BoundaryMatrix) -> np.ndarray:
    """B as a dense int64 array, written one entry at a time."""
    dense = np.zeros((b.rows, b.cols), dtype=np.int64)
    for i, j, s in b.entries:
        dense[i, j] = s
    return dense


def sorted_entries_oracle(rows: int, cols: int, entries) -> tuple:
    """A boundary's (row, col, sign) triplets sorted by (col, row) and
    checked one at a time, with the constructor's errors and messages."""
    entries = tuple(sorted(map(tuple, entries), key=lambda e: (e[1], e[0])))
    pi = pj = -1
    for i, j, s in entries:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeMismatch(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
        if s not in (-1, 1):
            raise ValueError(f"boundary entry sign must be +-1, got {s}")
        if i == pi and j == pj:
            raise DuplicateEntry(f"duplicate entry at ({i}, {j})")
        pi, pj = i, j
    return entries


def integer_product_oracle(a: cx.BoundaryMatrix, b: cx.BoundaryMatrix) -> dict:
    """Nonzero entries of a @ b, summed per column of b in dicts."""
    a_cols = a.columns()
    out = {}
    for j, column in enumerate(b.columns()):
        sums: dict[int, int] = {}
        for i, s in column:
            for r, s2 in a_cols[i]:
                sums[r] = sums.get(r, 0) + s * s2
        out.update(((r, j), v) for r, v in sums.items() if v)
    return out


def exactness_violation_oracle(cc: cx.CellComplex):
    """(k, row, col, value) of the first nonzero of B_{k-1} B_k, lowest k
    first, then in (col, row) order; None on a chain complex."""
    for k in range(2, cc.dim + 1):
        product = integer_product_oracle(cc.boundary(k - 1), cc.boundary(k))
        if product:
            (row, col), value = min(product.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            return k, row, col, value
    return None


def edge_endpoints_oracle(b1: cx.BoundaryMatrix, j: int) -> tuple[int, int]:
    """(tail, head) of edge j, read from its column alone."""
    column = b1.column(j)
    if len(column) != 2 or column[0][1] == column[1][1]:
        raise NotACycleColumn(f"edge column {j} is not a (tail, head) incidence")
    (a, sign), (b, _) = column
    return (a, b) if sign == -1 else (b, a)


def fundamental_cycles_oracle(cc: cx.CellComplex, root: int) -> cx.CellComplex:
    """The BFS spanning-tree lifting by full root paths: each non-tree edge's
    cycle runs along it, then from its head up to the lowest common ancestor
    (the first vertex of the tail's root path on the head's) and down to its
    tail.  The signed column is then traced back into a vertex cycle,
    turned into canonical orientation and labelled from its minimal vertex,
    with a "+" per earlier cell of the same label."""
    b1 = cc.boundary(1)
    pairs = [edge_endpoints_oracle(b1, j) for j in range(b1.cols)]
    adjacency = {i: [] for i in range(cc.n_cells(0))}
    for j, (t, h) in enumerate(pairs):
        adjacency[t].append((j, h))
        adjacency[h].append((j, t))
    parent, queue = {root: None}, [root]
    for u in queue:
        for j, v in adjacency[u]:
            if v not in parent:
                parent[v] = (j, u)
                queue.append(v)
    tree_edges = {p[0] for p in parent.values() if p}

    def root_path(v):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]][1])
        return path

    def tree_edge_between(a, b):
        return parent[a][0] if parent[a] and parent[a][1] == b else parent[b][0]

    labels, entries = [], []
    for j, (tail, head) in enumerate(pairs):
        if j in tree_edges:
            continue
        up, down = root_path(head), root_path(tail)
        common = next(v for v in down if v in up)
        walk = up[: up.index(common) + 1] + down[: down.index(common)][::-1]
        signed = {j: 1}
        for a, b in zip(walk, walk[1:]):
            edge = tree_edge_between(a, b)
            signed[edge] = 1 if pairs[edge] == (a, b) else -1
        cycle, reason = oriented_cycle(pairs, sorted(signed.items()))
        assert reason is None, reason
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        flip = -1 if len(cycle) >= 3 and cycle[1] > cycle[-1] else 1
        if flip == -1:
            cycle = cycle[:1] + cycle[:0:-1]
        label = "-".join(cc.cells[0][v] for v in cycle)
        while label in labels:
            label += "+"
        labels.append(label)
        entries += [(e, len(labels) - 1, flip * s) for e, s in signed.items()]
    if not labels:
        return cc
    b2 = cx.BoundaryMatrix(b1.cols, len(labels), entries)
    return cx.from_boundary_matrices([*cc.cells, labels], [b1, b2])


def chordless_cycles_oracle(cc: cx.CellComplex) -> cx.CellComplex:
    """The chordless cycle lifting by trying every vertex subset: a subset of
    three or more vertices is a chordless cycle when its induced subgraph is
    connected and 2-regular.  Each cycle is walked from its minimal vertex
    toward the smaller of that vertex's two neighbours; an edge walked from
    tail to head enters its column with +1.  Cells are sorted by vertex
    tuple and labelled by their vertex labels."""
    b1 = cc.boundary(1)
    pairs = [edge_endpoints_oracle(b1, j) for j in range(b1.cols)]
    cycles = []
    for size in range(3, cc.n_cells(0) + 1):
        for subset in itertools.combinations(range(cc.n_cells(0)), size):
            inside = set(subset)
            near = {v: [] for v in subset}
            for t, h in pairs:
                if t in inside and h in inside:
                    near[t].append(h)
                    near[h].append(t)
            if any(len(ns) != 2 for ns in near.values()):
                continue
            cycle = [subset[0], min(near[subset[0]])]
            while len(cycle) < size and cycle[-1] != cycle[0]:
                a, b = near[cycle[-1]]
                cycle.append(b if a == cycle[-2] else a)
            if len(cycle) == size and cycle[0] in near[cycle[-1]]:
                cycles.append(tuple(cycle))
    if not cycles:
        return cc
    labels, entries = [], []
    for col, cycle in enumerate(sorted(cycles)):
        label = "-".join(cc.cells[0][v] for v in cycle)
        while label in labels:
            label += "+"
        labels.append(label)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            j = next(j for j, p in enumerate(pairs) if set(p) == {a, b})
            entries.append((j, col, 1 if pairs[j] == (a, b) else -1))
    b2 = cx.BoundaryMatrix(b1.cols, len(labels), entries)
    return cx.from_boundary_matrices([*cc.cells, labels], [b1, b2])


def restrict_oracle(b: cx.BoundaryMatrix, rows, cols) -> tuple:
    """Triplets of the submatrix on the row/col lists, column by column."""
    rmap = {i: k for k, i in enumerate(rows)}
    return tuple(
        (rmap[i], c, s) for c, j in enumerate(cols) for i, s in b.column(j) if i in rmap
    )


def validate_nd_oracle(cc: cx.CellComplex) -> list[tuple[str, str, str]]:
    """(condition, cell, detail) of every failure of the per-cell
    conditions, from a restricted BoundaryMatrix and its Smith form per
    cell boundary, after a B1-columns failure for each edge column whose
    sorted signs are not [-1, 1]."""
    failures = []
    for j, column in enumerate(cc.boundary(1).columns() if cc.dim >= 1 else []):
        signs = sorted(s for _, s in column)
        if signs != [-1, 1]:
            failures.append(("B1-columns", f"1-cell {cc.cells[1][j]}",
                             f"column has signs {signs}, expected one -1 and one +1"))
    for k in range(1, cc.dim + 1):
        for index in range(cc.n_cells(k)):
            cell = f"{k}-cell {cc.cells[k][index]}"
            layers = closure_indices(cc, cx.CellRef(k, index))
            hats = [cc.boundary(l).restrict(layers[l - 1], layers[l]) for l in range(1, k + 1)]
            snfs = [cx.smith_normal_form(b) for b in hats]
            if snfs[k - 1].rank != 1:
                failures.append(("cell-acyclic", cell, "boundary column is zero"))
            for l in range(2, k + 1):
                kernel, image = hats[l - 2].cols - snfs[l - 2].rank, snfs[l - 1]
                factors = image.diagonal[: image.rank]
                if kernel != image.rank or any(d != 1 for d in factors):
                    failures.append((
                        "cell-acyclic", cell,
                        f"ker B_{l - 1} != im B_{l} on the closure (kernel rank {kernel}, "
                        f"image rank {image.rank}, factors {factors})",
                    ))
            cokernel, factors = hats[0].rows - snfs[0].rank, snfs[0].diagonal[: snfs[0].rank]
            if cokernel != 1 or any(d != 1 for d in factors):
                failures.append((
                    "cell-connected", cell,
                    f"integer cokernel of B_1 on the closure has rank {cokernel} "
                    f"with factors {factors}, expected Z",
                ))
    return failures


def apply_boundary_oracle(cc: cx.CellComplex, chain: cx.ChainVector) -> np.ndarray:
    """B_k x, adding one entry at a time in stored order."""
    b = cc.boundary(chain.dim)
    out = np.zeros(b.rows)
    for i, j, s in b.entries:
        out[i] += s * chain.values[j]
    return out


def dense_boundary_oracle(
    cc: cx.CellComplex, k: int, weights: cx.WeightSet | None = None
) -> np.ndarray:
    """W_{k-1}^{-1/2} B_k W_k^{1/2} by dense broadcasting; empty maps at k = 0, dim + 1."""
    if k == 0:
        return np.zeros((0, cc.n_cells(0)))
    if k == cc.dim + 1:
        return np.zeros((cc.n_cells(cc.dim), 0))
    dense = to_dense_oracle(cc.boundary(k)).astype(float)
    if weights is None:
        return dense
    left = 1.0 / np.sqrt(weights.vector(k - 1))
    right = np.sqrt(weights.vector(k))
    return left[:, None] * dense * right[None, :]


def rw_weights_oracle(cc: cx.CellComplex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random-walk weights from the dense |B_1| and |B_2|."""
    abs_b1 = np.abs(dense_boundary_oracle(cc, 1))
    abs_b2 = np.abs(dense_boundary_oracle(cc, 2))
    w2 = abs_b2.T @ np.ones(cc.n_cells(1))
    w1 = np.maximum(abs_b2 @ np.ones(cc.n_cells(2)), 1.0)
    w0 = 2.0 * (abs_b1 @ w1)
    return w0, w1, w2


def project_onto_image(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the column space of matrix."""
    if matrix.shape[1] == 0:
        return np.zeros_like(x)
    coeffs, *_ = np.linalg.lstsq(matrix, x, rcond=None)
    return matrix @ coeffs


def classify_eigenvector(
    cc: cx.CellComplex,
    k: int,
    vector: np.ndarray,
    weights: cx.WeightSet | None = None,
    threshold: float = 1e-7,
) -> tuple[str, float]:
    """Tag a unit vector by projection residual against the three subspaces.

    Returns (tag, residual); ties go to the smallest residual, and a
    residual above the threshold still yields the best-matching tag.
    """
    v = np.asarray(vector, dtype=float)
    v = v / np.linalg.norm(v)
    down = dense_boundary_oracle(cc, k, weights)
    up = dense_boundary_oracle(cc, k + 1, weights)
    lap = cx.hodge_laplacian(cc, k, "full", weights)
    residuals = {
        "gradient": float(np.linalg.norm(v - project_onto_image(down.T, v))),
        "curl": float(np.linalg.norm(v - project_onto_image(up, v))),
        "harmonic": float(np.linalg.norm(lap @ v)),
    }
    tag = min(residuals, key=lambda t: (residuals[t] > threshold, residuals[t]))
    return tag, residuals[tag]


def decompose_oracle(
    cc: cx.CellComplex, k: int, x: np.ndarray, weights: cx.WeightSet | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient, curl and harmonic parts by least-squares projection."""
    gradient = project_onto_image(dense_boundary_oracle(cc, k, weights).T, x)
    curl = project_onto_image(dense_boundary_oracle(cc, k + 1, weights), x)
    return gradient, curl, x - gradient - curl


def _exact_root(w: float) -> Fraction:
    """The square root of a float that is a power of 4, as an exact rational."""
    w = Fraction(w)
    num, den = math.isqrt(w.numerator), math.isqrt(w.denominator)
    assert Fraction(num, den) ** 2 == w, f"{w} is not a rational square"
    return Fraction(num, den)


def _project_exact(columns: list[list[Fraction]], x: list[Fraction]) -> list[Fraction]:
    """Orthogonal projection of x onto the span of the columns, by Gram-Schmidt
    over the rationals (no normalisation, so no square roots)."""
    basis = []
    for column in columns:
        v = list(column)
        for u, norm in basis:
            c = sum(a * b for a, b in zip(v, u)) / norm
            v = [a - c * b for a, b in zip(v, u)]
        if any(v):
            basis.append((v, sum(a * a for a in v)))
    out = [Fraction(0)] * len(x)
    for u, norm in basis:
        c = sum(a * b for a, b in zip(x, u)) / norm
        out = [a + c * b for a, b in zip(out, u)]
    return out


def decompose_exact_oracle(
    cc: cx.CellComplex, k: int, x: np.ndarray, weights: cx.WeightSet | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient, curl and harmonic parts by exact projection over the rationals
    onto the columns of the weighted B_k^T and B_{k+1}, all weights read in.

    Every weight must be a power of 4 (as 4.0 ** u for integer u), so that
    W^{1/2} is exact; the parts are rounded to floats once, at the end.
    """

    def roots(j: int) -> list[Fraction]:
        n = cc.n_cells(j) if 0 <= j <= cc.dim else 0
        return [_exact_root(w) for w in weights.vector(j)] if weights else [Fraction(1)] * n

    def weighted(j: int) -> list[list[Fraction]]:
        """The columns of W_{j-1}^{-1/2} B_j W_j^{1/2}."""
        if not 1 <= j <= cc.dim:
            return []
        dense = to_dense_oracle(cc.boundary(j)).tolist()
        left, right = roots(j - 1), roots(j)
        return [[dense[i][c] * right[c] / left[i] for i in range(len(left))]
                for c in range(len(right))]

    values = [Fraction(float(v)) for v in x]
    down = weighted(k)
    gradient = _project_exact([list(row) for row in zip(*down)] if down else [], values)
    curl = _project_exact(weighted(k + 1), values)
    harmonic = [v - g - c for v, g, c in zip(values, gradient, curl)]
    return tuple(np.array([float(v) for v in part]) for part in (gradient, curl, harmonic))


def filter_oracle(
    cc: cx.CellComplex,
    k: int,
    x: np.ndarray,
    descriptor: str,
    weights: cx.WeightSet | None = None,
) -> np.ndarray:
    """U f(Lambda) U^T x from one eigh of the full Laplacian L_k."""
    evals, vecs = np.linalg.eigh(cx.hodge_laplacian(cc, k, "full", weights))
    parsed = hodge._parse(descriptor)
    if isinstance(parsed, float):  # the heat time t
        f = np.exp(-parsed * evals)
    else:  # polynomial coefficients, by Horner's rule
        f = np.zeros_like(evals)
        for c in reversed(parsed):
            f = f * evals + c
    return vecs @ (f * (vecs.T @ x))


def heat_taylor_oracle(
    cc: cx.CellComplex,
    k: int,
    x: np.ndarray,
    t: float,
    weights: cx.WeightSet | None = None,
) -> np.ndarray:
    """exp(-t L_k) x by scaling and squaring on sparse matvecs, with no dense matrix.

    exp(-t L) = exp(-t L / s)^s, applied to x as s steps, with s = ceil(t g)
    for g the Gershgorin bound on L_k from |B| products; each step sums the
    Taylor series of its short exponential until a term falls below 1e-18
    of the sum.  The weighted boundaries are read from the entry triplets.
    """
    sides = []
    for j in (k, k + 1):
        if 1 <= j <= cc.dim:
            rows, cols, signs = np.array(cc.boundary(j).entries, dtype=np.int64).reshape(-1, 3).T
            values = signs.astype(float)
            if weights is not None:
                values *= np.sqrt(weights.vector(j)[cols] / weights.vector(j - 1)[rows])
            sides.append((rows, cols, values, cc.n_cells(j - 1), cc.n_cells(j), j == k))

    def laplacian(v: np.ndarray, absolute: bool = False) -> np.ndarray:
        out = np.zeros(len(v))
        for rows, cols, values, m, n, down in sides:
            values = np.abs(values) if absolute else values
            if down:  # B_k^T B_k v
                inner = np.bincount(rows, weights=values * v[cols], minlength=m)
                out += np.bincount(cols, weights=values * inner[rows], minlength=n)
            else:  # B_{k+1} B_{k+1}^T v
                inner = np.bincount(cols, weights=values * v[rows], minlength=n)
                out += np.bincount(rows, weights=values * inner[cols], minlength=m)
        return out

    steps = max(1, math.ceil(t * np.max(laplacian(np.ones(len(x)), True), initial=0.0)))
    for _ in range(steps):
        term, total, i = x, x.astype(float), 1
        while np.max(np.abs(term), initial=0.0) > 1e-18 * np.max(np.abs(total), initial=0.0):
            term = -t / steps / i * laplacian(term)
            total = total + term
            i += 1
        x = total
    return x


def filtration_columns_oracle(filtration: Filtration) -> tuple[list, list[set[int]]]:
    """The cells as (birth, dim, cell index), sorted, and the boundary matrix in
    that order: column p holds the positions of the faces that B_k lists for
    the cell at p, read one column at a time; signs are dropped, as over Z/2."""
    mats = filtration.boundaries
    sizes = [mats[0].rows if mats else len(filtration.cell_births), *(b.cols for b in mats)]
    flat = [(k, i) for k, n in enumerate(sizes) for i in range(n)]
    cells = sorted((birth, k, i) for birth, (k, i) in zip(filtration.cell_births.tolist(), flat))
    position = {(k, i): p for p, (_, k, i) in enumerate(cells)}
    columns = [
        {position[k - 1, row] for row, _ in mats[k - 1].column(i)} if k else set()
        for _, k, i in cells
    ]
    return cells, columns


def persistence_pairs_oracle(filtration: Filtration) -> list[tuple[int, int]]:
    """(birth, death) positions of the pairs of the standard Z/2 column
    reduction, in filtration order: column j's lowest entry after reduction
    is paired with j."""
    _, columns = filtration_columns_oracle(filtration)
    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j, column in enumerate(columns):
        while column:
            low = max(column)
            owner = low_owner.get(low)
            if owner is None:
                break
            column ^= columns[owner]
        if column:
            low_owner[max(column)] = j
            pairs.append((max(column), j))
    return pairs


def apparent_pairs_oracle(filtration: Filtration) -> set[tuple[int, int]]:
    """(sigma, tau) positions, sigma of dimension at least 1, where sigma is the
    youngest face of tau and tau the oldest coface of sigma, read off the
    unreduced columns."""
    cells, columns = filtration_columns_oracle(filtration)
    cofaces: dict[int, list[int]] = {}
    for tau, column in enumerate(columns):
        for sigma in column:
            cofaces.setdefault(sigma, []).append(tau)
    return {
        (sigma, min(taus)) for sigma, taus in cofaces.items()
        if cells[sigma][1] >= 1 and max(columns[min(taus)]) == sigma
    }


def persistence_oracle(
    filtration: Filtration, keep_zero_bars: bool = False
) -> PersistenceDiagram:
    """Standard Z/2 column reduction of the filtration boundary matrix
    (persistence_pairs_oracle): a pair (i, j) is a bar from the birth of
    cell i to that of cell j, and a cell in no pair an infinite bar."""
    cells, _ = filtration_columns_oracle(filtration)
    pairs = persistence_pairs_oracle(filtration)
    bars = []
    for i, j in pairs:
        bar = PersistenceBar(cells[i][1], cells[i][0], cells[j][0])
        if keep_zero_bars or bar.death > bar.birth:
            bars.append(bar)
    paired = {p for pair in pairs for p in pair}
    for i, (birth, dim, _) in enumerate(cells):
        if i not in paired:
            bars.append(PersistenceBar(dim, birth, math.inf))
    bars.sort(key=lambda b: (b.dim, b.birth, b.death))
    return PersistenceDiagram(
        np.array([b.dim for b in bars], dtype=np.int64),
        np.array([b.birth for b in bars], dtype=float),
        np.array([b.death for b in bars], dtype=float),
    )


def lower_star_filtration(cc: cx.CellComplex, values) -> Filtration:
    """cc filtered by the values on its 0-cells: each cell is born at the
    largest value over the 0-cells of its closure (``closure_indices``),
    and a cell whose closure holds no 0-cell at the smallest value."""
    births = [
        max((values[v] for v in closure_indices(cc, cx.CellRef(k, i))[0]), default=min(values))
        for k in range(cc.dim + 1)
        for i in range(cc.n_cells(k))
    ]
    return Filtration(cc.boundaries, births)


def product_labels_oracle(a: cx.CellComplex, b: cx.CellComplex) -> tuple[tuple[str, ...], ...]:
    """The label layers of product(a, b) by a Counter over each dimension's
    ``(la,lb)`` labels, blocks in first-factor dimension order: a label that
    occurs in more than one block gets that block's dimension as ``[k]``."""
    names_a = [[_factor_label(label) for label in layer] for layer in a.cells]
    names_b = [[_factor_label(label) for label in layer] for layer in b.cells]
    layers = []
    for total in range(a.dim + b.dim + 1):
        labelled = [
            (k, f"({la},{lb})")
            for k in range(max(0, total - b.dim), min(total, a.dim) + 1)
            for la in names_a[k]
            for lb in names_b[total - k]
        ]
        counts = Counter(label for _, label in labelled)
        layers.append(tuple(l if counts[l] == 1 else f"{l}[{k}]" for k, l in labelled))
    return tuple(layers)


def rips_oracle(
    pc: cx.PointCloud, eps: float, max_dim: int
) -> list[tuple[tuple[int, ...], float]]:
    """Every vertex subset of at most max_dim + 1 points within eps pairwise.

    Sorted by (dimension, vertex tuple); a simplex's diameter is its
    largest pairwise distance, 0.0 for a vertex.
    """
    dist = distances_oracle(pc)
    out = [((i,), 0.0) for i in range(len(pc))]
    for size in range(2, max_dim + 2):
        for subset in itertools.combinations(range(len(pc)), size):
            lengths = [dist[a, b] for a, b in itertools.combinations(subset, 2)]
            if all(d <= eps for d in lengths):
                out.append((subset, max(lengths)))
    return out


def rips_listed(levels) -> list[tuple[tuple[int, ...], float]]:
    """rips_simplices levels as one list of (vertex tuple, diameter), in
    the oracle's format, after checking each level's array shapes."""
    out = []
    for k, (vertices, diameters) in enumerate(levels):
        assert len(diameters) and vertices.shape == (len(diameters), k + 1)
        out += zip(map(tuple, vertices.tolist()), diameters.tolist())
    return out


def simplex_boundary_oracle(layers) -> list[dict[tuple[int, int], int]]:
    """B_1..B_n of simplex layers (lists of vertex tuples, in cell order) as
    {(row, col): sign} dicts: the face of simplex col without its vertex i
    is looked up in a dict of the layer below and gets sign (-1)^i."""
    mats = []
    for below, layer in zip(layers, layers[1:]):
        row = {tuple(face): r for r, face in enumerate(below)}
        mats.append({
            (row[tuple(s[:i]) + tuple(s[i + 1 :])], col): (-1) ** i
            for col, s in enumerate(layer)
            for i in range(len(s))
        })
    return mats


def distances_oracle(pc: cx.PointCloud) -> np.ndarray:
    """Euclidean distances by broadcasting every coordinate at once, for
    each pair whose nonzero squares and their sum are normal floats.

    The other pairs, whose squares leave the float range, are taken one
    at a time: the differences are multiplied by 2^-e, for e the exponent
    (math.frexp) of the largest, and the root by 2^e.  A pair whose
    differences overflow is taken from its halved points, and a root past
    the float range is inf.
    """
    pts = pc.points
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        squares = diff**2
        total = np.sum(squares, axis=-1)
        out = np.sqrt(total)
    normal = (diff == 0) | ((squares >= np.finfo(float).tiny) & np.isfinite(squares))
    in_range = normal.all(axis=-1) & np.isfinite(total)
    for i, j in zip(*np.nonzero(~in_range)):
        with np.errstate(over="ignore"):
            diff = pts[i] - pts[j]
            halve = not np.isfinite(diff).all()
            if halve:
                diff = pts[i] / 2 - pts[j] / 2
            e = math.frexp(float(np.abs(diff).max()))[1]
            root = np.sqrt(np.sum(np.ldexp(diff, -e) ** 2))
            out[i, j] = np.ldexp(root, e + halve)
    return out


def dumps_oracle(doc) -> str:
    """The writer contract of ``io.dumps``: the standard library's indented dump."""
    return json.dumps(doc, indent=2) + "\n"


def _cross(o, p, q) -> float:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _segments_conflict(p1, p2, q1, q2, eps: float) -> bool:
    """True when two segments without shared endpoints touch at all."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True

    def on_segment(a, b, c) -> bool:
        if abs(_cross(a, b, c)) > eps:
            return False
        return (
            min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
        )

    return (
        on_segment(q1, q2, p1)
        or on_segment(q1, q2, p2)
        or on_segment(p1, p2, q1)
        or on_segment(p1, p2, q2)
    )


def planar_embedding_oracle(points, edges, labels=()) -> None:
    """Every check of ``PlanarEmbedding``, pair by pair in Python loops.

    Raises what the constructor raises, with the same message, or
    returns None where it accepts the drawing.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
    n = len(pts)
    labels = labels or tuple(str(i) for i in range(n))
    if len(labels) != n:
        raise ShapeMismatch(f"{n} coordinate rows for {len(labels)} vertices")
    if len(set(labels)) != n:
        raise DuplicateLabel("need one unique label per vertex")
    scale = float(np.max(np.abs(pts)))
    eps = 1e-12 * scale * scale
    seen_pairs, read = set(), []
    for u, v in edges:
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
        read.append((u, v))
    edges = read
    for i in range(n):
        for j in range(i + 1, n):
            if np.allclose(pts[i], pts[j], atol=eps):
                raise EdgesCross(f"vertices {i} and {j} share coordinates")
    for (u1, v1), (u2, v2) in itertools.combinations(edges, 2):
        if {u1, v1} & {u2, v2}:
            continue
        if _segments_conflict(pts[u1], pts[v1], pts[u2], pts[v2], eps):
            raise EdgesCross(f"edges ({u1}, {v1}) and ({u2}, {v2}) intersect")
    for w in range(n):
        for u, v in edges:
            if w in (u, v):
                continue
            d = _cross(pts[u], pts[v], pts[w])
            if abs(d) <= eps and (
                min(pts[u][0], pts[v][0]) - eps <= pts[w][0] <= max(pts[u][0], pts[v][0]) + eps
                and min(pts[u][1], pts[v][1]) - eps <= pts[w][1] <= max(pts[u][1], pts[v][1]) + eps
            ):
                raise EdgesCross(f"vertex {w} lies on edge ({u}, {v})")


def window_lifting_oracle(graph: cx.CellComplex, points) -> cx.CellComplex:
    """The window lifting by the dict walk that the dart arrays replaced.

    Each vertex's neighbours are sorted by one scalar ``np.arctan2`` per
    dart; each face is walked dart by dart from the smallest (u, v) not yet
    walked, the dart after (u, v) being (v, w) with w just before u in v's
    ring; its area is a Python sum over the walk, and a window's column sums
    the walk's signed edges per edge in a dict.  The drawing is checked by
    ``planar_embedding_oracle`` and the result by ``from_boundary_matrices``.
    """
    b1 = graph.boundary(1)
    edges = [edge_endpoints_oracle(b1, j) for j in range(b1.cols)]
    planar_embedding_oracle(points, edges, graph.cells[0])
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    lookup: dict[tuple[int, int], tuple[int, int]] = {}
    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for j, (u, v) in enumerate(edges):
        lookup[u, v], lookup[v, u] = (j, 1), (j, -1)
        adjacency[u].append(v)
        adjacency[v].append(u)
    reached, stack = {0}, [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != n:
        raise Disconnected("underlying graph is not connected")
    order = {
        u: sorted(ring, key=lambda w: np.arctan2(pts[w][1] - pts[u][1], pts[w][0] - pts[u][0]))
        for u, ring in adjacency.items()
    }
    remaining, faces = set(lookup), []
    for dart in sorted(lookup):
        walk = []
        while dart in remaining:
            remaining.discard(dart)
            walk.append(dart)
            u, v = dart
            ring = order[v]
            dart = (v, ring[(ring.index(u) - 1) % len(ring)])
        if walk:
            faces.append(walk)
    if len(faces) <= 1:
        return graph
    areas = [sum(pts[u][0] * pts[v][1] - pts[v][0] * pts[u][1] for u, v in walk)
             for walk in faces]
    negatives = [i for i, area in enumerate(areas) if area < 0]
    if len(negatives) != 1:
        raise EdgesCross(
            f"face traversal found {len(negatives)} outer faces; drawing is not plane"
        )
    windows = []
    for i, walk in enumerate(faces):
        if i == negatives[0]:
            continue
        net: dict[int, int] = {}
        for step in walk:
            j, sign = lookup[step]
            net[j] = net.get(j, 0) + sign
        column = [(j, sign) for j, sign in sorted(net.items()) if sign]
        cycle, reason = oriented_cycle(edges, column)
        if reason is not None:
            raise NotACycleColumn(f"window boundary is not a simple cycle: {reason}")
        windows.append((cycle, column))
    windows.sort(key=lambda window: window[0])
    labels = ["-".join(graph.cells[0][i] for i in cycle) for cycle, _ in windows]
    entries = [(j, c, sign) for c, (_, column) in enumerate(windows) for j, sign in column]
    b2 = cx.BoundaryMatrix(len(edges), len(windows), entries)
    return cx.from_boundary_matrices([*graph.cells, labels], [b1, b2])


# ---------------------------------------------------------------------------
# Randomized generators
# ---------------------------------------------------------------------------


@st.composite
def clouds(draw, max_points: int = 8) -> cx.PointCloud:
    """Up to max_points points in R^1..R^3, with uniform coordinates in
    [0, 2] or integer coordinates in 0..3 (repeated points, tied distances)."""
    n = draw(st.integers(1, max_points))
    d = draw(st.integers(1, 3))
    coordinate = draw(st.sampled_from([st.floats(0, 2), st.integers(0, 3)]))
    point = st.lists(coordinate, min_size=d, max_size=d)
    return cx.PointCloud(draw(st.lists(point, min_size=n, max_size=n)))


def scales() -> st.SearchStrategy[float]:
    """Rips scales: none, any, or every edge."""
    return st.one_of(st.just(0.0), st.floats(0, 4), st.just(math.inf))


def random_connected_graph(
    rng: random.Random, n_min: int = 3, n_max: int = 7, extra_min: int = 0
) -> cx.CellComplex:
    """Connected simple graph as a 1-complex, random spanning tree plus extras."""
    n = rng.randint(n_min, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    used = {frozenset(e) for e in edges}
    candidates = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if frozenset((a, b)) not in used
    ]
    rng.shuffle(candidates)
    n_extra = min(len(candidates), rng.randint(extra_min, 3))
    edges += candidates[:n_extra]
    return cx.from_tuples(range(n), edges)


# Labels from the alphabet (),\\a, mostly from a short list, so that one
# label often recurs in several dimensions of a factor.
LABEL_POOL = ("", "a", "(a)", "a,a", "(", ")", ",", "\\", "(,)", "a\\,", "((a),a)", "aa")


@st.composite
def labelled_factors(draw) -> cx.CellComplex:
    """A small complex (a point, paths, a filled triangle, a square, the toy) with
    each layer relabelled by distinct labels over the alphabet ``(),\\a``."""
    template = draw(st.sampled_from([
        cx.from_tuples(["p"]), cx.cubical([2]), cx.cubical([3]), cx.cubical([2, 2]),
        cx.from_tuples(range(3), [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)]), toy(),
    ]))
    label = st.one_of(st.sampled_from(LABEL_POOL), st.text(alphabet="(),\\a", max_size=4))
    layers = [
        draw(st.lists(label, min_size=len(layer), max_size=len(layer), unique=True))
        for layer in template.cells
    ]
    return cx.from_boundary_matrices(layers, template.boundaries)


def random_cloud(rng: random.Random, n_min: int = 2, n_max: int = 8) -> cx.PointCloud:
    n = rng.randint(n_min, n_max)
    return cx.PointCloud([[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(n)])


def random_factor(rng: random.Random) -> cx.CellComplex:
    """Small complex suitable as a product factor."""
    choice = rng.randrange(5)
    if choice == 0:
        return cx.from_tuples(["p"])
    if choice == 1:
        return cx.cubical([rng.randint(2, 4)])
    if choice == 2:
        return cx.from_tuples(range(3), [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)])
    if choice == 3:
        n = rng.randint(3, 5)
        edges = [(i, (i + 1) % n) for i in range(n)]
        return cx.from_tuples(range(n), edges, [tuple(range(n))])
    return toy()


def random_builder_complex(rng: random.Random) -> cx.CellComplex:
    """One small output drawn across the builder family."""
    kind = rng.randrange(6)
    if kind == 0:
        return cx.vietoris_rips(random_cloud(rng), rng.uniform(0.3, 2.5), 2)
    if kind == 1:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        return cx.cubical(sizes)
    if kind == 2:
        return cx.product(random_factor(rng), random_factor(rng))
    if kind == 3:
        return cx.spanning_tree_lifting(random_connected_graph(rng))
    if kind == 4:
        return cx.chordless_cycle_lifting(random_connected_graph(rng))
    simplices = set()
    n = rng.randint(3, 6)
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(1, 3)
        simplices.add(tuple(sorted(rng.sample(range(n), size))))
    simplices.update((v,) for v in range(n))
    return cx.from_simplicial(range(n), simplices, auto_close=True)


def random_two_complex(rng: random.Random) -> cx.CellComplex:
    """Constructible 2-complex whose 2-cells may violate the cycle condition.

    Columns are integer combinations of fundamental cycles (so exactness
    always holds), zero columns, or go with a corrupted B1 column; the
    mix exercises agreement between the elementary and per-cell
    validators.
    """
    while True:
        graph = random_connected_graph(rng, n_min=4, extra_min=1)
        lifted = cx.spanning_tree_lifting(graph)
        if lifted.dim == 2:
            break
    n_edges = graph.n_cells(1)
    basis = []
    for j in range(lifted.n_cells(2)):
        vec = [0] * n_edges
        for i, s in lifted.boundary(2).column(j):
            vec[i] = s
        basis.append(vec)
    b1 = graph.boundary(1)
    if rng.random() < 0.1:
        # One corrupted B1 entry plus a zero B2 column keeps exactness.
        i, j, s = rng.choice(b1.entries)
        entries = tuple(
            (ei, ej, -es if (ei, ej) == (i, j) else es) for ei, ej, es in b1.entries
        )
        bad_b1 = cx.BoundaryMatrix(b1.rows, b1.cols, entries)
        b2 = cx.BoundaryMatrix(n_edges, 1, ())
        return cx.CellComplex(
            2, (*graph.cells, ("f0",)), (bad_b1, b2)
        )
    columns = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.15:
            columns.append([])
            continue
        for _ in range(12):
            count = rng.randint(1, min(3, len(basis)))
            combo = [0] * n_edges
            for vec in rng.sample(basis, count):
                sign = rng.choice((-1, 1))
                combo = [a + sign * b for a, b in zip(combo, vec)]
            if any(combo) and all(abs(v) <= 1 for v in combo):
                columns.append([(i, v) for i, v in enumerate(combo) if v])
                break
        else:
            columns.append([(i, v) for i, v in enumerate(basis[0]) if v])
    entries = tuple(
        (i, col, s) for col, column in enumerate(columns) for i, s in column
    )
    b2 = cx.BoundaryMatrix(n_edges, len(columns), entries)
    labels = tuple(f"f{c}" for c in range(len(columns)))
    return cx.from_boundary_matrices(
        [list(graph.cells[0]), list(graph.cells[1]), list(labels)], [b1, b2]
    )


def random_weights(
    rng: random.Random, cc: cx.CellComplex, spread: float = 1.5
) -> cx.WeightSet:
    """Weights exp(u) with u uniform in [-spread, spread]."""
    return cx.WeightSet(
        tuple(
            np.array([math.exp(rng.uniform(-spread, spread)) for _ in range(cc.n_cells(k))])
            for k in range(cc.dim + 1)
        )
    )


def power_of_four_weights(rng: random.Random, cc: cx.CellComplex, spread: int = 7) -> cx.WeightSet:
    """Weights 4^u with u a uniform integer in [-spread, spread], so W^{1/2} is exact."""
    return cx.WeightSet(
        tuple(
            np.array([4.0 ** rng.randint(-spread, spread) for _ in range(cc.n_cells(k))])
            for k in range(cc.dim + 1)
        )
    )


def exactness_holds(cc: cx.CellComplex) -> bool:
    """Direct integer check of B_{k-1} @ B_k = 0, independent of core: the
    product over Python ints, each entry (i, j, s) of B_k expanded into the
    entries of column i of B_{k-1}, read from the triplets."""
    for k in range(2, cc.dim + 1):
        below: dict[int, list[tuple[int, int]]] = {}
        for r, i, s in cc.boundary(k - 1).entries:
            below.setdefault(i, []).append((r, s))
        product: dict[tuple[int, int], int] = {}
        for i, j, s in cc.boundary(k).entries:
            for r, s2 in below.get(i, ()):
                product[r, j] = product.get((r, j), 0) + s * s2
        if any(product.values()):
            return False
    return True
