"""Seeded input generators for the ccx benchmark.

Everything here is the benchmark's own code: no input is made by the
program under test, so a fault in its builders cannot change what it is
fed.  A complex is a plain ``Cx`` value (labels per dimension plus
(rows, cols, signs) arrays per boundary map) that serialises to the
documented ``ccx`` JSON format.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class Bd:
    """One boundary map B_k as coordinate arrays."""

    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    shape: tuple[int, int]


@dataclass
class Cx:
    labels: list[list[str]]
    bds: list[Bd]

    @property
    def dim(self) -> int:
        return len(self.labels) - 1

    def counts(self) -> list[int]:
        return [len(layer) for layer in self.labels]

    def to_doc(self) -> dict:
        boundaries = []
        for k, b in enumerate(self.bds, start=1):
            order = np.lexsort((b.rows, b.cols))
            entries = np.column_stack((b.rows[order], b.cols[order], b.signs[order]))
            boundaries.append(
                {"k": k, "rows": b.shape[0], "cols": b.shape[1], "entries": entries.tolist()}
            )
        return {"dim": self.dim, "cells": self.labels, "boundaries": boundaries}


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def write_csv(path: str, rows: np.ndarray) -> None:
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")


def _bd(rows, cols, signs, shape) -> Bd:
    return Bd(np.asarray(rows, np.int64), np.asarray(cols, np.int64),
              np.asarray(signs, np.int64), shape)


# ---------------------------------------------------------------------------
# Cubical grids, written out cell by cell
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cubical_cells(sizes: tuple[int, ...]):
    """Cells (base point, axes) of the grid with sizes[i] vertices per axis."""
    d = len(sizes)
    layers = []
    for k in range(d + 1):
        layer = []
        for axes in itertools.combinations(range(d), k):
            ranges = [range(n - 1) if a in axes else range(n) for a, n in enumerate(sizes)]
            layer.extend((p, axes) for p in itertools.product(*ranges))
        layers.append(layer)
    index = [{cell: i for i, cell in enumerate(layer)} for layer in layers]
    bds = []
    for k in range(1, d + 1):
        rows, cols, signs = [], [], []
        for j, (p, axes) in enumerate(layers[k]):
            for t, a in enumerate(axes):
                face_axes = axes[:t] + axes[t + 1:]
                up = p[:a] + (p[a] + 1,) + p[a + 1:]
                sign = -1 if t % 2 else 1
                rows += [index[k - 1][(up, face_axes)], index[k - 1][(p, face_axes)]]
                cols += [j, j]
                signs += [sign, -sign]
        bds.append(_bd(rows, cols, signs, (len(layers[k - 1]), len(layers[k]))))
    labels = [[".".join(map(str, p)) + ("/" + "".join(map(str, ax)) if ax else "")
               for p, ax in layer] for layer in layers]
    return layers, labels, bds


def cubical(sizes, drop_squares=()) -> Cx:
    """Cubical grid; ``drop_squares`` removes those 2-cells (2-D grids only)."""
    _, labels, bds = _cubical_cells(tuple(sizes))
    cx = Cx([list(l) for l in labels], list(bds))
    if drop_squares:
        keep = np.setdiff1d(np.arange(len(labels[2])), np.asarray(drop_squares))
        cx = subcomplex_top(cx, keep)
    return cx


def interior_squares(n: int, count: int, rng) -> list[int]:
    """``count`` pairwise non-touching squares away from the grid border.

    Removing such squares from an n-by-n grid leaves a disk with
    ``count`` holes, so beta_1 equals ``count``.
    """
    chosen: list[tuple[int, int]] = []
    candidates = [(i, j) for i in range(1, n - 2) for j in range(1, n - 2)]
    for idx in rng.permutation(len(candidates)):
        i, j = candidates[idx]
        if all(abs(i - a) > 1 or abs(j - b) > 1 for a, b in chosen):
            chosen.append((i, j))
            if len(chosen) == count:
                break
    if len(chosen) != count:
        raise ValueError("grid too small for the requested holes")
    return sorted(i * (n - 1) + j for i, j in chosen)  # index in cubical([n, n])


def subcomplex_top(cx: Cx, keep: np.ndarray) -> Cx:
    """Keep only the given top cells."""
    top = cx.bds[-1]
    mask = np.isin(top.cols, keep)
    remap = np.full(top.shape[1], -1)
    remap[keep] = np.arange(len(keep))
    new_top = _bd(top.rows[mask], remap[top.cols[mask]], top.signs[mask],
                  (top.shape[0], len(keep)))
    labels = cx.labels[:-1] + [[cx.labels[-1][i] for i in keep]]
    return Cx(labels, cx.bds[:-1] + [new_top])


# ---------------------------------------------------------------------------
# Products (tori from cycles), simplicial complexes, RP^2
# ---------------------------------------------------------------------------


def cycle_graph(n: int, prefix: str = "") -> Cx:
    return graph(n, [(i, (i + 1) % n) for i in range(n)], [f"{prefix}{i}" for i in range(n)])


def path_graph(n: int, prefix: str = "") -> Cx:
    return graph(n, [(i, i + 1) for i in range(n - 1)], [f"{prefix}{i}" for i in range(n)])


def product(a: Cx, b: Cx) -> Cx:
    """Cartesian product; cell (x, y) has boundary dx*y + (-1)^|x| x*dy."""
    dim = a.dim + b.dim
    na, nb = a.counts(), b.counts()
    offsets = []  # per total dim: {(ka, kb): offset}
    labels = []
    for total in range(dim + 1):
        off, table, layer = 0, {}, []
        for ka in range(max(0, total - b.dim), min(total, a.dim) + 1):
            kb = total - ka
            table[(ka, kb)] = off
            off += na[ka] * nb[kb]
            layer.extend(f"{x}*{y}" for x in a.labels[ka] for y in b.labels[kb])
        offsets.append(table)
        labels.append(layer)
    bds = []
    for total in range(1, dim + 1):
        rows, cols, signs = [], [], []
        for (ka, kb), off in offsets[total].items():
            if ka >= 1:
                ba = a.bds[ka - 1]
                for y in range(nb[kb]):
                    rows.append(offsets[total - 1][(ka - 1, kb)] + ba.rows * nb[kb] + y)
                    cols.append(off + ba.cols * nb[kb] + y)
                    signs.append(ba.signs)
            if kb >= 1:
                bb = b.bds[kb - 1]
                for x in range(na[ka]):
                    rows.append(offsets[total - 1][(ka, kb - 1)] + x * nb[kb - 1] + bb.rows)
                    cols.append(off + x * nb[kb] + bb.cols)
                    signs.append((-1) ** ka * bb.signs)
        bds.append(_bd(np.concatenate(rows), np.concatenate(cols), np.concatenate(signs),
                       (len(labels[total - 1]), len(labels[total]))))
    return Cx(labels, bds)


def simplicial(tops) -> Cx:
    """Complex of the given simplices and all their faces; face i gets sign (-1)^i."""
    closed = {face for t in tops for size in range(1, len(t) + 1)
              for face in itertools.combinations(sorted(t), size)}
    dim = max(len(s) for s in closed) - 1
    layers = [sorted(s for s in closed if len(s) == k + 1) for k in range(dim + 1)]
    index = [{s: i for i, s in enumerate(layer)} for layer in layers]
    bds = []
    for k in range(1, dim + 1):
        rows, cols, signs = [], [], []
        for j, s in enumerate(layers[k]):
            for i in range(k + 1):
                rows.append(index[k - 1][s[:i] + s[i + 1:]])
                cols.append(j)
                signs.append(-1 if i % 2 else 1)
        bds.append(_bd(rows, cols, signs, (len(layers[k - 1]), len(layers[k]))))
    labels = [["-".join(map(str, s)) for s in layer] for layer in layers]
    return Cx(labels, bds)


# Six-vertex triangulation of the real projective plane (10 triangles).
RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]


def rp2(subdivide: bool) -> Cx:
    """RP^2, optionally barycentrically subdivided once (60 triangles)."""
    if not subdivide:
        return simplicial(RP2_TRIANGLES)
    # The subdivision's vertices are the simplices of the original; its
    # triangles are the flags vertex < edge < triangle.
    names: dict[tuple[int, ...], int] = {}
    vid = lambda face: names.setdefault(face, len(names))  # noqa: E731
    return simplicial([(vid((v,)), vid(tuple(sorted((v, w)))), vid(t))
                       for t in RP2_TRIANGLES for v, w in itertools.permutations(t, 2)])


# ---------------------------------------------------------------------------
# Relabelling and reordering
# ---------------------------------------------------------------------------


def permute(cx: Cx, rng) -> tuple[Cx, list[np.ndarray]]:
    """Same complex with every dimension's cell order shuffled.

    Every command reads its own shuffled copy, so a cache keyed on file
    paths or on complex values cannot serve a command that a fresh ccx
    process would have to compute.  Returns the complex and
    the permutations (new position i holds old cell perms[k][i]).
    """
    perms = [rng.permutation(len(layer)) for layer in cx.labels]
    inv = [np.argsort(p) for p in perms]  # inv[k][old] = new
    labels = [[layer[i] for i in p] for layer, p in zip(cx.labels, perms)]
    bds = [
        _bd(inv[k - 1][b.rows], inv[k][b.cols], b.signs, b.shape)
        for k, b in enumerate(cx.bds, start=1)
    ]
    return Cx(labels, bds), perms


def flip_edges(g: Cx, rng) -> Cx:
    """The same graph with a random half of its edges reversed."""
    b = g.bds[0]
    flip = np.where(rng.random(b.shape[1]) < 0.5, -1, 1)
    return Cx(g.labels, [_bd(b.rows, b.cols, b.signs * flip[b.cols], b.shape)])


# ---------------------------------------------------------------------------
# Graphs for the liftings
# ---------------------------------------------------------------------------


def graph(n_vertices: int, edges, labels=None) -> Cx:
    """1-complex with edges given as (tail, head) vertex index pairs."""
    labels = labels or [f"v{i}" for i in range(n_vertices)]
    rows = [x for t, h in edges for x in (t, h)]
    cols = [j for j in range(len(edges)) for _ in (0, 1)]
    signs = [-1, 1] * len(edges)
    elabels = [f"{labels[t]}~{labels[h]}" for t, h in edges]
    return Cx([list(labels), elabels], [_bd(rows, cols, signs, (n_vertices, len(edges)))])


def diagonal_grid(n: int, rng, share: float) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """n-by-n grid graph with a diagonal in a random ``share`` of its squares.

    Returns integer coordinates and (tail, head) edges, shuffled in
    order and direction; the straight-line drawing is plane.  The number
    of diagonals is fixed by n, so every seed does the same work.
    """
    coords = np.array([(i, j) for i in range(n) for j in range(n)], dtype=float)
    vid = lambda i, j: i * n + j  # noqa: E731
    edges = [(vid(i, j), vid(i + 1, j)) for i in range(n - 1) for j in range(n)]
    edges += [(vid(i, j), vid(i, j + 1)) for i in range(n) for j in range(n - 1)]
    squares = (n - 1) ** 2
    for s in rng.choice(squares, round(share * squares), replace=False):
        i, j = divmod(int(s), n - 1)
        edges.append((vid(i, j), vid(i + 1, j + 1)) if rng.random() < 0.5
                     else (vid(i + 1, j), vid(i, j + 1)))
    order = rng.permutation(len(edges))
    edges = [edges[i] if rng.random() < 0.5 else edges[i][::-1] for i in order]
    perm = rng.permutation(len(coords))  # new vertex index of old vertex i
    coords_new = np.empty_like(coords)
    coords_new[perm] = coords
    return coords_new, [(int(perm[t]), int(perm[h])) for t, h in edges]


def random_graph(n: int, m: int, rng) -> list[tuple[int, int]]:
    """Connected simple graph on n vertices with m edges."""
    edges = {tuple(sorted((int(rng.integers(i)), i))) for i in range(1, n)}
    while len(edges) < m:
        a, b = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((a, b))
    out = sorted(edges)
    return [out[i] if rng.random() < 0.5 else out[i][::-1] for i in rng.permutation(len(out))]


# ---------------------------------------------------------------------------
# Signals, weights and point clouds
# ---------------------------------------------------------------------------


def weights_doc(cx: Cx, rng, low: float, high: float, log: bool = False) -> dict:
    if log:
        vecs = [10.0 ** rng.uniform(np.log10(low), np.log10(high), n) for n in cx.counts()]
    else:
        vecs = [rng.uniform(low, high, n) for n in cx.counts()]
    return {"weights": [v.tolist() for v in vecs]}


def chain_doc(k: int, n: int, rng) -> dict:
    return {"dim": k, "values": rng.normal(size=n).tolist()}


def uniform_cloud(n: int, rng) -> np.ndarray:
    return rng.random((n, 2))


def circle_cloud(n: int, rng, noise: float) -> np.ndarray:
    """Unit circle, evenly spaced up to a jitter of 0.3 spacings, plus noise."""
    theta = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    pts = np.column_stack((np.cos(theta), np.sin(theta)))
    return pts + rng.normal(scale=noise, size=pts.shape)


def cluster_cloud(n: int, rng) -> np.ndarray:
    """Four Gaussian clusters (sd 0.25) centred on the corners of a 2-by-2 square."""
    centres = np.array([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)])
    return centres[np.arange(n) % 4] + rng.normal(scale=0.25, size=(n, 2))


def edge_scale(points: np.ndarray, edges: int) -> float:
    """A scale with exactly ``edges`` point pairs within it.

    Halfway between the edges-th and the next smallest pairwise
    distance, so the Rips complex's edge count does not depend on the
    seed and no distance sits on the boundary.
    """
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    pairs = np.sort(d[np.triu_indices(len(points), 1)])
    return float((pairs[edges - 1] + pairs[edges]) / 2)
