"""The three workloads: seeded command lists with their checks.

A workload's base inputs (sizes, graphs, holes, point clouds, weights)
depend on the seed alone.  Every command then reads its own freshly
shuffled copy (cell, vertex and point order) from new files, so no file
is read twice in a run.  Every command carries an independent check of
its output and a corruption of that output for the self-test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

import checks as C
import inputs as I


@dataclass
class Cmd:
    argv: list[str]
    check: Callable[[str, int], None]
    corrupt: Callable[[str], str]
    known_fault: bool = False


class Files:
    """Numbered input files inside one round's directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.n = 0

    def _path(self, ext: str) -> str:
        self.n += 1
        return os.path.join(self.directory, f"{self.n:03d}.{ext}")

    def json(self, doc) -> str:
        path = self._path("json")
        I.write_json(path, doc)
        return path

    def csv(self, rows) -> str:
        path = self._path("csv")
        I.write_csv(path, rows)
        return path


def _rng(seed: int, *key: int):
    return np.random.default_rng([seed, *key])


def _ok(check):
    """Adapt a check of stdout alone to one that also needs exit code 0."""
    def run(out: str, rc: int) -> None:
        C.require(rc == 0, f"exit code {rc}")
        check(out)
    return run


# ---------------------------------------------------------------------------
# lattice: liftings, validation, integer homology, cubical builds, products
# ---------------------------------------------------------------------------

# (sizes, planted bad top cell?) for validate and validate --nd.
VALIDATE = [([6, 6], False), ([8, 8], False), ([10, 10], False), ([12, 12], False),
            ([7, 9], True), ([3, 3, 4], False), ([4, 4, 3], False), ([3, 4, 4], False),
            ([4, 3, 5], True), ([2, 3, 3, 3], False)]
TREE_GRIDS = (8, 9, 10, 11, 12, 13, 13, 8, 9, 10, 11, 12, 12, 13)
WINDOW_GRIDS = (5, 6, 7, 5, 6, 7, 7)
CHORDLESS_GRAPHS = (8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12)
BUILD_SIZES = [[9, 11], [12, 14], [16, 10], [20, 20], [4, 5, 6], [5, 5, 5], [3, 6, 7],
               [6, 6, 6], [3, 3, 3, 3], [3, 3, 3, 4], [2, 3, 4, 5], [3, 4, 4, 4],
               [24, 26], [2, 3, 3, 3, 3]]


def planted_bad(sizes) -> tuple[I.Cx, str]:
    """Grid plus one top cell bounded by two far-apart top cells.

    B B = 0 still holds, but the new cell's closure is disconnected, so
    it (and only it) breaks the regularity conditions.
    """
    cx = I.cubical(sizes)
    top = cx.bds[-1]
    pick = np.isin(top.cols, [0, top.shape[1] - 1])
    new = I.Bd(np.concatenate([top.rows, top.rows[pick]]),
               np.concatenate([top.cols, np.full(pick.sum(), top.shape[1])]),
               np.concatenate([top.signs, top.signs[pick]]), (top.shape[0], top.shape[1] + 1))
    return I.Cx(cx.labels[:-1] + [cx.labels[-1] + ["bad"]], cx.bds[:-1] + [new]), \
        f"{cx.dim}-cell bad"


@lru_cache(maxsize=None)
def lattice_base(seed: int):
    rng = _rng(seed, 0)
    diag = []  # (n, coords, graph, number of diagonals) for lift tree / lift window
    for n in TREE_GRIDS + WINDOW_GRIDS:
        coords, edges = I.diagonal_grid(n, rng, 0.3)
        diag.append((n, coords, I.graph(n * n, edges), len(edges) - 2 * n * (n - 1)))
    chordless = []
    for n in CHORDLESS_GRAPHS:
        edges = I.random_graph(n, n + 6, rng)
        chordless.append((I.graph(n, edges), C.chordless_cycle_lengths(n, edges)))
    holes = [(n, I.interior_squares(n, h, rng)) for n, h in ((6, 1), (7, 2), (8, 3), (8, 4))]
    return diag, chordless, holes


def _betti_inputs(holes):
    """(complex, betti, torsion) with homology known from the topology."""
    torus = lambda m, n: I.product(I.cycle_graph(m, "a"), I.cycle_graph(n, "b"))  # noqa: E731
    out = [(I.cubical([n, n]), [1, 0, 0], None) for n in (5, 6, 7, 8)]
    out += [(I.cubical(s), [1, 0, 0, 0], None) for s in ([3, 3, 3], [3, 3, 4])]
    out += [(I.cubical([n, n], drop), [1, len(drop), 0], None) for n, drop in holes]
    out += [(torus(m, n), [1, 2, 1], None) for m, n in ((3, 4), (4, 5), (5, 5), (5, 6), (6, 6))]
    out += [(I.product(I.cycle_graph(m, "a"), I.path_graph(n, "b")), [1, 1, 0], None)
            for m, n in ((7, 6), (5, 8))]
    rp2 = [[], [2], []]
    out += [(I.rp2(False), [1, 0, 0], rp2), (I.rp2(True), [1, 0, 0], rp2)]
    return out


def _product_inputs():
    a = lambda n: I.cycle_graph(n, "a")  # noqa: E731
    b = lambda n: I.path_graph(n, "b")  # noqa: E731
    return [(a(12), b(10)), (a(20), a(15)), (I.cubical([4, 4]), a(9)), (a(9), I.cubical([5, 4])),
            (I.cubical([3, 3, 3]), b(6)), (I.cubical([4, 4]), I.cubical([4, 3])),
            (a(30), b(25)), (I.rp2(True), b(5)), (b(8), I.product(a(4), a(5))),
            (I.cubical([6, 6]), b(7)), (a(6), I.cubical([3, 3, 3])), (a(30), a(24)),
            (a(10), b(12)), (I.cubical([5, 5]), a(5))]


def lattice(seed: int, rnd: int, files: Files) -> list[Cmd]:
    diag, chordless, holes = lattice_base(seed)
    rng = _rng(seed, 1, rnd)
    cmds = []
    for i, (n, coords, g, n_diag) in enumerate(diag):
        # BFS from the centre, whatever the vertex order, keeps the tree's depth fixed.
        centre = g.labels[0][int(np.flatnonzero((coords == n // 2).all(axis=1))[0])]
        g, perms = I.permute(g, rng)
        path = files.json(g.to_doc())
        faces = (n - 1) ** 2 + n_diag
        if i < len(TREE_GRIDS):
            check = partial(C.check_lift, graph=g, faces=faces)
            cmds.append(Cmd(["lift", "tree", path, "--root", centre], _ok(check),
                            C.corrupt_complex))
        else:
            sizes = [4] * ((n - 1) ** 2 - n_diag) + [3] * (2 * n_diag)
            check = partial(C.check_lift, graph=g, faces=faces, face_sizes=sizes)
            argv = ["lift", "window", path, "--coords", files.csv(coords[perms[0]])]
            cmds.append(Cmd(argv, _ok(check), C.corrupt_complex))
    for g, lengths in chordless:
        g = I.flip_edges(I.permute(g, rng)[0], rng)
        check = partial(C.check_lift, graph=g, faces=len(lengths), face_sizes=lengths)
        cmds.append(Cmd(["lift", "chordless", files.json(g.to_doc())], _ok(check),
                        C.corrupt_complex))
    for nd in (False, True):
        for sizes, bad in VALIDATE:
            cx, label = planted_bad(sizes) if bad else (I.cubical(sizes), None)
            path = files.json(I.permute(cx, rng)[0].to_doc())
            if not bad:
                conditions = ()
            elif nd or len(sizes) > 2:
                conditions = ("cell-acyclic", "cell-connected")
            else:
                conditions = ("B2-cycle",)
            check = partial(C.check_validate, bad_label=label, conditions=conditions)
            argv = ["validate", "--nd", path] if nd else ["validate", path]
            cmds.append(Cmd(argv, check, C.corrupt_validate))
    for cx, betti, torsion in _betti_inputs(holes):
        path = files.json(I.permute(cx, rng)[0].to_doc())
        check = partial(C.check_betti, betti=betti, torsion=torsion)
        cmds.append(Cmd(["betti", "--integer", path], _ok(check), C.corrupt_betti))
    for sizes in BUILD_SIZES:
        sizes = [sizes[i] for i in rng.permutation(len(sizes))]
        check = partial(C.check_complex_counts, counts=C.cubical_counts(sizes))
        cmds.append(Cmd(["build", "cubical", *map(str, sizes)], _ok(check), C.corrupt_complex))
    for a, b in _product_inputs():
        pa, pb = (files.json(I.permute(x, rng)[0].to_doc()) for x in (a, b))
        check = partial(C.check_complex_counts, counts=C.product_counts(a.counts(), b.counts()))
        cmds.append(Cmd(["product", pa, pb], _ok(check), C.corrupt_complex))
    return cmds


# ---------------------------------------------------------------------------
# spectral: spectrum, decompose, filter and real betti on grids with holes
# ---------------------------------------------------------------------------

SPECTRAL_GRIDS = (6, 7, 8, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 15)
FILTERS = ("heat:t=0.5", "poly:1,-0.3,0.02", "lowpass", "poly:0.5,0.1", "heat:t=2")
# Weights log-uniform over 10^-4..10^4 on cubical([6, 6]): the float
# threshold in hodge.spectral_basis mis-sizes the subspaces on these
# (RuntimeError, or harmonic vectors where beta_1 = 0).  The seeds are
# fixed, not drawn from the workload seed, so they fail in every run.
FAULT_WEIGHT_SEEDS = (0, 1, 4)


@lru_cache(maxsize=None)
def spectral_base(seed: int):
    rng = _rng(seed, 0)
    grids = []
    for i, n in enumerate(SPECTRAL_GRIDS):
        drop = I.interior_squares(n, 1 + i % 3, rng)
        cx = I.cubical([n, n], drop)
        weights = I.weights_doc(cx, rng, 0.5, 2.0)["weights"] if i % 2 else None
        grids.append((cx, weights, len(drop)))
    return grids


def _subspaces(cx: I.Cx, holes: int, k: int) -> dict:
    """Exact gradient/curl/harmonic dimensions of a planar grid with holes."""
    v, _, f = cx.counts()
    return [{"gradient": 0, "curl": v - 1, "harmonic": 1},
            {"gradient": v - 1, "curl": f, "harmonic": holes},
            {"gradient": f, "curl": 0, "harmonic": 0}][k]


def spectral(seed: int, rnd: int, files: Files) -> list[Cmd]:
    rng = _rng(seed, 2, rnd)
    cmds = []

    def command(argv, base, weights, k, check, corrupt, signal=False, **expected):
        """One command on its own shuffled copy of the grid, weights and signal."""
        cx, perms = I.permute(base, rng)
        args = [argv[0], files.json(cx.to_doc()), "--dim", str(k), *argv[1:]]
        w = None if weights is None else [np.asarray(v)[p] for v, p in zip(weights, perms)]
        if w is not None:
            args += ["--weights", files.json({"weights": [v.tolist() for v in w]})]
        if signal:
            doc = I.chain_doc(k, cx.counts()[k], rng)
            args += ["--signal", files.json(doc)]
            expected["x"] = np.asarray(doc["values"])
        check = partial(check, h=C.Hodge(cx, w), k=k, **expected)
        cmds.append(Cmd(args, _ok(check), corrupt))

    for i, (base, weights, holes) in enumerate(spectral_base(seed)):
        for k in range(3):
            counts = _subspaces(base, holes, k)
            command(["spectrum"], base, weights, k, C.check_spectrum, C.corrupt_spectrum,
                    counts=counts)
            command(["decompose"], base, weights, k, C.check_decompose, C.corrupt_decompose,
                    signal=True)
            desc = FILTERS[(i + k) % len(FILTERS)]
            command(["filter", "--filter", desc], base, weights, k, C.check_filter,
                    C.corrupt_filter, signal=True, descriptor=desc, beta=counts["harmonic"])
        check = partial(C.check_betti, betti=[1, holes, 0], coefficients="real")
        cmds.append(Cmd(["betti", files.json(I.permute(base, rng)[0].to_doc())], _ok(check),
                        C.corrupt_betti))
    grid = I.cubical([6, 6])
    for s in FAULT_WEIGHT_SEEDS:
        weights = I.weights_doc(grid, np.random.default_rng(s), 1e-4, 1e4, log=True)
        check = partial(C.check_spectrum, h=C.Hodge(grid, weights["weights"]), k=1,
                        counts=_subspaces(grid, 0, 1))
        argv = ["spectrum", files.json(grid.to_doc()), "--dim", "1",
                "--weights", files.json(weights)]
        cmds.append(Cmd(argv, _ok(check), C.corrupt_spectrum, known_fault=True))
    return cmds


# ---------------------------------------------------------------------------
# rips: persistence and Vietoris-Rips builds on point clouds
# ---------------------------------------------------------------------------

UNIFORM = (60, 70, 80, 100, 110, 120, 130, 140, 150, 160, 180, 190, 200, 200)
CIRCLES = (60, 64, 68, 72, 76, 80, 84, 88, 92, 96, 100, 100)
CLUSTERS = (80, 90, 100, 110, 120, 130, 140, 150, 160, 160, 150, 140)
CIRCLE_EPS = 0.45  # below sqrt(3), so the circle's loop never dies
LONG_BAR = 0.25
UNIFORM_DEGREE = 8  # mean number of Rips neighbours per point
CLUSTER_DEGREE = 10


@lru_cache(maxsize=None)
def rips_base(seed: int):
    rng = _rng(seed, 0)
    uniform = [I.uniform_cloud(n, rng) for n in UNIFORM]
    circles = [I.circle_cloud(n, rng, 0.03) for n in CIRCLES]
    clusters = [I.cluster_cloud(n, rng) for n in CLUSTERS]
    scale = lambda pts, degree: I.edge_scale(pts, degree * len(pts) // 2)  # noqa: E731
    return ([(pts, scale(pts, UNIFORM_DEGREE)) for pts in uniform], circles,
            [(pts, scale(pts, CLUSTER_DEGREE)) for pts in clusters])


def rips(seed: int, rnd: int, files: Files) -> list[Cmd]:
    uniform, circles, clusters = rips_base(seed)
    rng = _rng(seed, 3, rnd)
    cmds = []

    def persist(pts, eps, dim, long_h1=None):
        pts = pts[rng.permutation(len(pts))]
        path = files.csv(pts)
        check = partial(C.check_persist, points=pts, eps=eps, max_dim=dim, long_h1=long_h1)
        cmds.append(Cmd(["persist", path, "--max-eps", repr(eps), "--max-dim", str(dim)],
                        _ok(check), C.corrupt_persist))

    def build(pts, eps, dim):
        pts = pts[rng.permutation(len(pts))]
        path = files.csv(pts)
        check = partial(C.check_complex_counts, counts=C.rips_counts(pts, eps, dim))
        cmds.append(Cmd(["build", "vr", path, "--eps", repr(eps), "--maxdim", str(dim)],
                        _ok(check), C.corrupt_complex))

    for pts, eps in uniform:
        persist(pts, eps, 1)
        persist(pts, eps, 2)
        build(pts, eps, 2)
    for pts in circles:
        persist(pts, CIRCLE_EPS, 1)
        persist(pts, CIRCLE_EPS, 2, LONG_BAR)
    for pts, eps in clusters:
        persist(pts, eps, 1)
        persist(pts, eps, 2)
        build(pts, eps, 1)
    return cmds


WORKLOADS = {"lattice": lattice, "spectral": spectral, "rips": rips}
