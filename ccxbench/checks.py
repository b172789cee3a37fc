"""Independent checks of ccx output.

Every check either recomputes the answer apart from the program (clique
counts, Kruskal, Horner's rule on sparse matvecs, null spaces of known
dimension) or tests a property the method must have (exactness,
orthogonality, conservation of the harmonic part).  None compares with
a stored copy of earlier output.  Each check has a matching corruption
so the self-test can confirm that the check rejects a wrong answer.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import Bd, Cx


class CheckFailed(Exception):
    pass


# What a check may raise on output that is wrong or malformed.
CHECK_ERRORS = (CheckFailed, ValueError, KeyError, IndexError, TypeError)


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a, b, tol: float, what: str) -> None:
    a, b = np.asarray(a, float), np.asarray(b, float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    err = float(np.max(np.abs(a - b), initial=0.0))
    require(err <= tol * scale, f"{what}: off by {err:.3g} (scale {scale:.3g})")


# ---------------------------------------------------------------------------
# Sparse linear algebra on emitted boundaries
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> Cx:
    doc = json.loads(text)
    require(set(doc) == {"dim", "cells", "boundaries"}, "complex keys")
    labels = doc["cells"]
    require(len(labels) == doc["dim"] + 1 and len(doc["boundaries"]) == doc["dim"], "layers")
    bds = []
    for k, spec in enumerate(doc["boundaries"], start=1):
        shape = (spec["rows"], spec["cols"])
        require(shape == (len(labels[k - 1]), len(labels[k])), f"B_{k} shape {shape}")
        e = np.asarray(spec["entries"], dtype=np.int64).reshape(-1, 3)
        require(np.all(np.abs(e[:, 2]) == 1), f"B_{k} signs")
        key = e[:, 1] * shape[0] + e[:, 0]
        require(np.all(np.diff(key) > 0), f"B_{k} entries unsorted or repeated")
        require(e.size == 0 or (e[:, 0].min() >= 0 and e[:, 0].max() < shape[0]), f"B_{k} rows")
        bds.append(Bd(e[:, 0], e[:, 1], e[:, 2], shape))
    for layer in labels:
        require(len(set(layer)) == len(layer), "duplicate labels")
    return Cx(labels, bds)


def compose_is_zero(a: Bd, b: Bd) -> bool:
    """Whether a @ b == 0 exactly, by a sparse join on a's columns."""
    order = np.argsort(a.cols, kind="stable")
    acol, arow, asgn = a.cols[order], a.rows[order], a.signs[order]
    starts = np.searchsorted(acol, b.rows, "left")
    counts = np.searchsorted(acol, b.rows, "right") - starts
    total = int(counts.sum())
    if total == 0:
        return True
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(starts, counts) + offsets
    key = arow[idx] * b.shape[1] + np.repeat(b.cols, counts)
    vals = asgn[idx] * np.repeat(b.signs, counts)
    uniq, inv = np.unique(key, return_inverse=True)
    return not np.any(np.bincount(inv, weights=vals, minlength=len(uniq)))


def check_exact(cx: Cx) -> None:
    for k in range(1, cx.dim):
        require(compose_is_zero(cx.bds[k - 1], cx.bds[k]), f"B_{k} B_{k + 1} != 0")


def matvec(b: Bd, x: np.ndarray, left=None, right=None) -> np.ndarray:
    """(diag(left) B diag(right)) x."""
    v = b.signs * x[b.cols] * (1.0 if right is None else right[b.cols])
    out = np.bincount(b.rows, weights=v, minlength=b.shape[0])
    return out if left is None else left * out


def rmatvec(b: Bd, y: np.ndarray, left=None, right=None) -> np.ndarray:
    """(diag(left) B diag(right))^T y."""
    v = b.signs * y[b.rows] * (1.0 if left is None else left[b.rows])
    out = np.bincount(b.cols, weights=v, minlength=b.shape[1])
    return out if right is None else right * out


class Hodge:
    """Matrix-free weighted boundaries and Laplacians of one complex."""

    def __init__(self, cx: Cx, weights=None):
        self.cx = cx
        self.w = None if weights is None else [np.asarray(w, float) for w in weights]

    def _scales(self, k):
        if self.w is None:
            return None, None
        return 1.0 / np.sqrt(self.w[k - 1]), np.sqrt(self.w[k])

    def down(self, k, x):  # Bw_k x
        if k == 0:
            return np.zeros(0)
        return matvec(self.cx.bds[k - 1], x, *self._scales(k))

    def down_t(self, k, y):  # Bw_k^T y
        if k == 0:
            return np.zeros(len(self.cx.labels[0]))
        return rmatvec(self.cx.bds[k - 1], y, *self._scales(k))

    def up_t(self, k, x):  # Bw_{k+1}^T x
        if k == self.cx.dim:
            return np.zeros(0)
        return rmatvec(self.cx.bds[k], x, *self._scales(k + 1))

    def up(self, k, y):  # Bw_{k+1} y
        if k == self.cx.dim:
            return np.zeros(len(self.cx.labels[k]))
        return matvec(self.cx.bds[k], y, *self._scales(k + 1))

    def laplacian(self, k, x):
        return self.down_t(k, self.down(k, x)) + self.up(k, self.up_t(k, x))

    def trace(self, k) -> float:
        total = 0.0
        for kk in (k, k + 1):
            if 1 <= kk <= self.cx.dim:
                b = self.cx.bds[kk - 1]
                if self.w is None:
                    total += len(b.signs)
                else:
                    total += float(np.sum(self.w[kk][b.cols] / self.w[kk - 1][b.rows]))
        return total

    def norm_bound(self, k) -> float:
        """Gershgorin bound on the eigenvalues of L_k."""
        absolute = Hodge(Cx(self.cx.labels, [Bd(b.rows, b.cols, np.abs(b.signs), b.shape)
                                             for b in self.cx.bds]), self.w)
        return float(np.max(absolute.laplacian(k, np.ones(len(self.cx.labels[k])))))

    def heat(self, k, x, t: float) -> np.ndarray:
        """exp(-t L_k) x in short steps, each a Taylor series of L_k matvecs."""
        steps = max(1, int(np.ceil(t * self.norm_bound(k))))
        tau = t / steps
        for _ in range(steps):
            term, total, i = x, x.copy(), 1
            while np.max(np.abs(term), initial=0.0) > 1e-18 * np.max(np.abs(total)):
                term = -tau / i * self.laplacian(k, term)
                total += term
                i += 1
            x = total
        return x

    def dense(self, k) -> np.ndarray:
        """Bw_k as a dense matrix."""
        b = self.cx.bds[k - 1]
        m = np.zeros(b.shape)
        m[b.rows, b.cols] = b.signs
        left, right = self._scales(k)
        return m if left is None else left[:, None] * m * right[None, :]

    def harmonic_basis(self, k, beta: int) -> np.ndarray:
        """Orthonormal basis of ker L_k = ker Bw_k ∩ ker Bw_{k+1}^T.

        beta, the dimension, is known from the construction, so the null
        space is the last beta right singular vectors and needs no
        threshold.
        """
        n = len(self.cx.labels[k])
        if beta == 0:
            return np.zeros((n, 0))
        blocks = ([self.dense(k)] if k >= 1 else []) + (
            [self.dense(k + 1).T] if k < self.cx.dim else [])
        _, _, vt = np.linalg.svd(np.vstack(blocks))
        return vt[n - beta:].T


# ---------------------------------------------------------------------------
# Complex outputs: builds, products, liftings
# ---------------------------------------------------------------------------


def check_complex_counts(text: str, counts) -> Cx:
    cx = parse_complex(text)
    require(cx.counts() == list(counts), f"cell counts {cx.counts()} != {list(counts)}")
    check_exact(cx)
    return cx


def cubical_counts(sizes) -> list[int]:
    """Cells per dimension of a grid with sizes[i] vertices along axis i."""
    poly = np.array([1], dtype=np.int64)
    for n in sizes:
        poly = np.convolve(poly, [n, n - 1])  # n vertices, n-1 edges per axis
    return poly.tolist()


def product_counts(a, b) -> list[int]:
    return np.convolve(a, b).tolist()


def check_lift(text: str, graph: Cx, faces: int, face_sizes=None) -> None:
    """Lifted 2-complex: the input graph plus ``faces`` 2-cells that fill
    every cycle of the (connected) graph, so beta_1 = 0."""
    v, e = graph.counts()
    cx = check_complex_counts(text, [v, e, faces])
    require(cx.labels[0] == graph.labels[0], "0-cells differ from the input graph")
    key = lambda b: sorted(zip(b.cols.tolist(), b.rows.tolist(), b.signs.tolist()))  # noqa: E731
    require(key(cx.bds[0]) == key(graph.bds[0]), "B_1 differs from the input graph")
    rank = np.linalg.matrix_rank(Hodge(cx).dense(2)) if faces else 0
    require(rank == e - v + 1, "2-cells do not fill the cycle space")
    if face_sizes is not None:
        sizes = np.bincount(cx.bds[1].cols, minlength=faces)
        require(sorted(sizes.tolist()) == sorted(face_sizes), "2-cell sizes differ")


def corrupt_complex(text: str) -> str:
    """Negate one entry of the top boundary, which breaks B B = 0 or counts."""
    doc = json.loads(text)
    top = doc["boundaries"][-1]["entries"]
    if doc["dim"] >= 2 and top:
        top[len(top) // 2][2] *= -1
    else:
        doc["cells"][-1].append("extra")
        doc["boundaries"][-1]["cols"] += 1
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# betti and validate
# ---------------------------------------------------------------------------


def check_betti(text: str, betti, torsion=None, coefficients="integer") -> None:
    doc = json.loads(text)
    require(doc["coefficients"] == coefficients, "coefficients")
    require(doc["betti"] == list(betti), f"betti {doc['betti']} != {list(betti)}")
    torsion = torsion or [[] for _ in betti]
    require(doc["torsion"] == torsion, f"torsion {doc['torsion']} != {torsion}")


def corrupt_betti(text: str) -> str:
    doc = json.loads(text)
    doc["betti"][-1] += 1
    return json.dumps(doc)


def check_validate(text: str, rc: int, bad_label: str | None, conditions=()) -> None:
    doc = json.loads(text)
    if bad_label is None:
        require(rc == 0 and doc == {"valid": True, "failures": []}, "valid complex rejected")
        return
    require(rc == 1 and doc["valid"] is False, "planted bad cell not reported")
    cells = {f["cell"] for f in doc["failures"]}
    found = {f["condition"] for f in doc["failures"]}
    require(cells == {bad_label}, f"failures name cells {sorted(cells)}")
    require(found == set(conditions), f"conditions {sorted(found)} != {sorted(conditions)}")


def corrupt_validate(text: str) -> str:
    doc = json.loads(text)
    if doc["valid"]:
        return json.dumps({"valid": True, "failures": [{"condition": "x", "cell": "y"}]})
    doc["failures"] = doc["failures"][1:]
    doc["failures"].append({"condition": "cell-acyclic", "cell": "2-cell other", "detail": ""})
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# spectrum, decompose, filter
# ---------------------------------------------------------------------------


def parse_spectrum(text: str):
    rows = [line.split(",") for line in text.splitlines()]
    return np.array([float(r[0]) for r in rows]), [r[1] for r in rows]


def check_spectrum(text: str, h: Hodge, k: int, counts: dict) -> None:
    """Tag counts are the exact subspace dimensions; sum(eigenvalues) = trace L_k."""
    lam, tags = parse_spectrum(text)
    require(len(lam) == len(h.cx.labels[k]), "one eigenvalue per cell")
    found = {t: tags.count(t) for t in ("gradient", "curl", "harmonic")}
    require(found == counts, f"tag counts {found} != {counts}")
    require(np.all(np.diff(lam) >= 0), "eigenvalues not ascending")
    harmonic = lam[[t == "harmonic" for t in tags]]
    require(np.all(harmonic == 0) and np.all(lam[[t != "harmonic" for t in tags]] > 0),
            "harmonic eigenvalues must be exactly the zero ones")
    close(lam.sum(), h.trace(k), 1e-9 * len(lam), "sum of eigenvalues vs trace L_k")


def corrupt_spectrum(text: str) -> str:
    lines = text.splitlines()
    value, tag = lines[-1].split(",")
    lines[-1] = f"{float(value) * 1.001:.12g},{tag}"
    return "\n".join(lines) + "\n"


def parse_chain(doc, k: int, n: int) -> np.ndarray:
    require(doc["dim"] == k and len(doc["values"]) == n, "chain shape")
    return np.asarray(doc["values"], float)


def check_decompose(text: str, h: Hodge, k: int, x: np.ndarray) -> None:
    doc = json.loads(text)
    grad, curl, harm = (parse_chain(doc[p], k, len(x)) for p in ("gradient", "curl", "harmonic"))
    close(grad + curl + harm, x, 1e-9, "parts do not sum to the input")
    scale = float(np.max(np.abs(x)))
    for image, what in ((h.down(k, curl), "B_k curl"), (h.up_t(k, grad), "B_k+1^T gradient"),
                        (h.down(k, harm), "B_k harmonic"), (h.up_t(k, harm), "B_k+1^T harmonic")):
        require(np.max(np.abs(image), initial=0.0) <= 1e-9 * scale, f"{what} != 0")


def corrupt_decompose(text: str) -> str:
    doc = json.loads(text)
    doc["curl"]["values"][0] += 1e-3
    doc["harmonic"]["values"][0] -= 1e-3
    return json.dumps(doc)


def check_filter(text: str, h: Hodge, k: int, x: np.ndarray, descriptor: str, beta: int) -> None:
    y = parse_chain(json.loads(text), k, len(x))
    name, _, params = descriptor.partition(":")
    if name in ("poly", "lowpass"):
        coeffs = [float(c) for c in params.split(",")] if name == "poly" else [1.0, -1.0]
        ref = coeffs[-1] * x
        for c in reversed(coeffs[:-1]):  # Horner's rule on L_k matvecs
            ref = h.laplacian(k, ref) + c * x
        close(y, ref, 1e-8, f"{descriptor} differs from Horner's rule")
    else:
        t = float(params.removeprefix("t="))
        close(y, h.heat(k, x, t), 1e-8, f"{descriptor} differs from the Taylor series")
        basis = h.harmonic_basis(k, beta)
        close(basis.T @ y, basis.T @ x, 1e-9, "heat filter changed the harmonic part")
        require(np.linalg.norm(y) <= np.linalg.norm(x) * (1 + 1e-9), "heat filter grew the norm")
        rest = lambda v: np.linalg.norm(v - basis @ (basis.T @ v))  # noqa: E731
        require(rest(y) < rest(x), "heat filter did not damp the non-harmonic part")


def corrupt_filter(text: str) -> str:
    doc = json.loads(text)
    doc["values"] = [v * 1.01 + 1e-3 for v in doc["values"]]
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# persist and build vr
# ---------------------------------------------------------------------------


def rips_counts(points: np.ndarray, eps: float, max_dim: int) -> list[int]:
    """Vertices, edges and triangles of the Rips complex by clique counting."""
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    adj = (d <= eps).astype(np.int64)
    np.fill_diagonal(adj, 0)
    counts = [len(points), int(adj.sum() // 2), int(np.trace(adj @ adj @ adj) // 6)]
    return counts[: max_dim + 1]


def kruskal(points: np.ndarray, eps: float) -> np.ndarray:
    """Edge lengths of a minimum spanning forest of the edges within eps."""
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    i, j = np.triu_indices(len(points), 1)
    keep = d[i, j] <= eps
    i, j, w = i[keep], j[keep], d[i, j][keep]
    parent = list(range(len(points)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    out = []
    for e in np.argsort(w, kind="stable"):
        ra, rb = find(int(i[e])), find(int(j[e]))
        if ra != rb:
            parent[ra] = rb
            out.append(w[e])
    return np.sort(np.array(out))


def parse_bars(text: str):
    bars = []
    for line in text.splitlines():
        dim, birth, death = line.split(",")
        bars.append((int(dim), float(birth), math.inf if death == "inf" else float(death)))
    return bars


def check_persist(text: str, points, eps: float, max_dim: int, long_h1=None) -> None:
    bars = parse_bars(text)
    require(all(b <= d and 0 <= k <= max_dim for k, b, d in bars), "bar out of range")
    deaths = np.sort([d for k, _, d in bars if k == 0 and d != math.inf])
    close(deaths, kruskal(points, eps), 1e-10, "finite H0 deaths vs Kruskal MST")
    infinite = [k for k, _, d in bars if d == math.inf]
    euler = sum((-1) ** k * c for k, c in enumerate(rips_counts(points, eps, max_dim)))
    require(sum((-1) ** k for k in infinite) == euler, "infinite bars vs Euler characteristic")
    if long_h1 is not None:
        n_long = sum(1 for k, b, d in bars if k == 1 and d - b > long_h1)
        require(n_long == 1, f"{n_long} long H1 bars on a circle")


def corrupt_persist(text: str) -> str:
    lines = text.splitlines()
    finite = [i for i, l in enumerate(lines) if l.startswith("0,") and not l.endswith("inf")]
    del lines[finite[len(finite) // 2]]
    return "\n".join(lines) + "\n"


def chordless_cycle_lengths(n: int, edges) -> list[int]:
    """Lengths of all chordless cycles, by growing induced paths.

    A cycle is grown from its smallest vertex s along paths whose
    vertices exceed s and that stay induced; it is recorded once, in the
    direction where the second vertex is below the last.
    """
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    lengths = []

    def grow(path, inner):
        u = path[-1]
        for v in adj[u]:
            if v <= path[0] or v in path or adj[v] & inner:
                continue
            if path[0] in adj[v]:
                if len(path) >= 2 and path[1] < v:
                    lengths.append(len(path) + 1)
            else:
                grow(path + [v], inner | {u})

    for s in range(n):
        for v in adj[s]:
            if v > s:
                grow([s, v], set())
    return sorted(lengths)
