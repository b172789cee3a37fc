"""Hodge Laplacians and spectral signal processing on cell complexes.

The k-th Hodge Laplacian is L_k = B_{k+1} B_{k+1}^T + B_k^T B_k; its
kernel is the harmonic space and the chain space splits orthogonally
into curl (im B_{k+1}), gradient (im B_k^T), and harmonic parts.  With
diagonal positive weights W_k, the weighted boundary is
W_{k-1}^{-1/2} B_k W_k^{1/2} and all operators are built from it.

Operators are dense arrays; complexes above MAX_DENSE_CELLS cells in a
dimension are rejected.  Subspace sizes are exact Smith-form ranks,
never eigenvalue thresholds.  Spectral output is deterministic:
eigenvalues ascend and each eigenvector's largest-magnitude entry is
made positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import CellComplex, ChainVector
from .errors import (
    BadDimension,
    NonPositiveWeight,
    ShapeMismatch,
    SizeLimitExceeded,
    UnknownFilter,
)
from .snf import smith_normal_form

MAX_DENSE_CELLS = 3000


@dataclass(frozen=True)
class WeightSet:
    """Diagonal positive weight vectors, one per dimension 0..n."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.vectors)
        for k, v in enumerate(vecs):
            if v.ndim != 1:
                raise ShapeMismatch(f"weight vector {k} must be one-dimensional")
            if np.any(v <= 0) or not np.all(np.isfinite(v)):
                raise NonPositiveWeight(f"weights for dimension {k} must be positive")
        object.__setattr__(self, "vectors", vecs)

    def vector(self, k: int) -> np.ndarray:
        return self.vectors[k]

    def check_against(self, cc: CellComplex) -> None:
        if len(self.vectors) != cc.dim + 1:
            raise ShapeMismatch(
                f"{cc.dim + 1} weight vectors needed, got {len(self.vectors)}"
            )
        for k, v in enumerate(self.vectors):
            if len(v) != cc.n_cells(k):
                raise ShapeMismatch(
                    f"weight vector {k} has length {len(v)}, complex has {cc.n_cells(k)}"
                )


def unit_weights(cc: CellComplex) -> WeightSet:
    return WeightSet(tuple(np.ones(cc.n_cells(k)) for k in range(cc.dim + 1)))


def _guard_size(cc: CellComplex) -> None:
    for k in range(cc.dim + 1):
        if cc.n_cells(k) > MAX_DENSE_CELLS:
            raise SizeLimitExceeded(
                f"{cc.n_cells(k)} cells in dimension {k} exceed the dense limit "
                f"of {MAX_DENSE_CELLS}"
            )


def dense_boundary(
    cc: CellComplex, k: int, weights: WeightSet | None = None
) -> np.ndarray:
    """B_k as a dense float array; k = 0 and k = dim + 1 give empty maps."""
    if not 0 <= k <= cc.dim + 1:
        raise BadDimension(f"no boundary B_{k} on a {cc.dim}-complex")
    _guard_size(cc)
    if k == 0:
        return np.zeros((0, cc.n_cells(0)))
    if k == cc.dim + 1:
        return np.zeros((cc.n_cells(cc.dim), 0))
    dense = cc.boundary(k).to_dense().astype(float)
    if weights is None:
        return dense
    weights.check_against(cc)
    left = 1.0 / np.sqrt(weights.vector(k - 1))
    right = np.sqrt(weights.vector(k))
    return left[:, None] * dense * right[None, :]


def boundary_rank(cc: CellComplex, k: int) -> int:
    """Exact rank of B_k (and of any positively weighted B_k); 0 off 1..dim."""
    return smith_normal_form(cc.boundary(k)).rank if 1 <= k <= cc.dim else 0


def hodge_laplacian(
    cc: CellComplex,
    k: int,
    part: str = "full",
    weights: WeightSet | None = None,
) -> np.ndarray:
    """L_k (or just its up/down part) as a dense symmetric matrix."""
    if not 0 <= k <= cc.dim:
        raise BadDimension(f"no Laplacian L_{k} on a {cc.dim}-complex")
    if part not in ("up", "down", "full"):
        raise ValueError(f"part must be up, down or full, got {part!r}")
    down = dense_boundary(cc, k, weights)
    up = dense_boundary(cc, k + 1, weights)
    result = np.zeros((cc.n_cells(k), cc.n_cells(k)))
    if part in ("up", "full"):
        result += up @ up.T
    if part in ("down", "full"):
        result += down.T @ down
    return result


def nonsymmetric_hodge(cc: CellComplex, weights: WeightSet) -> np.ndarray:
    """Flow-rate rescaled 1-Laplacian B_1^T W_0 B_1 + W_1^{-1} B_2 W_2 B_2^T W_1^{-1}.

    Not symmetric in general; for eigenvalue 0 its eigenvectors are
    W_1^{1/2} v for harmonic eigenvectors v of the symmetric weighted
    Laplacian.
    """
    if cc.dim != 2:
        raise BadDimension("the rescaled 1-Laplacian needs a 2-dimensional complex")
    weights.check_against(cc)
    b1 = dense_boundary(cc, 1)
    b2 = dense_boundary(cc, 2)
    w0 = weights.vector(0)
    w1_inv = 1.0 / weights.vector(1)
    w2 = weights.vector(2)
    down = b1.T @ (w0[:, None] * b1)
    up = w1_inv[:, None] * (b2 @ (w2[:, None] * b2.T)) * w1_inv[None, :]
    return down + up


def normalized_rw_weights(cc: CellComplex) -> WeightSet:
    """Random-walk normalisation weights for a 2-dimensional complex.

    2-cells are weighted by their boundary size, edges by the number of
    2-cells they border (floored at 1), vertices by twice the weighted
    edge degree.
    """
    if cc.dim != 2:
        raise BadDimension("random-walk weights need a 2-dimensional complex")
    abs_b1 = np.abs(dense_boundary(cc, 1))
    abs_b2 = np.abs(dense_boundary(cc, 2))
    w2 = abs_b2.T @ np.ones(cc.n_cells(1))
    w1 = np.maximum(abs_b2 @ np.ones(cc.n_cells(2)), 1.0)
    w0 = 2.0 * (abs_b1 @ w1)
    return WeightSet((w0, w1, w2))


def chain_offsets(cc: CellComplex) -> list[int]:
    """Start offset of each dimension's block inside the total chain space."""
    offsets = [0]
    for k in range(cc.dim + 1):
        offsets.append(offsets[-1] + cc.n_cells(k))
    return offsets


def dirac_operator(cc: CellComplex, weights: WeightSet | None = None) -> np.ndarray:
    """Block-tridiagonal B + B^T on the total chain space.

    Squares to the block diagonal of all Hodge Laplacians.  Unweighted
    output is an exact integer matrix.
    """
    _guard_size(cc)
    offsets = chain_offsets(cc)
    total = offsets[-1]
    dirac = np.zeros((total, total), dtype=np.int64 if weights is None else float)
    for k in range(1, cc.dim + 1):
        block = dense_boundary(cc, k, weights)
        rows = slice(offsets[k - 1], offsets[k])
        cols = slice(offsets[k], offsets[k + 1])
        dirac[rows, cols] = block
        dirac[cols, rows] = block.T
    return dirac


def _check_chain(cc: CellComplex, k: int, x: ChainVector) -> np.ndarray:
    if x.dim != k:
        raise BadDimension(f"chain has dimension {x.dim}, expected {k}")
    if len(x.values) != cc.n_cells(k):
        raise ShapeMismatch(
            f"chain has {len(x.values)} values, complex has {cc.n_cells(k)} {k}-cells"
        )
    return x.values


def _project_onto_image(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the column space of matrix."""
    if matrix.shape[1] == 0:
        return np.zeros_like(x)
    coeffs, *_ = np.linalg.lstsq(matrix, x, rcond=None)
    return matrix @ coeffs


@dataclass(frozen=True, eq=False)
class HodgeDecomposition:
    gradient: ChainVector
    curl: ChainVector
    harmonic: ChainVector


def hodge_decompose(
    cc: CellComplex,
    k: int,
    x: ChainVector,
    weights: WeightSet | None = None,
) -> HodgeDecomposition:
    """Split a k-chain into gradient, curl, and harmonic components."""
    values = _check_chain(cc, k, x)
    down = dense_boundary(cc, k, weights)
    up = dense_boundary(cc, k + 1, weights)
    gradient = _project_onto_image(down.T, values)
    curl = _project_onto_image(up, values)
    harmonic = values - gradient - curl
    return HodgeDecomposition(
        ChainVector(k, gradient), ChainVector(k, curl), ChainVector(k, harmonic)
    )


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0 else vector


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Orthonormal eigenbasis of L_k with per-vector subspace tags."""

    eigenvalues: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    tags: tuple[str, ...]

    def count(self, tag: str) -> int:
        return self.tags.count(tag)


def spectral_basis(
    cc: CellComplex, k: int, weights: WeightSet | None = None
) -> SpectralBasis:
    """Full eigendecomposition of L_k, assembled subspace by subspace.

    The top rank B_k eigenpairs of the down part span the gradient space
    and the top rank B_{k+1} eigenpairs of the up part span the curl
    space; both are eigenpairs of the full Laplacian because each part
    annihilates the other's image.  The remaining bottom eigenvectors of
    the full Laplacian span its kernel, the harmonic space.  Exact ranks
    size the subspaces and per-subspace assembly keeps tags exact.
    """
    n = cc.n_cells(k)
    pairs: list[tuple[float, int, np.ndarray, str]] = []
    for order, (part, tag, j) in enumerate((("down", "gradient", k), ("up", "curl", k + 1))):
        evals, vecs = np.linalg.eigh(hodge_laplacian(cc, k, part, weights))
        top = n - boundary_rank(cc, j)
        pairs += [
            (float(lam), order, _fix_sign(vec), tag)
            for lam, vec in zip(evals[top:], vecs.T[top:])
        ]
    _, vecs = np.linalg.eigh(hodge_laplacian(cc, k, "full", weights))
    pairs += [(0.0, 2, _fix_sign(vec), "harmonic") for vec in vecs.T[: n - len(pairs)]]
    pairs.sort(key=lambda p: (p[0], p[1]))
    eigenvalues = np.array([p[0] for p in pairs])
    vectors = np.column_stack([p[2] for p in pairs]) if pairs else np.zeros((n, 0))
    tags = tuple(p[3] for p in pairs)
    return SpectralBasis(eigenvalues, vectors, tags)


def classify_eigenvector(
    cc: CellComplex,
    k: int,
    vector: np.ndarray,
    weights: WeightSet | None = None,
    threshold: float = 1e-7,
) -> tuple[str, float]:
    """Tag a unit vector by projection residual against the three subspaces.

    Returns (tag, residual); ties go to the smallest residual, and a
    residual above the threshold still yields the best-matching tag.
    """
    v = np.asarray(vector, dtype=float)
    v = v / np.linalg.norm(v)
    down = dense_boundary(cc, k, weights)
    up = dense_boundary(cc, k + 1, weights)
    lap = hodge_laplacian(cc, k, "full", weights)
    residuals = {
        "gradient": float(np.linalg.norm(v - _project_onto_image(down.T, v))),
        "curl": float(np.linalg.norm(v - _project_onto_image(up, v))),
        "harmonic": float(np.linalg.norm(lap @ v)),
    }
    tag = min(residuals, key=lambda t: (residuals[t] > threshold, residuals[t]))
    return tag, residuals[tag]


FilterFunction = Callable[[np.ndarray], np.ndarray]


def _poly_filter(coeffs: Sequence[float]) -> FilterFunction:
    def apply(lam: np.ndarray) -> np.ndarray:
        out = np.zeros_like(lam)
        for c in reversed(list(coeffs)):
            out = out * lam + c
        return out

    return apply


def parse_filter(descriptor: str) -> FilterFunction:
    """Resolve a filter descriptor from the registered family.

    Accepted forms: ``identity``, ``lowpass`` (1 - lambda),
    ``heat:t=T`` (exp(-T lambda)), and ``poly:c0,c1,...``.
    """
    name, _, params = descriptor.partition(":")
    if name == "identity" and not params:
        return lambda lam: np.ones_like(lam)
    if name == "lowpass" and not params:
        return lambda lam: 1.0 - lam
    if name == "heat":
        if not params.startswith("t="):
            raise UnknownFilter(f"heat filter needs t=<value>, got {descriptor!r}")
        try:
            t = float(params[2:])
        except ValueError:
            raise UnknownFilter(f"bad heat time in {descriptor!r}") from None
        if not math.isfinite(t):
            raise UnknownFilter(f"bad heat time in {descriptor!r}")
        return lambda lam: np.exp(-t * lam)
    if name == "poly":
        try:
            coeffs = [float(c) for c in params.split(",")] if params else []
        except ValueError:
            raise UnknownFilter(f"bad polynomial coefficients in {descriptor!r}") from None
        if not coeffs:
            raise UnknownFilter("poly filter needs comma-separated coefficients")
        if not all(math.isfinite(c) for c in coeffs):
            raise UnknownFilter(f"bad polynomial coefficients in {descriptor!r}")
        return _poly_filter(coeffs)
    raise UnknownFilter(f"unknown filter {descriptor!r}")


def spectral_filter(
    cc: CellComplex,
    k: int,
    x: ChainVector,
    descriptor: str,
    weights: WeightSet | None = None,
) -> ChainVector:
    """Apply a registered spectral filter: U f(Lambda) U^T x."""
    values = _check_chain(cc, k, x)
    f = parse_filter(descriptor)
    basis = spectral_basis(cc, k, weights)
    response = f(basis.eigenvalues)
    filtered = basis.vectors @ (response * (basis.vectors.T @ values))
    return ChainVector(k, filtered)


def quadratic_form(
    cc: CellComplex,
    k: int,
    x: ChainVector,
    weights: WeightSet | None = None,
) -> float:
    """x^T L_k x, the variation energy |B_{k+1}^T x|^2 + |B_k x|^2."""
    values = _check_chain(cc, k, x)
    down = dense_boundary(cc, k, weights)
    up = dense_boundary(cc, k + 1, weights)
    return float(np.sum((up.T @ values) ** 2) + np.sum((down @ values) ** 2))


def weighted_inner_product(x: ChainVector, y: ChainVector, weight: np.ndarray) -> float:
    """Inner product <x, y> = x^T diag(weight) y on a chain space."""
    if x.dim != y.dim or len(x.values) != len(y.values):
        raise ShapeMismatch("chains live in different spaces")
    w = np.asarray(weight, dtype=float)
    if np.any(w <= 0):
        raise NonPositiveWeight("inner-product weights must be positive")
    return float(x.values @ (w * y.values))
