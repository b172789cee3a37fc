"""Hodge Laplacians and spectral signal processing on cell complexes.

The k-th Hodge Laplacian is L_k = B_{k+1} B_{k+1}^T + B_k^T B_k; its
kernel is the harmonic space and the chain space splits orthogonally
into curl (im B_{k+1}), gradient (im B_k^T), and harmonic parts.  With
diagonal positive weights W_k, the weighted boundary is
W_{k-1}^{-1/2} B_k W_k^{1/2} and all operators are built from it.

Every operator reads the entry arrays of core's one boundary reader
and computes only what it returns.  Polynomial filters (identity,
lowpass, poly:, by Horner's rule), the quadratic form and the
random-walk weights are sparse products and counts over the entries
(np.bincount), so they run at any size.  Heat filters at t >= 0 are
Lanczos steps on the same sparse products, as many as an a-priori error
bound asks for, short of n_k steps, of a Krylov basis larger than
MAX_DENSE_CELLS^2 floats, and of a reorthogonalisation costlier than the
split's SVDs.  Spectra, and the heat filters that Lanczos does not
serve, read one split: im B_k^T and im B_{k+1}, each from a thin
SVD of the taller side of the dense weighted boundary (scattered from
the entries), sized by exact Smith-form ranks, never by float cutoffs,
with the harmonic space as their complement; a spectrum takes the
singular values alone.  The decomposition takes no SVD: it projects
onto the spans of the pivot rows of B_k and the pivot columns of
B_{k+1} that the Smith kernel reports, by one dense solve of the rank's
size and one refinement each, with W_k the only weight that enters.
The split and the decomposition reject complexes above MAX_DENSE_CELLS
cells in a dimension.
Overflow, a gradient or curl eigenvalue that underflows to 0, and
weights too widely spread for the decomposition's solves raise
NonFiniteResult.  Spectral output is deterministic: eigenvalues ascend,
ties keep the order gradient, curl, harmonic, and each eigenvector's
largest-magnitude entry is made positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CellComplex, ChainVector, _entry_arrays, _gather, _product
from .errors import (
    BadDimension,
    NonFiniteResult,
    NonPositiveWeight,
    ShapeMismatch,
    SizeLimitExceeded,
    UnknownFilter,
)
from .snf import _smith, smith_normal_form

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


def _weighted_entries(
    cc: CellComplex, j: int, weights: WeightSet | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """Rows, columns, values and shape of the weighted B_j, read from its entries;
    B_0 and B_{dim+1} are the empty maps at the ends of the chain complex."""
    if weights is not None:
        weights.check_against(cc)
    if not 1 <= j <= cc.dim:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0), (cc.n_cells(j - 1), cc.n_cells(j))
    rows, cols, signs, shape = _entry_arrays(cc.boundary(j))
    values = signs.astype(float)
    if weights is not None:
        left = 1.0 / np.sqrt(weights.vector(j - 1))
        with np.errstate(over="ignore"):
            values = left[rows] * values * np.sqrt(weights.vector(j))[cols]
        _finite(values, f"the weighted B_{j}")
    return rows, cols, values, shape


def dense_boundary(cc: CellComplex, k: int, weights: WeightSet | None = None) -> np.ndarray:
    """The weighted B_k as a dense float array; k = 0 and k = dim + 1 give empty maps."""
    if not 0 <= k <= cc.dim + 1:
        raise BadDimension(f"no boundary B_{k} on a {cc.dim}-complex")
    _guard_size(cc)
    rows, cols, values, shape = _weighted_entries(cc, k, weights)
    dense = np.zeros(shape)
    dense[rows, cols] = values
    return dense


def boundary_rank(cc: CellComplex, k: int) -> int:
    """Exact rank of B_k (and of any positively weighted B_k); 0 off 1..dim."""
    return smith_normal_form(cc.boundary(k)).rank if 1 <= k <= cc.dim else 0


@np.errstate(over="ignore", invalid="ignore")
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
    result = np.zeros((cc.n_cells(k), cc.n_cells(k)))
    if part != "down":
        up = dense_boundary(cc, k + 1, weights)
        result += up @ up.T
    if part != "up":
        down = dense_boundary(cc, k, weights)
        result += down.T @ down
    return _finite(result, f"L_{k}")


@np.errstate(over="ignore", invalid="ignore")
def nonsymmetric_hodge(cc: CellComplex, weights: WeightSet) -> np.ndarray:
    """Flow-rate rescaled 1-Laplacian B_1^T W_0 B_1 + W_1^{-1} B_2 W_2 B_2^T W_1^{-1}.

    Symmetric: it is W_1^{-1/2} L_1 W_1^{-1/2} for the weighted L_1 with
    weights W_0^{-1}, W_1, W_2, so its kernel is W_1^{1/2} times the
    harmonic space.  The up part is the weighted up part of L_1, so
    rescaled; the down part reads W_0 itself, as 1/W_0 can overflow.
    """
    if cc.dim != 2:
        raise BadDimension("the rescaled 1-Laplacian needs a 2-dimensional complex")
    up = hodge_laplacian(cc, 1, "up", weights)
    scale = 1.0 / np.sqrt(weights.vector(1))
    b1 = dense_boundary(cc, 1)
    result = b1.T @ (weights.vector(0)[:, None] * b1) + scale[:, None] * up * scale[None, :]
    return _finite(result, "the rescaled 1-Laplacian")


def normalized_rw_weights(cc: CellComplex) -> WeightSet:
    """Random-walk normalisation weights for a 2-dimensional complex.

    2-cells are weighted by their boundary size, edges by the number of
    2-cells they border (floored at 1), vertices by twice the weighted
    edge degree: counts over the entries of B_1 and B_2, at any size.
    """
    if cc.dim != 2:
        raise BadDimension("random-walk weights need a 2-dimensional complex")
    rows1, cols1, _, (n0, _) = _weighted_entries(cc, 1, None)
    rows2, cols2, _, (n1, n2) = _weighted_entries(cc, 2, None)
    w2 = np.bincount(cols2, minlength=n2).astype(float)
    w1 = np.maximum(np.bincount(rows2, minlength=n1), 1.0)
    w0 = 2.0 * np.bincount(rows1, weights=w1[cols1], minlength=n0)
    for k, w, cause in ((0, w0, "is isolated"), (2, w2, "has an empty boundary")):
        if not w.all():
            cell = f"{k}-cell {cc.cells[k][int(np.argmin(w))]!r}"
            raise NonPositiveWeight(f"{cell} {cause}: its random-walk weight is 0")
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
    dirac = np.zeros((offsets[-1],) * 2, dtype=np.int64 if weights is None else float)
    for k in range(1, cc.dim + 1):
        block = dense_boundary(cc, k, weights)
        dirac[offsets[k - 1] : offsets[k], offsets[k] : offsets[k + 1]] = block
    return dirac + dirac.T


def _check_chain(cc: CellComplex, k: int, x: ChainVector) -> np.ndarray:
    if not 0 <= k <= cc.dim:
        raise BadDimension(f"no Laplacian L_{k} on a {cc.dim}-complex")
    if x.dim != k:
        raise BadDimension(f"chain has dimension {x.dim}, expected {k}")
    if len(x.values) != cc.n_cells(k):
        raise ShapeMismatch(
            f"chain has {len(x.values)} values, complex has {cc.n_cells(k)} {k}-cells"
        )
    return x.values


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, unless a float overflow left an infinity or NaN in them."""
    if not np.isfinite(values).all():
        raise NonFiniteResult(f"{what} overflowed the float range")
    return values


def _image(
    b: np.ndarray, rank: int, transpose: bool, vectors: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """Orthonormal basis of im B (im B^T with transpose) and the squared singular values.

    Both are the top rank of one thin SVD, on the taller of B and B^T,
    where numpy's is faster, and on B itself when square.  With
    vectors=False only singular values are computed; the basis is None.
    """
    tall = b.shape[0] >= b.shape[1]
    result = np.linalg.svd(b if tall else b.T, full_matrices=False, compute_uv=vectors)
    if not vectors:
        return None, result[:rank] ** 2
    u, s, vt = result
    # The left singular vectors span the column space of the matrix decomposed.
    return (u[:, :rank] if tall != transpose else vt[:rank].T), s[:rank] ** 2


def _image_bases(
    cc: CellComplex, k: int, weights: WeightSet | None, vectors: bool = True
) -> tuple[tuple[np.ndarray | None, np.ndarray], tuple[np.ndarray | None, np.ndarray]]:
    """Orthonormal bases of im B_k^T (gradient) and im B_{k+1} (curl) with eigenvalues.

    Each is sized by the exact Smith-form rank; the squared singular values
    are the eigenvalues of L_k on it, as each part annihilates the other's image.
    """
    if not 0 <= k <= cc.dim:
        raise BadDimension(f"no Laplacian L_{k} on a {cc.dim}-complex")
    b_down, b_up = dense_boundary(cc, k, weights), dense_boundary(cc, k + 1, weights)
    return (
        _image(b_down, boundary_rank(cc, k), True, vectors),
        _image(b_up, boundary_rank(cc, k + 1), False, vectors),
    )


@np.errstate(over="ignore", invalid="ignore")
def _tagged_spectrum(
    cc: CellComplex, k: int, weights: WeightSet | None, vectors: bool
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of L_k, their tags, the sorting permutation, and
    with vectors=True the gradient and curl bases side by side, unsorted.

    Gradient, curl and harmonic (zero) eigenvalues are sorted stably, so
    ties keep that order.  An eigenvalue that overflows, or a gradient or
    curl eigenvalue whose square underflows to 0, raises NonFiniteResult.
    """
    (down, down_values), (up, up_values) = _image_bases(cc, k, weights, vectors)
    images = np.hstack([down, up]) if vectors else None
    harmonic = cc.n_cells(k) - len(down_values) - len(up_values)
    eigenvalues = np.concatenate([down_values, up_values, np.zeros(harmonic)])
    tags = ("gradient",) * len(down_values) + ("curl",) * len(up_values)
    tags += ("harmonic",) * harmonic
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = _finite(eigenvalues[order], f"an eigenvalue of L_{k}")
    if not (np.concatenate([down_values, up_values]) > 0).all():
        raise NonFiniteResult(f"a gradient or curl eigenvalue of L_{k} underflowed to 0")
    return eigenvalues, tuple(tags[i] for i in order), order, images


@dataclass(frozen=True, eq=False)
class HodgeDecomposition:
    gradient: ChainVector
    curl: ChainVector
    harmonic: ChainVector


@np.errstate(over="ignore", invalid="ignore")
def hodge_decompose(
    cc: CellComplex,
    k: int,
    x: ChainVector,
    weights: WeightSet | None = None,
) -> HodgeDecomposition:
    """Split a k-chain into gradient, curl, and harmonic components.

    The gradient is the projection onto im W_k^{1/2} B_k^T and the curl onto
    im W_k^{-1/2} B_{k+1}; the harmonic part is the rest.  Each image is
    spanned by the pivot rows of B_k and the pivot columns of B_{k+1} from
    the Smith kernel, so each projection is one grounded solve (see
    _project).  Only W_k enters: rescaling W_{k-1} or W_{k+1} moves neither
    image.  A chain that overflows the float range, or weights W_k that
    spread too far for double precision, raise NonFiniteResult.
    """
    values = _check_chain(cc, k, x)
    _guard_size(cc)
    if weights is not None:
        weights.check_against(cc)
    root = np.ones(len(values)) if weights is None else np.sqrt(weights.vector(k))
    down, up = _basis_entries(cc, k, rows=True), _basis_entries(cc, k + 1, rows=False)
    gradient = _project(down, root, values)
    curl = _project(up, 1.0 / root, values)
    parts = (gradient, curl, values - gradient - curl)
    return HodgeDecomposition(
        *(ChainVector(k, _finite(part, "Hodge decomposition")) for part in parts)
    )


def _basis_entries(
    cc: CellComplex, j: int, rows: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The integer matrix S whose rows span im B_j^T (rows=True: B_j on its pivot
    rows) or im B_j (rows=False: B_j^T on its pivot columns), as the basis
    position, the cell and the sign of each entry, and the number of positions."""
    if not 1 <= j <= cc.dim:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, 0
    b = cc.boundary(j)
    _, pivots, _ = _smith(b.rows, b.indptr, b.indices, b.signs)
    b_rows, b_cols, signs, shape = _entry_arrays(b)
    basis, cell = (b_rows, b_cols) if rows else (b_cols, b_rows)
    position = np.full(shape[0 if rows else 1], -1, dtype=np.int64)
    position[[pivot[0 if rows else 1] for pivot in pivots]] = np.arange(len(pivots))
    kept = position[basis] >= 0
    return position[basis][kept], cell[kept], signs[kept], len(pivots)


def _project(
    s: tuple[np.ndarray, np.ndarray, np.ndarray, int], root: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Orthogonal projection of x onto the row space of A = S diag(root), for S
    from _basis_entries (full row rank m) and root positive.

    It is A^T y, where (A A^T) y = A x: a dense m x m solve, then one more for
    the projection of the residual x - A^T y (refined semi-normal equations;
    Bjorck, Numerical Methods for Least Squares Problems, 1996, 2.8).  The
    correction is added to the projection, not to y: where weights differ
    widely, y is large and its last bits would drop it.  The Gram matrix
    A A^T sums over the pairs of entries of A that share a cell.  root is
    first divided by its largest entry, which moves no row space, so the Gram
    matrix cannot overflow.

    Where the weights spread too far for double precision, the Gram matrix
    is singular in floats, the residual is not orthogonal to the rows of A
    to 1e-6 of max|x| (it is near 1e-16 at weights within 10^+-4), or the
    projection is more than twice as long as x; each raises NonFiniteResult.
    """
    basis, cell, signs, m = s
    if not m:
        return np.zeros_like(x)
    root = root / root.max()
    order = np.argsort(cell, kind="stable")
    basis, cell, values = basis[order], cell[order], signs[order] * root[cell[order]]
    at, owner = _gather(np.searchsorted(cell, np.arange(len(x) + 1)), cell)
    gram = np.bincount(basis[owner] * m + basis[at], weights=values[owner] * values[at],
                       minlength=m * m).reshape(m, m)
    matrix = (basis, cell, values, (m, len(x)))

    def solved(v: np.ndarray) -> np.ndarray:
        return _product(matrix, np.linalg.solve(gram, _product(matrix, v)), True)

    spread = "the weights spread too far for a Hodge decomposition in floating point"
    try:
        part = solved(x)
        part += solved(x - part)
    except np.linalg.LinAlgError:
        raise NonFiniteResult(spread) from None
    residual = _product(matrix, _finite(x - part, "Hodge decomposition"))
    if not (np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(x))
            and np.linalg.norm(part) <= 2 * np.linalg.norm(x)):
        raise NonFiniteResult(spread)
    return part


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

    The gradient and curl eigenpairs are the image bases with their
    eigenvalues; the harmonic vectors, eigenvalue 0, complete them to an
    orthonormal basis of the chain space.  Ties in eigenvalue keep the
    order gradient, curl, harmonic.  An eigenvalue that overflows, or a
    gradient or curl eigenvalue whose square underflows to 0, raises
    NonFiniteResult.
    """
    eigenvalues, tags, order, images = _tagged_spectrum(cc, k, weights, vectors=True)
    return SpectralBasis(eigenvalues, _completed(images)[:, order], tags)


def _completed(images: np.ndarray) -> np.ndarray:
    """The image bases followed by their orthonormal complement, from a complete QR,
    each column negated if its largest-magnitude entry is negative."""
    harmonic = np.linalg.qr(images, mode="complete")[0][:, images.shape[1] :]
    vectors = np.hstack([images, harmonic])
    if vectors.size:
        pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
        vectors *= np.where(pivots < 0, -1.0, 1.0)
    return vectors


def laplacian_spectrum(
    cc: CellComplex, k: int, weights: WeightSet | None = None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The eigenvalues and tags of spectral_basis, without the eigenvectors.

    Only the singular values of the two weighted boundaries are
    computed, so the cost is that of two values-only SVDs.
    """
    eigenvalues, tags, _, _ = _tagged_spectrum(cc, k, weights, vectors=False)
    return eigenvalues, tags


def _parse(descriptor: str) -> tuple[float, ...] | float:
    """A filter descriptor as data: the coefficients c0, c1, ... of a polynomial
    filter sum c_i lam^i, or the time t of the heat filter exp(-t lam)."""
    name, _, params = descriptor.partition(":")
    if name == "identity" and not params:
        return (1.0,)
    if name == "lowpass" and not params:
        return (1.0, -1.0)
    if name == "heat":
        if not params.startswith("t="):
            raise UnknownFilter(f"heat filter needs t=<value>, got {descriptor!r}")
        try:
            t = float(params[2:])
        except ValueError:
            raise UnknownFilter(f"bad heat time in {descriptor!r}") from None
        if not math.isfinite(t):
            raise UnknownFilter(f"bad heat time in {descriptor!r}")
        return t
    if name != "poly":
        raise UnknownFilter(f"unknown filter {descriptor!r}")
    try:
        coeffs = tuple(float(c) for c in params.split(",")) if params else ()
    except ValueError:
        raise UnknownFilter(f"bad polynomial coefficients in {descriptor!r}") from None
    if not coeffs:
        raise UnknownFilter("poly filter needs comma-separated coefficients")
    if not all(math.isfinite(c) for c in coeffs):
        raise UnknownFilter(f"bad polynomial coefficients in {descriptor!r}")
    return coeffs


def _laplacian(down, up, v: np.ndarray) -> np.ndarray:
    """L_k v = B_k^T B_k v + B_{k+1} B_{k+1}^T v, for the weighted B_k and B_{k+1}
    as (rows, cols, values, shape), by sparse products."""
    return _product(down, _product(down, v), True) + _product(up, _product(up, v, True))


def _lanczos_steps(rho_t: float, limit: int) -> int:
    """The Lanczos step count m for exp(-tL) v with the spectrum of L in [0, 4 rho].

    Hochbruck & Lubich, SIAM J. Numer. Anal. 34 (1997), Thm. 2: for |v| = 1
    the error of m steps is at most 10 exp(-m^2 / (5 rho t)) for
    sqrt(4 rho t) <= m <= 2 rho t, and 10 / (rho t) exp(-rho t) (e rho t / m)^m
    for m >= 2 rho t.  The least m >= sqrt(4 rho t) whose bound is at most
    the unit roundoff, or limit when no m below it is (and when rho t is
    inf or NaN).
    """
    if not rho_t:
        return min(1, limit)  # t L = 0: one step is exact
    start = math.sqrt(4 * rho_t)
    if not start < limit:  # also where rho t is inf or NaN
        return limit
    for m in range(max(1, math.ceil(start)), limit):
        if m <= 2 * rho_t:
            log_bound = math.log(10) - m * m / (5 * rho_t)
        else:
            log_rho_t = math.log(rho_t)
            log_bound = math.log(10) - log_rho_t - rho_t + m * (1 + log_rho_t - math.log(m))
        if log_bound <= -53 * math.log(2):
            return m
    return limit


def _lanczos_heat(
    down, up, x: np.ndarray, t: float, steps: int, bound: float
) -> np.ndarray:
    """exp(-t L_k) x as |x| Q_m exp(-t T_m) e_1, from m = steps Lanczos steps on
    the sparse L_k, each reorthogonalised in full twice (classical Gram-Schmidt).

    A breakdown, a residual of norm at most 2^-53 of the spectrum bound
    4 rho, ends the steps early: the Krylov space is then invariant and
    exp(-t T) is exact on it.  The steps run on x / max|x|, whose norm
    neither under- nor overflows, and the result is scaled back; a chain
    holding NaN or inf raises NonFiniteResult.
    """
    scale = _finite(np.max(np.abs(x), initial=0.0), "filtered chain")
    if not scale:
        return np.zeros_like(x)
    x = x / scale
    norm = np.linalg.norm(x)
    basis = np.zeros((steps, len(x)))
    basis[0] = x / norm
    alpha, beta = np.zeros(steps), np.zeros(steps)
    for j in range(steps):
        # float even where np.bincount saw no entries and returned int64
        w = np.asarray(_laplacian(down, up, basis[j]), dtype=float)
        for _ in range(2):
            coefficients = basis[: j + 1] @ w
            w -= coefficients @ basis[: j + 1]
            alpha[j] += coefficients[j]
        beta[j] = np.linalg.norm(w)
        if j + 1 == steps or beta[j] <= bound * 2.0**-53:
            break
        basis[j + 1] = w / beta[j]
    m = j + 1
    tridiagonal = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
    theta, vectors = np.linalg.eigh(tridiagonal)
    return scale * (norm * ((vectors @ (np.exp(-t * theta) * vectors[0])) @ basis[:m]))


@np.errstate(over="ignore", invalid="ignore")
def spectral_filter(
    cc: CellComplex,
    k: int,
    x: ChainVector,
    descriptor: str,
    weights: WeightSet | None = None,
) -> ChainVector:
    """Apply a registered spectral filter U f(Lambda) U^T x; the harmonic part gets f(0).

    A polynomial f (identity, lowpass, poly:) is p(L_k) x exactly, by
    Horner's rule on sparse products of the weighted boundaries, with no
    size limit.  A heat filter exp(-t L_k) x with t >= 0 is m Lanczos steps
    on the same sparse L_k (_lanczos_heat), with m fixed before the first
    step by an a-priori error bound at unit roundoff (_lanczos_steps) for
    the spectrum in [0, 4 rho], where 4 rho is the Gershgorin bound
    max_i (|B_k|^T |B_k| 1 + |B_{k+1}| |B_{k+1}|^T 1)_i.  The exact-rank
    split of the dense image bases serves the heat filters that Lanczos
    should not, and rejects complexes above MAX_DENSE_CELLS cells in a
    dimension: m >= n_k; a Krylov basis larger than the dense path's
    largest array, (m + 1) n_k > MAX_DENSE_CELLS^2; 2 m^2 n_k, the work of
    the full reorthogonalisation, above the sum of r c min(r, c) over the
    two weighted boundaries (r x c), the work of the split's thin SVDs; a
    bound that overflows; and t < 0, where exp(-t L_k) grows and no
    a-priori step count exists.
    """
    values = _check_chain(cc, k, x)
    parsed = _parse(descriptor)
    down, up = _weighted_entries(cc, k, weights), _weighted_entries(cc, k + 1, weights)
    if isinstance(parsed, tuple):
        filtered = parsed[-1] * values
        for c in reversed(parsed[:-1]):
            filtered = _laplacian(down, up, filtered) + c * values
        return ChainVector(k, _finite(filtered, "filtered chain"))
    n = len(values)
    if parsed >= 0:
        absolute = [(rows, cols, np.abs(v), shape) for rows, cols, v, shape in (down, up)]
        bound = float(np.max(_laplacian(*absolute, np.ones(n)), initial=0.0))
        # Lanczos for m < limit: (m + 1) n <= MAX_DENSE_CELLS^2, and 2 m^2 n, the
        # reorthogonalisation's work, below the split's thin SVDs, r c min(r, c) each
        split_work = sum(r * c * min(r, c) for *_, (r, c) in (down, up))
        limit = min(n, MAX_DENSE_CELLS**2 // n, math.isqrt(split_work // (2 * n)))
        steps = _lanczos_steps(bound / 4 * parsed, limit)
        if steps < limit:
            filtered = _lanczos_heat(down, up, values, parsed, steps, bound)
            return ChainVector(k, _finite(filtered, "filtered chain"))
    # The split runs on x over the power of two at or below max|x|, so no product
    # of the bases with the chain overflows, and in-range results keep every bit;
    # NaN and inf chains (scale 0.5) reach the final check.
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(values), initial=0.0))[1] - 1)
    x = values / scale
    filtered = x.copy()  # exp(-t 0) = 1 on the harmonic part
    for basis, eigenvalues in _image_bases(cc, k, weights):
        filtered += basis @ ((np.exp(-parsed * eigenvalues) - 1.0) * (basis.T @ x))
    return ChainVector(k, _finite(scale * filtered, "filtered chain"))


@np.errstate(over="ignore", invalid="ignore")
def quadratic_form(
    cc: CellComplex,
    k: int,
    x: ChainVector,
    weights: WeightSet | None = None,
) -> float:
    """x^T L_k x, the variation energy |B_{k+1}^T x|^2 + |B_k x|^2, from sparse products."""
    values = _check_chain(cc, k, x)
    down, up = _weighted_entries(cc, k, weights), _weighted_entries(cc, k + 1, weights)
    energy = np.sum(_product(up, values, True) ** 2) + np.sum(_product(down, values) ** 2)
    return float(_finite(energy, "quadratic form"))
