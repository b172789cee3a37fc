"""Homology: Betti numbers, harmonic bases, and homologous-cycle tests.

The k-th homology is ker B_k modulo im B_{k+1}.  Its Betti number is a
count of exact Smith-form ranks, and the integer torsion is the Smith
invariant factors above 1.  Harmonic representatives are the harmonic
vectors of hodge.spectral_basis, built without the rest of its basis.
Cycle checks apply B_k as a sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CellComplex, ChainVector, apply_boundary
from .errors import BadDimension, NotACycle, ShapeMismatch
from .hodge import _completed, _image_bases, dense_boundary
from .snf import smith_normal_form

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class HomologySummary:
    """Per-dimension Betti numbers plus integer torsion factors."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    coefficients: str

    def to_json(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }


def betti_numbers(cc: CellComplex, coefficients: str = "real") -> HomologySummary:
    """Betti numbers over the reals or the integers.

    Both come from exact Smith normal forms: beta_k = |C_k| - rank B_k -
    rank B_{k+1}.  The integer path additionally reports the torsion
    invariant factors (> 1) of each homology group.
    """
    if coefficients not in ("real", "integer"):
        raise ValueError(f"coefficients must be real or integer, got {coefficients!r}")
    snfs = [smith_normal_form(cc.boundary(k)) for k in range(1, cc.dim + 1)]
    ranks = [0, *(snf.rank for snf in snfs), 0]
    betti = tuple(cc.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(cc.dim + 1))
    torsion = [()] * (cc.dim + 1)
    if coefficients == "integer":
        torsion = [tuple(d for d in snf.diagonal[: snf.rank] if d > 1) for snf in snfs] + [()]
    return HomologySummary(betti, tuple(torsion), coefficients)


def harmonic_basis(cc: CellComplex, k: int) -> list[ChainVector]:
    """Orthonormal kernel basis of L_k; its size is the k-th Betti number."""
    images = np.hstack([basis for basis, _ in _image_bases(cc, k, None)])
    return [ChainVector(k, v) for v in _completed(images)[:, images.shape[1] :].T]


def _as_cycle(cc: CellComplex, chain: ChainVector, name: str) -> np.ndarray:
    values = chain.values
    if len(values) != cc.n_cells(chain.dim):
        raise ShapeMismatch(f"{name} has {len(values)} values for {cc.n_cells(chain.dim)} cells")
    if not np.isfinite(values).all():
        raise NotACycle(f"{name} has a value that is not finite")
    if chain.dim >= 1:
        scale = np.max(np.abs(values))
        boundary = apply_boundary(cc, chain).values
        if scale > 0 and np.max(np.abs(boundary)) / scale > RESIDUAL_TOL:
            raise NotACycle(f"{name} is not in the kernel of B_{chain.dim}")
    return values


def homologous(
    cc: CellComplex, a: ChainVector, b: ChainVector
) -> tuple[bool, ChainVector | None]:
    """Whether two cycles differ by a boundary, with a witness when they do.

    Returns (True, w) with B_{k+1} w = b - a (the boundary carrying the
    first cycle onto the second) when the difference lies in the image of
    B_{k+1}, judged by a least-squares residual below tolerance after
    normalising the difference to unit max-abs; else (False, None).
    """
    if a.dim != b.dim:
        raise BadDimension(f"chains have dimensions {a.dim} and {b.dim}")
    k = a.dim
    if not 0 <= k <= cc.dim:
        raise BadDimension(f"no {k}-cells on a {cc.dim}-complex")
    va = _as_cycle(cc, a, "first chain")
    vb = _as_cycle(cc, b, "second chain")
    diff = vb - va
    up = dense_boundary(cc, k + 1)
    scale = float(np.max(np.abs(diff)))
    if scale == 0.0:
        return True, ChainVector(k + 1, np.zeros(up.shape[1]))
    if up.shape[1] == 0:
        return False, None
    witness, *_ = np.linalg.lstsq(up, diff, rcond=None)
    residual = np.max(np.abs(up @ witness - diff)) / scale
    if residual > RESIDUAL_TOL:
        return False, None
    return True, ChainVector(k + 1, witness)
