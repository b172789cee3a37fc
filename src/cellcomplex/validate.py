"""Regularity validation for cell complexes.

Dimension 1 requires every column of B_1 to have one +1 and one -1: a tail
of -1 from core._edge_endpoints fails it.  Dimension 2 also requires every
B_2 column to trace one simple oriented cycle, by core.oriented_cycle over
those (tail, head) pairs.  The general n-dimensional conditions work per
cell: on the closure of each cell, the restricted chain complex must
have vanishing integer homology above degree 0 (acyclicity) and integer
0-homology Z (connectedness).

validate_nd settles most cells by the Smith kernel's unit pivots alone,
when B_{l-1} B_l = 0 holds for every l (tested once per complex with
core.integer_product).  The closures of all k-cells are stacked block-
diagonally, and at every level l the kernel's unit stage, snf._units,
gives each block r_l unit pairs of B_l.  A k-cell whose closure has n_l
l-cells is settled when r_1 = n_0 - 1, r_l = n_{l-1} - r_{l-1} for
2 <= l <= k, and r_k = 1.  Then the closure has the integer homology of
a point:
- unit pairs pick out a minor of +-1, so rank B_l >= r_l;
- exactness gives rank B_l <= n_l - rank B_{l+1}, and rank B_k <= 1 as
  B_k is one column; going down from r_k = 1, every rank equals r_l,
  which is the exact path's rank identity;
- a matrix of rank r with an r x r minor of +-1 has every invariant
  factor 1, as their product is the gcd of the r x r minors.

Every other cell, and every cell of a complex that is not exact, takes
the exact path: Smith normal forms, where equality of a kernel and an
image lattice reduces to a rank identity plus all invariant factors
being 1.  The top level is the cell's own column, of rank 1 with factor
1 unless it is empty.  Every lower level goes to the Smith kernel
``snf._smith`` as the CSC arrays of B_l restricted to the closure; level
1 over valid edges is a graph incidence matrix, which the kernel ranks
by its spanning forest without elimination.  Failures and their details
come from this path alone.

Validators report failures instead of raising; each failure carries a
condition id from {B1-columns, cell-acyclic, cell-connected, B2-cycle}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CellComplex,
    CellRef,
    _closure,
    _drop_rows,
    _edge_endpoints,
    _gather,
    closure_indices,
    integer_product,
    oriented_cycle,
    subcomplex,
)
from .errors import BadDimension
from .snf import _smith, _units

__all__ = [
    "Failure",
    "ValidationReport",
    "closure",
    "validate_dim1",
    "validate_dim2",
    "validate_nd",
]


@dataclass(frozen=True)
class Failure:
    condition: str
    cell: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[Failure, ...]

    @classmethod
    def from_failures(cls, failures: list[Failure]) -> "ValidationReport":
        return cls(not failures, tuple(failures))

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "failures": [
                {"condition": f.condition, "cell": f.cell, "detail": f.detail}
                for f in self.failures
            ],
        }


def _b1_column_failures(cc: CellComplex) -> list[Failure]:
    """A failure for each column of B_1 that _edge_endpoints finds no edge in."""
    b = cc.boundary(1)
    tails, _ = _edge_endpoints(b.indptr, b.indices, b.signs)
    failures = []
    for j in np.flatnonzero(tails < 0).tolist():
        signs = sorted(b.signs[b.indptr[j] : b.indptr[j + 1]].tolist())
        failures.append(
            Failure(
                "B1-columns",
                f"1-cell {cc.cells[1][j]}",
                f"column has signs {signs}, expected one -1 and one +1",
            )
        )
    return failures


def validate_dim1(cc: CellComplex) -> ValidationReport:
    """Check the dimension-1 condition on every column of B_1."""
    if cc.dim < 1:
        raise BadDimension("dimension-1 validation needs at least one edge layer")
    return ValidationReport.from_failures(_b1_column_failures(cc))


def validate_dim2(cc: CellComplex) -> ValidationReport:
    """Check that every B_2 column is one simple oriented cycle.  The cycle walk
    steps through each column's (edge, sign) pairs, so it reads the column lists."""
    if cc.dim != 2:
        raise BadDimension("dimension-2 validation needs a 2-dimensional complex")
    failures = []
    b1 = cc.boundary(1)
    tails, heads = _edge_endpoints(b1.indptr, b1.indices, b1.signs)
    ends = list(zip(tails.tolist(), heads.tolist()))
    for j, column in enumerate(cc.boundary(2).columns()):
        _, reason = oriented_cycle(ends, column)
        if reason is not None:
            failures.append(Failure("B2-cycle", f"2-cell {cc.cells[2][j]}", reason))
    return ValidationReport.from_failures(failures)


def closure(cc: CellComplex, cell: CellRef) -> CellComplex:
    """Smallest sub-complex containing the cell and its iterated boundary."""
    return subcomplex(cc, closure_indices(cc, cell))


def _level(cc: CellComplex, layers: list, k: int, l: int) -> tuple[int, ...]:
    """Nonzero invariant factors of B_l restricted to a k-cell's closure."""
    if l == k:  # the cell's own column: one nonzero +-1 column has factor 1
        return (1,) if len(layers[k - 1]) else ()
    b = cc.boundary(l).restrict(layers[l - 1], layers[l])
    return tuple(_smith(b.rows, b.indptr, b.indices, b.signs)[0])


def _cell_failures(cc: CellComplex, k: int, index: int) -> list[Failure]:
    cell = f"{k}-cell {cc.cells[k][index]}"
    layers = _closure(cc.boundaries, k, index)
    factors = [_level(cc, layers, k, l) for l in range(1, k + 1)]
    ranks = [len(f) for f in factors]
    failures = []
    # Acyclicity: the top column is injective and, over Z, the kernel of
    # each lower map equals the image of the one above it.
    if ranks[k - 1] != 1:
        failures.append(Failure("cell-acyclic", cell, "boundary column is zero"))
    for l in range(2, k + 1):
        kernel_rank = len(layers[l - 1]) - ranks[l - 2]
        if kernel_rank != ranks[l - 1] or any(d != 1 for d in factors[l - 1]):
            failures.append(
                Failure(
                    "cell-acyclic",
                    cell,
                    f"ker B_{l - 1} != im B_{l} on the closure "
                    f"(kernel rank {kernel_rank}, image rank {ranks[l - 1]}, "
                    f"factors {factors[l - 1]})",
                )
            )
    cokernel_rank = len(layers[0]) - ranks[0]
    if cokernel_rank != 1 or any(d != 1 for d in factors[0]):
        failures.append(
            Failure(
                "cell-connected",
                cell,
                f"integer cokernel of B_1 on the closure has rank {cokernel_rank} "
                f"with factors {factors[0]}, expected Z",
            )
        )
    return failures


def _settled(cc: CellComplex, k: int) -> np.ndarray:
    """Which k-cells the unit pivots of their closures show to be regular.

    Block b is the closure of k-cell b.  Per level l, the blocks' B_l are
    stacked block-diagonally as CSC arrays: the columns are the blocks'
    l-cells in (block, cell) order, and the rows their (l-1)-cells, numbered
    across blocks by one np.unique of block * rows + row.  Going up from l = 1,
    each stacked B_l loses the rows that level l - 1 paired, as in
    homology.betti_numbers, and goes to the Smith kernel's unit stage
    snf._units; np.bincount of its pairs' blocks gives each block's r_l.  A
    block with n_l l-cells is settled when r_1 = n_0 - 1, r_l = n_{l-1} -
    r_{l-1} for 2 <= l <= k, and r_k = 1.  Needs B_{l-1} B_l = 0 for l <= k.
    """
    n = cc.n_cells(k)
    block, stack, cells = [np.arange(n)], [], np.arange(n)
    for l in range(k, 0, -1):
        b = cc.boundary(l)
        at, col = _gather(b.indptr, cells)
        keys, rows = np.unique(block[0][col] * b.rows + b.indices[at], return_inverse=True)
        stack.insert(0, (np.searchsorted(col, np.arange(cells.size + 1)), rows, b.signs[at]))
        blocks, cells = np.divmod(keys, b.rows)
        block.insert(0, blocks)
    settled, rank, paired = np.ones(n, dtype=bool), 1, []
    for l in range(1, k + 1):
        size = block[l - 1].size
        pairs = _units(size, *_drop_rows(size, *stack[l - 1], paired))[0]
        paired = np.array([c for _, c in pairs], dtype=np.int64)
        below, rank = rank, np.bincount(block[l][paired], minlength=n)
        settled &= rank == np.bincount(block[l - 1], minlength=n) - below
    return settled & (rank == 1)


def validate_nd(cc: CellComplex) -> ValidationReport:
    """Check the full per-cell regularity conditions in any dimension: settled cells
    pass; the others take the exact path, in (dimension, index) order."""
    if cc.dim < 1:
        return ValidationReport(True, ())
    failures = _b1_column_failures(cc)
    exact = not any(integer_product(cc.boundary(k - 1), cc.boundary(k))
                    for k in range(2, cc.dim + 1))
    for k in range(1, cc.dim + 1):
        rest = np.flatnonzero(~_settled(cc, k)) if exact else range(cc.n_cells(k))
        for index in map(int, rest):
            failures.extend(_cell_failures(cc, k, index))
    return ValidationReport.from_failures(failures)
