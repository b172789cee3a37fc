"""Regularity validation for cell complexes.

Dimension 1 requires every edge column of B_1 to have exactly one +1 and
one -1.  Dimension 2 additionally requires every B_2 column to trace one
simple oriented cycle.  The general n-dimensional conditions work per
cell: on the closure of each cell, the restricted chain complex must
have vanishing integer homology above degree 0 (acyclicity) and integer
0-homology Z (connectedness).  Both are decided exactly through Smith
normal forms: equality of a kernel and an image lattice reduces to a
rank identity plus all invariant factors being 1.

validate_nd reads every cell's closure.  The top level is the cell's
own column, of rank 1 with factor 1 unless it is empty.  Every lower
level goes to the Smith kernel ``snf._smith`` as columns renumbered
along the closure; level 1 over valid edges is a graph incidence
matrix, which the kernel ranks by its spanning forest without
elimination.  So a 1-cell (top level only) runs no elimination, nor
does a 2-cell over valid edges (level 1 and the top).

Validators report failures instead of raising; each failure carries a
condition id from {B1-columns, cell-acyclic, cell-connected, B2-cycle}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CellComplex,
    CellRef,
    _closure,
    _edge_endpoints,
    closure_indices,
    oriented_cycle,
    subcomplex,
)
from .errors import BadDimension, NotACycleColumn
from .snf import _smith

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
    """A failure for each column of B_1 that _edge_endpoints finds no (tail, head) in."""
    columns = cc.boundary(1).columns()
    failures = []
    for j, pair in enumerate(_edge_endpoints(columns)):
        if pair is None:
            signs = sorted(s for _, s in columns[j])
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
    """Check that every B_2 column is one simple oriented cycle."""
    if cc.dim != 2:
        raise BadDimension("dimension-2 validation needs a 2-dimensional complex")
    failures = []
    ends = _edge_endpoints(cc.boundary(1).columns())
    for j, column in enumerate(cc.boundary(2).columns()):
        cell = f"2-cell {cc.cells[2][j]}"
        try:
            _, reason = oriented_cycle(ends, column)
        except NotACycleColumn as exc:
            reason = str(exc)
        if reason is not None:
            failures.append(Failure("B2-cycle", cell, reason))
    return ValidationReport.from_failures(failures)


def closure(cc: CellComplex, cell: CellRef) -> CellComplex:
    """Smallest sub-complex containing the cell and its iterated boundary."""
    return subcomplex(cc, closure_indices(cc, cell))


def _level(columns: list, layers: list, k: int, l: int) -> tuple[int, ...]:
    """Nonzero invariant factors of B_l restricted to a k-cell's closure."""
    if l == k:  # the cell's own column: one nonzero +-1 column has factor 1
        return (1,) if layers[k - 1] else ()
    position = {i: p for p, i in enumerate(layers[l - 1])}
    restricted = [[(position[i], s) for i, s in columns[l][j]] for j in layers[l]]
    return tuple(_smith(len(layers[l - 1]), restricted)[0])


def _cell_failures(cc: CellComplex, columns: list, k: int, index: int) -> list[Failure]:
    cell = f"{k}-cell {cc.cells[k][index]}"
    layers = _closure(lambda l, j: columns[l][j], k, index)
    factors = [_level(columns, layers, k, l) for l in range(1, k + 1)]
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


def validate_nd(cc: CellComplex) -> ValidationReport:
    """Check the full per-cell regularity conditions in any dimension."""
    if cc.dim < 1:
        return ValidationReport(True, ())
    failures = _b1_column_failures(cc)
    columns = [[]] + [cc.boundary(k).columns() for k in range(1, cc.dim + 1)]
    for k in range(1, cc.dim + 1):
        for index in range(cc.n_cells(k)):
            failures.extend(_cell_failures(cc, columns, k, index))
    return ValidationReport.from_failures(failures)
