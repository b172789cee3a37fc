"""Smith normal form over the integers by one sparse elimination.

Every rank in the package comes from here, read off a matrix's CSC
arrays (indptr, indices, values) as a BoundaryMatrix stores them.  The
kernel starts with one unit stage, ``_units``, which takes the pivots of
factor 1 that need no elimination.  A graph incidence matrix (every
column one -1 and one +1 by ``core._edge_endpoints``, as B_1) is totally
unimodular: its factors are 1 and its rank is the size of a spanning
forest, from ``core._forest_merges``, with no elimination.  Other
matrices are first peeled in numpy rounds over the CSC arrays
(Kaczynski-Mrozek-Slusarek 1998): a row with one live entry +-1 (a free
face) or a column with one (a coreduction) is a pivot of factor 1 whose
removal leaves the restriction of the matrix as the rest.  Only what the
peel leaves, on boundary matrices usually nothing, goes to the
elimination over dicts of Python ints, unit pivots first
(Dumas-Saunders-Villard 2001).  Its entries are tracked against a 64-bit
bound; exceeding it raises instead of silently losing precision.  The
kernel also reports a pivot (row, column) per factor, so that the Hodge
decomposition can read a row basis and a column basis of a boundary off
the same reduction, and how many of the pivots are unit pairs: forest
merges, peeled pairs and the elimination's unit pivots before its first
non-unit one.  Their block has determinant +-1, which lets
``homology.betti_numbers`` drop their columns' rows from the next
boundary, and ``validate.validate_nd`` settle most cells by the unit
stage alone.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import INT_LIMIT, BoundaryMatrix, _edge_endpoints, _forest_merges
from .errors import IntegerOverflow


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... with trailing zeros."""

    diagonal: tuple[int, ...]
    rank: int
    # The columns of the kernel's unit pairs (see _smith), which betti_numbers
    # drops from the rows of the next boundary.
    _paired: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        nonzero = [d for d in self.diagonal if d != 0]
        if len(nonzero) != self.rank:
            raise ValueError("rank disagrees with nonzero diagonal count")
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a != 0:
                raise ValueError(f"diagonal violates divisibility: {a} does not divide {b}")
        if any(d != 0 for d in self.diagonal[self.rank :]):
            raise ValueError("zeros must trail the diagonal")


def _int_csc(matrix) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The row count and CSC arrays of a BoundaryMatrix, or of a checked 2-d integer array."""
    if isinstance(matrix, BoundaryMatrix):
        return matrix.rows, matrix.indptr, matrix.indices, matrix.signs
    array = np.asarray(matrix)
    if array.ndim != 2:
        if array.size:
            raise ValueError("expected a 2-d integer matrix")
        array = array.reshape(0, 0)
    values = array.tolist()
    if not all(isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
               for row in values for v in row):
        raise ValueError("matrix entries must be integers")
    big = [v for row in values for v in row if abs(v) > INT_LIMIT]
    if big:
        raise IntegerOverflow(f"input entry {int(big[0])} exceeds 64-bit range")
    cols, rows = np.nonzero(array.T)
    indptr = np.searchsorted(cols, np.arange(array.shape[1] + 1))
    return array.shape[0], indptr, rows, array.T[cols, rows].astype(np.int64)


def _pivot(heap, rows, cols) -> tuple[int, int] | None:
    """A unit in the row with the fewest entries, in its shortest column.

    Heap pairs (length, row) with a stale length were superseded by a later
    push; a row without a unit is dropped until an elimination pushes it.
    With no unit left, the pivot is an entry of least absolute value.
    """
    while heap:
        length, i = heapq.heappop(heap)
        row = rows[i]
        if len(row) != length:
            continue
        best = None
        for j in row:
            v = cols[j][i]
            if (v == 1 or v == -1) and (best is None or len(cols[j]) < len(cols[best])):
                best = j
        if best is not None:
            return i, best
    entries = [(abs(v), i, j) for j, col in enumerate(cols) for i, v in col.items()]
    return min(entries)[1:] if entries else None


def _subtract(rows, cols, j: int, c: int, q: int) -> None:
    """Column j -= q * column c, keeping the row sets in step."""
    col = cols[j]
    for i, v in cols[c].items():
        w = col.get(i, 0) - q * v
        if w:
            if w > INT_LIMIT or w < -INT_LIMIT:
                raise IntegerOverflow("entry exceeded 64-bit range during reduction")
            if i not in col:
                rows[i].add(j)
            col[i] = w
        elif i in col:
            del col[i]
            rows[i].discard(j)


def _eliminate(r: int, c: int, rows, cols, heap) -> int:
    """Clear the pivot's row and column, drop both and return |pivot|.

    Column operations reduce row r modulo the pivot; a unit pivot's column
    is then dropped, as row r is zero outside it.  Otherwise row operations
    reduce column c, the smallest remainder becomes the new pivot, and a
    pivot that does not divide some column takes it in, keeping d_1 | d_2.
    """
    while True:
        pcol = cols[c]
        p = pcol[r]
        for j in list(rows[r]):
            if j != c:
                _subtract(rows, cols, j, c, cols[j][r] // p)
        if len(rows[r]) > 1:
            c = min((j for j in rows[r] if j != c), key=lambda j: abs(cols[j][r]))
            continue
        if p == 1 or p == -1:
            break
        for i in list(pcol):
            if i != r:
                pcol[i] %= p
                if not pcol[i]:
                    del pcol[i]
                    rows[i].discard(c)
        if len(pcol) > 1:
            r = min((i for i in pcol if i != r), key=lambda i: abs(pcol[i]))
            continue
        offender = next(
            (j for j, col in enumerate(cols) if any(v % p for v in col.values())), None
        )
        if offender is None:
            break
        _subtract(rows, cols, c, offender, -1)
    for i in pcol:
        rows[i].discard(c)
        if rows[i]:
            heapq.heappush(heap, (len(rows[i]), i))
    cols[c] = {}
    rows[r] = set()
    return abs(p)


def smith_normal_form(matrix) -> SnfResult:
    """Diagonal invariant factors of a BoundaryMatrix or 2-d integer array."""
    n, *csc = _int_csc(matrix)
    factors, pivots, units = _smith(n, *csc)
    zeros = min(n, csc[0].size - 1) - len(factors)
    paired = np.array([c for _, c in pivots[:units]], dtype=np.int64)
    return SnfResult(tuple(factors) + (0,) * zeros, len(factors), paired)


def _smith(n_rows: int, indptr, indices, values) -> tuple[list[int], list[tuple[int, int]], int]:
    """The nonzero invariant factors of the n_rows-row matrix with CSC arrays (indptr,
    indices, values), rows increasing in each column; pivots (row, col) whose rows
    are a row basis and whose columns are a column basis over the rationals; and
    how many of the pivots, from the first, are unit pairs: their rows and columns
    pick out a block of determinant +-1.

    The unit stage _units takes the pivots that need no elimination; only what
    they leave becomes dicts of Python ints, as the INT_LIMIT checks need.  A
    unit pivot of that elimination only subtracts multiples of its column from
    the columns still live, so after those column operations the unit pivots'
    block is triangular with +-1 on its diagonal; each is also a pivot of Gauss
    elimination over the rationals.  A non-unit pivot mixes rows and columns, so
    the pivots of what is left at the first one come from _rational_pivots.
    """
    peeled, row_ids, col_ids, indptr, indices, values = _units(n_rows, indptr, indices, values)
    pairs = list(zip(indices.tolist(), values.tolist()))
    ptr = indptr.tolist()
    cols = [dict(pairs[p:q]) for p, q in zip(ptr, ptr[1:])]
    rows: list[set[int]] = [set() for _ in range(len(row_ids))]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    factors, pivots, units = [1] * len(peeled), [], 0
    while pivot := _pivot(heap, rows, cols):
        if units == len(pivots):
            r, c = pivot
            if cols[c][r] in (1, -1):
                pivots.append(pivot)
                units += 1
            else:
                pivots += _rational_pivots(cols)
        factors.append(_eliminate(*pivot, rows, cols, heap))
    row_ids, col_ids = row_ids.tolist(), col_ids.tolist()
    pivots = peeled + [(row_ids[r], col_ids[c]) for r, c in pivots]
    return factors, pivots, len(peeled) + units


def _units(n_rows: int, indptr, indices, values):
    """The unit pivots that need no elimination and what they leave, as _peel
    returns them.  A graph incidence matrix takes its spanning forest, whose
    (younger root, merging edge) pairs are a nonsingular block of a totally
    unimodular matrix and of its full rank, so nothing is left.  Any other
    matrix goes to _peel, whose pivots were each the only live entry of their
    row or column when found, so the block expands along them; a column of
    length other than 2 sends it there before any edge test."""
    if (np.diff(indptr) != 2).any() or None in (ends := _edge_endpoints(indptr, indices, values)):
        return _peel(n_rows, indptr, indices, values)
    empty = np.zeros(0, dtype=np.int64)
    return _forest_merges(n_rows, ends), empty, empty, np.zeros(1, dtype=np.int64), empty, empty


# The peel's rounds read at most this many times the matrix's entries.  A chain
# of pairs that frees one pair per round, as the columns of a long strip of
# squares after its spanning tree's rows are dropped, leaves the rest to the
# elimination instead of taking one round per pair.
_SCANS = 32


def _peel(n_rows: int, indptr, indices, values):
    """The unit pivots that need no elimination, and the matrix they leave.

    In rounds over the live entries, each row with one live entry +-1 (a free
    face) pairs with that entry's column, one row per column; then each column
    with one live entry +-1 (a coreduction) pairs with that entry's row, one
    column per row.  Such a pivot's column clears by row operations, or its row
    by column operations, that change no other entry: its factor is 1, and the
    rest is the restriction to the live rows and columns (Kaczynski, Mrozek and
    Slusarek 1998).  So the pairs' rows and columns, with a row basis and a
    column basis of the rest, are bases of the whole.  The rounds stop at the
    first that removes nothing, or once they have read _SCANS times the
    entries.  Returns the pairs (row, col) in the order found, the live rows and
    columns (increasing), and the CSC arrays of what is left, renumbered on them.
    """
    n_cols = len(indptr) - 1
    rows, cols = indices, np.repeat(np.arange(n_cols), np.diff(indptr))
    units = (values == 1) | (values == -1)
    dead_rows, dead_cols = np.zeros(n_rows, dtype=bool), np.zeros(n_cols, dtype=bool)
    found_rows, found_cols = [], []
    budget = _SCANS * rows.size
    while rows.size and budget > 0:
        live = rows.size
        budget -= live
        for free in (True, False):  # free faces by row, then coreductions by column
            key, other = (rows, cols) if free else (cols, rows)
            at = np.flatnonzero(units & (np.bincount(key)[key] == 1))
            if at.size > 1:
                at = at[np.unique(other[at], return_index=True)[1]]
            if at.size:
                r, c = rows[at], cols[at]
                dead_rows[r] = dead_cols[c] = True
                kept = ~(dead_rows[rows] | dead_cols[cols])
                rows, cols, values, units = rows[kept], cols[kept], values[kept], units[kept]
                found_rows.append(r)
                found_cols.append(c)
        if rows.size == live:
            break
    pairs = []
    if found_rows:
        pairs = list(zip(np.concatenate(found_rows).tolist(), np.concatenate(found_cols).tolist()))
    if not rows.size:
        empty = np.zeros(0, dtype=np.int64)
        return pairs, empty, empty, np.zeros(1, dtype=np.int64), empty, empty
    row_ids = np.unique(rows)
    col_ids, starts = np.unique(cols, return_index=True)
    return (pairs, row_ids, col_ids, np.append(starts, cols.size),
            np.searchsorted(row_ids, rows), values)


def _rational_pivots(cols: list[dict[int, int]]) -> list[tuple[int, int]]:
    """(row, col) pivots of Gauss elimination over the rationals, column by column,
    on copies of the columns.  It is fraction-free: pivot p in row r takes q = c[r]
    out of a column c as c <- (p c - q pivot column) / gcd, which has the zero
    pattern of c - (q / p) pivot column."""
    left = {j: dict(col) for j, col in enumerate(cols) if col}
    pivots = []
    while left:
        c, col = left.popitem()
        if not col:
            continue
        r = min(col)
        p = col[r]
        for other in left.values():
            q = other.get(r)
            if q:
                for i in other:
                    other[i] *= p
                for i, v in col.items():
                    w = other.get(i, 0) - q * v
                    if w:
                        other[i] = w
                    else:
                        del other[i]
                g = math.gcd(*other.values())
                for i in other:
                    other[i] //= g
        pivots.append((r, c))
    return pivots
