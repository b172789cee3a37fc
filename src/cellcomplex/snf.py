"""Smith normal form over the integers by one sparse elimination.

Every rank in the package comes from here.  A graph incidence matrix
(every column one -1 and one +1, as B_1) is totally unimodular: its
factors are 1 and its rank is the size of a spanning forest, from
``core._forest_merges``, with no elimination.  Other matrices take unit
pivots first (Kaczynski-Mrozek-Slusarek 1998; Dumas-Saunders-Villard
2001): boundary matrices are +-1-sparse, so nearly every pivot is a
unit.  Entries are tracked against a 64-bit bound; exceeding it raises
instead of silently losing precision.  The kernel also reports a pivot
(row, column) per factor, so that the Hodge decomposition can read a row
basis and a column basis of a boundary off the same elimination.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import INT_LIMIT, BoundaryMatrix, _forest_merges
from .errors import IntegerOverflow


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... with trailing zeros."""

    diagonal: tuple[int, ...]
    rank: int

    def __post_init__(self):
        nonzero = [d for d in self.diagonal if d != 0]
        if len(nonzero) != self.rank:
            raise ValueError("rank disagrees with nonzero diagonal count")
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a != 0:
                raise ValueError(f"diagonal violates divisibility: {a} does not divide {b}")
        if any(d != 0 for d in self.diagonal[self.rank :]):
            raise ValueError("zeros must trail the diagonal")


def _int_entries(matrix) -> tuple[int, int, list[tuple[int, int, int]]]:
    if isinstance(matrix, BoundaryMatrix):
        return matrix.rows, matrix.cols, matrix.entries
    array = np.asarray(matrix)
    if array.ndim != 2:
        if array.size == 0:
            return 0, 0, []
        raise ValueError("expected a 2-d integer matrix")
    if array.dtype.kind == "f" and not np.all(np.isfinite(array) & (array == np.round(array))):
        raise ValueError("matrix entries must be integers")
    entries = [
        (i, j, int(v)) for i, row in enumerate(array.tolist()) for j, v in enumerate(row) if v
    ]
    for _, _, v in entries:
        if abs(v) > INT_LIMIT:
            raise IntegerOverflow(f"input entry {v} exceeds 64-bit range")
    return *array.shape, entries


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
    n_rows, n_cols, entries = _int_entries(matrix)
    factors, _ = _smith(n_rows, n_cols, entries)
    return SnfResult(tuple(factors) + (0,) * (min(n_rows, n_cols) - len(factors)), len(factors))


def _incidence_pairs(n_cols: int, entries) -> Iterator[tuple[int, int]] | None:
    """(tail, head) rows of each column if every column is one -1 and one +1, else None."""
    tail, head = [-1] * n_cols, [-1] * n_cols
    for i, j, v in entries:
        ends = tail if v == -1 else head if v == 1 else None
        if ends is None or ends[j] >= 0:
            return None
        ends[j] = i
    return None if -1 in tail or -1 in head else zip(tail, head)


def _smith(
    n_rows: int, n_cols: int, entries
) -> tuple[list[int], list[tuple[int, int]]]:
    """The nonzero invariant factors of (row, col, value) triplets, at most one per
    position, and pivots (row, col) whose rows are a row basis and whose columns
    are a column basis over the rationals.

    A graph incidence matrix takes its spanning forest, whose pivots are the
    (younger root, merging edge) pairs.  Otherwise every unit pivot of the
    elimination is a pivot of Gauss elimination over the rationals.  A non-unit
    pivot mixes rows and columns, so the pivots of what is left at the first one
    come from _rational_pivots.
    """
    pairs = _incidence_pairs(n_cols, entries)
    if pairs is not None:
        pivots = _forest_merges(n_rows, pairs)
        return [1] * len(pivots), pivots
    cols: list[dict[int, int]] = [{} for _ in range(n_cols)]
    rows: list[set[int]] = [set() for _ in range(n_rows)]
    for i, j, v in entries:
        cols[j][i] = v
        rows[i].add(j)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    factors, pivots = [], []
    units = True
    while pivot := _pivot(heap, rows, cols):
        if units:
            r, c = pivot
            units = cols[c][r] in (1, -1)
            pivots += [pivot] if units else _rational_pivots(cols)
        factors.append(_eliminate(*pivot, rows, cols, heap))
    return factors, pivots


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
