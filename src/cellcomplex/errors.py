"""Exception types raised across the package.

Construction errors are raised eagerly; validation routines report
failures in a ValidationReport instead of raising.
"""

from __future__ import annotations


class CellComplexError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CellComplexError):
    """A boundary matrix shape disagrees with the cell counts."""


class DuplicateLabel(CellComplexError):
    """Two cells of the same dimension carry the same label."""


class DuplicateEntry(CellComplexError):
    """A boundary matrix stores two entries for the same (row, col)."""


class ExactnessViolated(CellComplexError):
    """B_{k-1} @ B_k has a nonzero entry (not a chain complex)."""

    def __init__(self, k: int, row: int, col: int, value: int):
        self.k = k
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"B_{k - 1} @ B_{k} is nonzero at ({row}, {col}): {value}"
        )


class UnknownVertex(CellComplexError):
    """An edge or polygon references a vertex that does not exist."""


class SelfLoopEdge(CellComplexError):
    """An edge connects a vertex to itself (forbidden for regular complexes)."""


class MissingEdge(CellComplexError):
    """A polygon traverses a vertex pair with no matching edge."""

    def __init__(self, polygon, pair):
        self.polygon = tuple(polygon)
        self.pair = tuple(pair)
        super().__init__(f"polygon {self.polygon} needs edge {self.pair}")


class RepeatedVertexInPolygon(CellComplexError):
    """A polygon tuple visits some vertex more than once."""


class PolygonTooShort(CellComplexError):
    """A polygon tuple has fewer than three vertices."""


class DimZeroHasNoBoundary(CellComplexError):
    """Boundary of a 0-cell (or of a 0-chain) was requested."""


class NotSimple(CellComplexError):
    """Operation requires a simple complex (cells determined by boundary)."""


class DimensionTooHigh(CellComplexError):
    """Operation is only defined for complexes of dimension at most 2."""


class NotACycleColumn(CellComplexError):
    """A 2-cell boundary column does not trace a simple oriented cycle."""


class IntegerOverflow(CellComplexError):
    """Exact integer arithmetic exceeded the configured 64-bit width."""


class NotACycle(CellComplexError):
    """Chain passed to a homology test is not in the kernel of B_k."""


class BadDimension(CellComplexError):
    """Requested chain dimension does not exist on this complex."""


class NonPositiveWeight(CellComplexError):
    """Weight vectors must be strictly positive."""


class UnknownFilter(CellComplexError):
    """Spectral filter descriptor does not name a registered filter."""


class NonFiniteResult(CellComplexError):
    """A floating-point result overflowed to infinity or NaN, or underflowed to 0."""


class SizeLimitExceeded(CellComplexError):
    """Complex is too large for a dense eigensolve."""


class NotDownwardClosed(CellComplexError):
    """A simplex set or cell selection is missing a face of one of its members."""


class UncoveredVertex(CellComplexError):
    """A vertex is not covered by any simplex."""


class TooManySimplices(CellComplexError):
    """Simplex enumeration exceeded the configured cap."""


class EdgesCross(CellComplexError):
    """Straight-line embedding has edges meeting outside shared endpoints."""


class Disconnected(CellComplexError):
    """Operation requires a connected underlying graph."""


class CapExceeded(CellComplexError):
    """Cycle enumeration exceeded the configured cell cap."""

    def __init__(self, max_cells: int):
        self.max_cells = max_cells
        super().__init__(f"more than {max_cells} cycles; raise the cap explicitly")


class SchemaError(CellComplexError):
    """A JSON document does not match the documented format."""
