"""Persistent homology of filtered cell complexes, over Z/2.

A filtration is a complex, given by its boundary matrices B_1..B_n,
plus one birth per cell.  Cells enter in (birth, dimension, cell index)
order, and each must be born no earlier than its faces.  A Rips
filtration (``vr_filtration``) is the Vietoris-Rips complex with each
simplex born at its diameter; any ``CellComplex`` can be filtered by
passing its ``boundaries``, for instance with lower-star births.

The persistence pairs come from union-find plus cohomology with
clearing: the package's one spanning-forest routine,
``core._forest_merges``, pairs vertices with the edges that merge their
components by the elder rule, and each higher dimension reduces its
coboundary matrix in reverse filtration order, skipping the cells
already paired one dimension down (Chen & Kerber 2011; de Silva,
Morozov & Vejdemo-Johansson 2011; Bauer 2021, Ripser).  Each pair
(i, j) becomes a bar born at the birth of cell i and dying at that of
cell j; a cell in no pair gives an infinite bar.  Zero-length bars are
dropped from the default output.

Coefficients are Z/2, so signs are ignored and torsion is not seen as
torsion: RP^2's H_1 = Z/2 reads as one H_1 class and adds one H_2
class, so its Z/2 Betti numbers are (1, 1, 1) where the rational ones
are (1, 0, 0).

Filtrations and diagrams are kept as numpy columns, one entry per cell
or bar.  ``Filtration.steps`` and ``PersistenceDiagram.bars`` read them
as ``FiltrationStep`` and ``PersistenceBar`` objects, built one at a
time on access.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .builders import DEFAULT_SIMPLEX_CAP, PointCloud, _simplex_boundaries, rips_simplices
from .core import BoundaryMatrix, _closure, _entry_arrays, _forest_merges, _gather


@dataclass(frozen=True)
class FiltrationStep:
    birth: float
    dim: int
    vertices: tuple[int, ...]


class _Rows(Sequence):
    """Read-only sequence that builds item i as make(i) when it is read."""

    def __init__(self, n: int, make):
        self._n, self._make = n, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._make, range(self._n)[index]))
        return self._make(range(self._n)[index])

    def __eq__(self, other):
        if isinstance(other, (_Rows, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy, so a frozen object's columns cannot change under it."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Filtration:
    """A filtered complex: the boundary matrices B_1..B_n plus one birth per cell.

    ``cell_births`` lists the births dimension by dimension, each in
    cell order: the B_1.rows 0-cells (every birth, when there is no
    B_1), then the B_k.cols k-cells for k = 1..n.  Cells enter in
    (birth, dimension, cell index) order, and step p is the cell of
    dimension ``dims[p]`` and index ``cells[p]`` in its dimension, born
    at ``births[p]``; these three columns are derived, not init fields.
    The matrices must chain (B_k has B_{k-1}.cols rows), every edge must
    have two endpoints in B_1, and no birth may be NaN or precede the
    birth of a face.  B_{k-1} B_k = 0 is taken as given.  Two
    filtrations are equal when their matrices and cell births are.
    """

    boundaries: tuple[BoundaryMatrix, ...] = field(repr=False)
    cell_births: np.ndarray
    births: np.ndarray = field(init=False, repr=False)
    dims: np.ndarray = field(init=False, repr=False)
    cells: np.ndarray = field(init=False, repr=False)

    @classmethod
    def from_steps(cls, steps: Sequence[FiltrationStep]) -> Filtration:
        """The simplicial filtration of the given steps, in their order.

        Steps must be distinct simplices with strictly increasing
        vertices and no NaN birth, each after its facets, ordered by
        (birth, dimension, vertex tuple).  Vertex ids may be any
        integers: the 0-cells are numbered by their ids' order, which
        ``steps`` then reports, and each dimension's cells by their
        vertex tuples, as ``vr_filtration`` numbers them.
        """
        keys: list[tuple[float, int, tuple[int, ...]]] = []  # (birth, dim, vertices)
        seen: set[tuple[int, ...]] = set()
        for p, step in enumerate(steps):
            birth, dim, simplex = float(step.birth), int(step.dim), tuple(map(int, step.vertices))
            if math.isnan(birth):
                raise ValueError(f"step {p} has a NaN birth")
            if dim < 0:
                raise ValueError(f"step {p} has negative dim {dim}")
            if len(simplex) != dim + 1:
                raise ValueError(f"simplex {simplex} disagrees with dim {dim}")
            if any(a >= b for a, b in zip(simplex, simplex[1:])):
                raise ValueError(f"simplex {simplex} is not strictly increasing")
            if simplex in seen:
                raise ValueError(f"simplex {simplex} occurs twice")
            for face in itertools.combinations(simplex, dim) if dim else ():
                if face not in seen:
                    raise ValueError(f"face {face} of {simplex} missing or out of order")
            if keys and keys[-1] > (birth, dim, simplex):
                raise ValueError("filtration is not sorted by (birth, dim, vertices)")
            keys.append((birth, dim, simplex))
            seen.add(simplex)
        rank = {v: i for i, v in enumerate(sorted(s[0] for _, dim, s in keys if dim == 0))}
        cells = sorted(keys, key=lambda key: key[1:])
        layers = [
            np.array([[rank[v] for v in s] for _, dim, s in cells if dim == k], dtype=np.int64)
            .reshape(-1, k + 1)
            for k in range(cells[-1][1] + 1 if cells else 1)
        ]
        return cls(tuple(_simplex_boundaries(layers)), [birth for birth, _, _ in cells])

    def __post_init__(self):
        mats = tuple(self.boundaries)
        cell_births = np.array(self.cell_births, dtype=float)
        sizes = [mats[0].rows if mats else len(cell_births), *(b.cols for b in mats)]
        if any(b.rows != n for b, n in zip(mats, sizes)):
            raise ValueError("each B_k needs one row per column of B_(k-1)")
        if cell_births.shape != (sum(sizes),):
            raise ValueError(
                f"{sum(sizes)} cells need one birth each, "
                f"got {cell_births.size} in shape {cell_births.shape}"
            )
        if np.isnan(cell_births).any():
            raise ValueError(f"cell {_first(np.isnan(cell_births))} has a NaN birth")
        ends = np.diff(mats[0].indptr) if mats else np.empty(0)
        if (ends != 2).any():
            j = _first(ends != 2)
            raise ValueError(f"edge {j} has {ends[j]} entries in B_1; an edge needs 2")
        starts = np.cumsum([0, *sizes])
        for k, b in enumerate(mats, start=1):
            rows, cols = _entry_arrays(b)[:2]
            early = cell_births[starts[k] + cols] < cell_births[starts[k - 1] + rows]
            if early.any():
                e = _first(early)
                raise ValueError(f"{k}-cell {cols[e]} is born before its face {rows[e]}")
        # The cells are listed by (dimension, index), so a stable sort by
        # birth alone gives the (birth, dimension, index) order.
        order = np.argsort(cell_births, kind="stable")
        dims = np.repeat(np.arange(len(sizes)), sizes)[order]
        object.__setattr__(self, "boundaries", mats)
        for name, value in (("cell_births", cell_births), ("births", cell_births[order]),
                            ("dims", dims), ("cells", order - starts[dims])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def steps(self) -> Sequence[FiltrationStep]:
        """Each step's birth, dimension and 0-cells, sorted."""
        births, dims, cells, mats = self.births, self.dims, self.cells, self.boundaries

        def step(p: int) -> FiltrationStep:
            k = int(dims[p])
            vertices = _closure(lambda l, j: mats[l - 1].column(j), k, int(cells[p]))[0]
            return FiltrationStep(float(births[p]), k, tuple(vertices))

        return _Rows(len(births), step)

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        return self.boundaries == other.boundaries and np.array_equal(
            self.cell_births, other.cell_births
        )


def vr_filtration(
    pc: PointCloud,
    max_eps: float,
    max_dim: int,
    cap: int = DEFAULT_SIMPLEX_CAP,
) -> Filtration:
    """Rips filtration up to scale max_eps; births are simplex diameters.

    The boundaries are those of ``vietoris_rips``, with no labels: each
    dimension's simplices in lexicographic order, so the filtration
    order is (birth, dimension, vertex tuple).
    """
    levels = rips_simplices(pc, max_eps, max_dim, cap)
    mats = _simplex_boundaries([vertices for vertices, _ in levels])
    return Filtration(tuple(mats), np.concatenate([diameters for _, diameters in levels]))


@dataclass(frozen=True)
class PersistenceBar:
    dim: int
    birth: float
    death: float

    def __post_init__(self):
        if self.death < self.birth:
            raise ValueError("bars cannot die before they are born")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Bars as columns: bar i has dimension ``dims[i]`` and lives from
    ``births[i]`` to ``deaths[i]`` (inf when it never dies).  ``bars``
    reads them as PersistenceBar objects."""

    dims: np.ndarray
    births: np.ndarray
    deaths: np.ndarray

    def __post_init__(self):
        dims = _frozen(self.dims, np.int64)
        births = _frozen(self.births, float)
        deaths = _frozen(self.deaths, float)
        if not len(dims) == len(births) == len(deaths):
            raise ValueError("dims, births and deaths need one entry per bar")
        if (deaths < births).any():
            raise ValueError("bars cannot die before they are born")
        for name, value in (("dims", dims), ("births", births), ("deaths", deaths)):
            object.__setattr__(self, name, value)

    @property
    def bars(self) -> Sequence[PersistenceBar]:
        dims, births, deaths = self.dims, self.births, self.deaths
        return _Rows(
            len(dims),
            lambda i: PersistenceBar(int(dims[i]), float(births[i]), float(deaths[i])),
        )

    def in_dim(self, dim: int) -> list[PersistenceBar]:
        bars = self.bars
        return [bars[i] for i in np.flatnonzero(self.dims == dim)]

    def alive_at(self, eps: float, dim: int) -> int:
        """Bars alive at scale eps: born at or before it, not yet dead."""
        alive = (self.dims == dim) & (self.births <= eps) & (eps < self.deaths)
        return int(np.count_nonzero(alive))

    def __eq__(self, other):
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip((self.dims, self.births, self.deaths),
                            (other.dims, other.births, other.deaths))
        )


def persistence(filtration: Filtration, keep_zero_bars: bool = False) -> PersistenceDiagram:
    """Pair the filtration's cells over Z/2 and turn the pairs into bars.

    Dimension 0 pairs come from ``core._forest_merges`` over the edges'
    endpoints in B_1, in filtration positions and order, with the elder
    rule: each component's root is its oldest vertex, and an edge
    joining two components kills the younger root.  Each higher
    dimension k reduces the coboundary columns of the k-cells in reverse
    filtration order, the earliest coface being the pivot, and skips the
    k-cells that already killed a (k-1)-class (clearing).
    Coboundaries are read from the CSC columns of B_{k+1}, gathered in
    filtration order and regrouped by row as CSR coface lists, sorted by
    position, so an unreduced column's pivot is its first entry.  Every
    cell in no pair carries an infinite bar; bars are sorted by (dim,
    birth, death).
    """
    births, dims, cells, mats = (
        filtration.births, filtration.dims, filtration.cells, filtration.boundaries
    )
    m = len(births)
    at = [np.flatnonzero(dims == k) for k in range(len(mats) + 1)]
    position = []  # position[k][i]: where the k-cell i enters
    for here in at:
        position.append(np.empty(len(here), dtype=np.int64))
        position[-1][cells[here]] = here
    born: list[int] = []
    died: list[int] = []
    if mats:
        ends = position[0][mats[0].indices.reshape(-1, 2)[cells[at[1]]]]
        merges = _forest_merges(m, ends.tolist())
        born = [root for root, _ in merges]
        died = at[1][[j for _, j in merges]].tolist()
    for k in range(1, len(mats)):
        entries, owner = _gather(mats[k].indptr, cells[at[k + 1]])
        rows = position[k][mats[k].indices[entries]]
        order = np.argsort(rows, kind="stable")
        column_of = at[k + 1][owner[order]].tolist()
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))]).tolist()
        killers = set(died)
        reduced: dict[int, list[int] | set[int]] = {}
        for cell in at[k][::-1].tolist():
            lo, hi = indptr[cell], indptr[cell + 1]
            if lo == hi or cell in killers:
                continue
            column = column_of[lo:hi]
            pivot = column[0]
            other = reduced.get(pivot)
            if other is not None:
                column = set(column)
                while other is not None:
                    column.symmetric_difference_update(other)
                    if not column:
                        break
                    pivot = min(column)
                    other = reduced.get(pivot)
                if not column:
                    continue
            reduced[pivot] = column
            born.append(cell)
            died.append(pivot)
    born_at, died_at = np.array(born, dtype=np.int64), np.array(died, dtype=np.int64)
    paired = np.zeros(m, dtype=bool)
    paired[born_at] = paired[died_at] = True
    if not keep_zero_bars:
        longer = births[died_at] > births[born_at]
        born_at, died_at = born_at[longer], died_at[longer]
    free = np.flatnonzero(~paired)
    bar_dims = np.concatenate([dims[born_at], dims[free]])
    bar_births = np.concatenate([births[born_at], births[free]])
    bar_deaths = np.concatenate([births[died_at], np.full(len(free), math.inf)])
    order = np.lexsort((bar_deaths, bar_births, bar_dims))
    return PersistenceDiagram(bar_dims[order], bar_births[order], bar_deaths[order])
