"""Persistent homology of Vietoris-Rips filtrations.

Simplices enter at their diameter, in (birth, dimension, vertex tuple)
order.  The persistence pairs over Z/2 come from union-find plus
cohomology with clearing: the package's one spanning-forest routine,
``core._forest_merges``, pairs vertices with the edges that merge their
components by the elder rule, and each higher dimension reduces its
coboundary matrix in reverse filtration order, skipping the simplices
already paired one dimension down (Chen & Kerber 2011; de Silva,
Morozov & Vejdemo-Johansson 2011; Bauer 2021, Ripser).  Each pair
(i, j) becomes a bar born at the diameter of simplex i and dying at
that of simplex j; a simplex in no pair gives an infinite bar.
Zero-length bars are dropped from the default output.

Filtrations and diagrams are kept as numpy columns, one entry per
simplex or bar.  ``Filtration.steps`` and ``PersistenceDiagram.bars``
read them as ``FiltrationStep`` and ``PersistenceBar`` objects, built
one at a time on access.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .builders import (
    DEFAULT_SIMPLEX_CAP,
    PointCloud,
    _facets,
    _match_rows,
    _radix_keys,
    rips_simplices,
)
from .core import _forest_merges


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
    """Simplices in filtration order, as columns.

    Step p is the simplex of dimension ``dims[p]`` on the vertices
    ``vertices[p, :dims[p] + 1]``, born at ``births[p]``; the rest of
    its row is -1, so no vertex id may be -1.  Steps must be distinct simplices with strictly
    increasing vertices and no NaN birth, each after its facets, ordered
    by (birth, dimension, vertex tuple).  The checks run vectorised on
    every filtration.  ``faces[p, :dims[p] + 1]`` holds the positions of
    the facets of a step of dimension >= 1, in ``itertools.combinations``
    order, and -1 elsewhere; it is derived, not an init or repr field.
    """

    births: np.ndarray
    dims: np.ndarray
    vertices: np.ndarray
    faces: np.ndarray = field(init=False, repr=False)

    @classmethod
    def from_steps(cls, steps: Sequence[FiltrationStep]) -> Filtration:
        """The filtration of the given steps, in their order."""
        width = max((max(len(s.vertices), s.dim + 1) for s in steps), default=1)
        rows = [tuple(s.vertices) + (-1,) * (width - len(s.vertices)) for s in steps]
        return cls(
            np.array([s.birth for s in steps], dtype=float),
            np.array([s.dim for s in steps], dtype=np.int64),
            np.array(rows, dtype=np.int64).reshape(len(steps), width),
        )

    def __post_init__(self):
        births = _frozen(self.births, float)
        dims = _frozen(self.dims, np.int64)
        vertices = _frozen(self.vertices, np.int64)
        if vertices.ndim != 2 or not len(births) == len(dims) == len(vertices):
            raise ValueError("births, dims and vertices need one entry per step")
        for name, value in (("births", births), ("dims", dims), ("vertices", vertices)):
            object.__setattr__(self, name, value)
        m, width = vertices.shape

        def shown(p: int) -> tuple[int, ...]:
            return tuple(vertices[p, : dims[p] + 1].tolist())

        if np.isnan(births).any():
            raise ValueError(f"step {_first(np.isnan(births))} has a NaN birth")
        if (dims < 0).any():
            p = _first(dims < 0)
            raise ValueError(f"step {p} has negative dim {dims[p]}")
        # Column by column: numpy reduces across short rows slowly.
        misfit = dims >= width
        rising = np.ones(m, dtype=bool)
        for c in range(width):
            misfit |= (vertices[:, c] != -1) != (c <= dims)
            if c:
                rising &= (vertices[:, c] > vertices[:, c - 1]) | (c > dims)
        if misfit.any():
            p = _first(misfit)
            listed = tuple(v for v in vertices[p].tolist() if v != -1)
            raise ValueError(f"simplex {listed} disagrees with dim {dims[p]}")
        if not rising.all():
            raise ValueError(f"simplex {shown(_first(~rising))} is not strictly increasing")

        faces = np.full((m, width), -1, dtype=np.int64)
        twice = []
        for k in range(width):
            here = np.flatnonzero(dims == k)
            above = np.flatnonzero(dims == k + 1)
            table = vertices[here, : k + 1]
            cofaces = vertices[above, : k + 2] if k + 1 < width else np.empty((0, k + 2), int)
            hits, repeated = _match_rows(table, _facets(cofaces))
            twice.extend(here[repeated].tolist())
            if len(above):
                found = np.append(here, -1)[hits]  # a miss (-1) reads the appended -1
                faces[above, : k + 2] = found.reshape(k + 2, len(above)).T
        if twice:
            raise ValueError(f"simplex {shown(min(twice))} occurs twice")
        position = np.arange(m)
        late = np.zeros(m, dtype=bool)
        for j in range(width):
            late |= (faces[:, j] > position) | ((faces[:, j] == -1) & (j <= dims) & (dims > 0))
        if late.any():
            p = _first(late)
            row = faces[p, : dims[p] + 1]
            j = _first((row > p) | (row == -1))
            face = tuple(np.delete(vertices[p, : dims[p] + 1], dims[p] - j).tolist())
            raise ValueError(f"face {face} of {shown(p)} missing or out of order")
        # Each step's key must not exceed the next one's; the first
        # column where two keys differ decides.
        undecided = np.ones(max(m - 1, 0), dtype=bool)
        for key in (births, dims, *vertices.T):
            if (undecided & (key[:-1] > key[1:])).any():
                raise ValueError("filtration is not sorted by (birth, dim, vertices)")
            undecided &= key[:-1] == key[1:]
        faces.setflags(write=False)
        object.__setattr__(self, "faces", faces)

    @property
    def steps(self) -> Sequence[FiltrationStep]:
        births, dims, vertices = self.births, self.dims, self.vertices
        return _Rows(
            len(births),
            lambda p: FiltrationStep(
                float(births[p]), int(dims[p]), tuple(vertices[p, : dims[p] + 1].tolist())
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip((self.births, self.dims, self.vertices),
                            (other.births, other.dims, other.vertices))
        )


def vr_filtration(
    pc: PointCloud,
    max_eps: float,
    max_dim: int,
    cap: int = DEFAULT_SIMPLEX_CAP,
) -> Filtration:
    """Rips filtration up to scale max_eps; births are simplex diameters.

    One np.lexsort on (birth, dim, vertex columns) orders the levels of
    rips_simplices; rows of lower dimension are padded with -1, and the
    int columns enter as radix keys.
    """
    levels = rips_simplices(pc, max_eps, max_dim, cap)
    sizes = [len(diameters) for _, diameters in levels]
    vertices = np.full((sum(sizes), len(levels)), -1, dtype=np.int64)
    offsets = np.cumsum([0, *sizes])
    for k, (level, _) in enumerate(levels):
        vertices[offsets[k] : offsets[k + 1], : k + 1] = level
    births = np.concatenate([diameters for _, diameters in levels])
    dims = np.repeat(np.arange(len(levels)), sizes)
    order = np.lexsort((*_radix_keys([*vertices.T[::-1], dims]), births))
    return Filtration(births[order], dims[order], vertices[order])


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
    """Pair the filtration's simplices over Z/2 and turn the pairs into bars.

    Dimension 0 pairs come from ``core._forest_merges`` over the edges'
    facets in filtration order, with the elder rule: each component's
    root is its oldest vertex, and an edge joining two components kills
    the younger root.  Each higher dimension k reduces the coboundary
    columns of the k-simplices in reverse filtration order, the earliest
    coface being the pivot, and skips the k-simplices that already
    killed a (k-1)-class (clearing).
    Coboundaries are read from CSR coface lists, compressed sparse rows
    of the (k+1)-simplices' facet positions, sorted by position, so an
    unreduced column's pivot is its first entry.  Every simplex in no
    pair carries an infinite bar; bars are sorted by (dim, birth, death).
    """
    births, dims, faces = filtration.births, filtration.dims, filtration.faces
    m = len(births)
    edges = np.flatnonzero(dims == 1)
    merges = _forest_merges(m, faces[edges, :2].tolist())
    born = [root for root, _ in merges]
    died = edges[[p for _, p in merges]].tolist()
    for k in range(1, faces.shape[1] - 1):
        cofaces = np.flatnonzero(dims == k + 1)
        facets = faces[cofaces, : k + 2].ravel()
        order = np.argsort(facets, kind="stable")
        column_of = np.repeat(cofaces, k + 2)[order].tolist()
        indptr = np.concatenate([[0], np.cumsum(np.bincount(facets, minlength=m))]).tolist()
        killers = set(died)
        reduced: dict[int, list[int] | set[int]] = {}
        for simplex in np.flatnonzero(dims == k)[::-1].tolist():
            lo, hi = indptr[simplex], indptr[simplex + 1]
            if lo == hi or simplex in killers:
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
            born.append(simplex)
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
