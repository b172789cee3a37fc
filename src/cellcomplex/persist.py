"""Persistent homology of Vietoris-Rips filtrations.

Simplices enter at their diameter, in (birth, dimension, vertex tuple)
order.  The persistence pairs over Z/2 come from union-find plus
cohomology with clearing: union-find with the elder rule pairs vertices
with the edges that merge their components, and each higher dimension
reduces its coboundary matrix in reverse filtration order, skipping the
simplices already paired one dimension down (Chen & Kerber 2011; de
Silva, Morozov & Vejdemo-Johansson 2011; Bauer 2021, Ripser).  Each
pair (i, j) becomes a bar born at the diameter of simplex i and dying
at that of simplex j; a simplex in no pair gives an infinite bar.
Zero-length bars are dropped from the default output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .builders import DEFAULT_SIMPLEX_CAP, PointCloud, rips_simplices


@dataclass(frozen=True)
class FiltrationStep:
    birth: float
    dim: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class Filtration:
    """Distinct simplices, strictly increasing vertex tuples, ordered by
    (birth, dimension, vertex tuple).

    ``faces[p]`` holds the positions of the facets of step p (empty for
    a vertex), in ``itertools.combinations`` order; it is derived, not
    an init, compare or repr field.
    """

    steps: tuple[FiltrationStep, ...]
    faces: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order: dict[tuple[int, ...], int] = {}
        find = order.__getitem__
        faces = []
        previous = None
        for position, step in enumerate(self.steps):
            vertices, dim = step.vertices, step.dim
            if len(vertices) != dim + 1:
                raise ValueError(f"simplex {vertices} disagrees with dim {dim}")
            # A repeated vertex in a higher simplex repeats in one of its
            # facets, down to an edge, so the face lookup rejects it.
            if vertices != tuple(sorted(vertices)) or (dim == 1 and vertices[0] == vertices[1]):
                raise ValueError(f"simplex {vertices} is not strictly increasing")
            try:
                faces.append(
                    tuple(map(find, itertools.combinations(vertices, dim))) if dim else ()
                )
            except KeyError as exc:
                raise ValueError(
                    f"face {exc.args[0]} of {vertices} missing or out of order"
                ) from None
            key = (step.birth, dim, vertices)
            if position and key < previous:
                raise ValueError("filtration is not sorted by (birth, dim, vertices)")
            previous = key
            order[vertices] = position
        if len(order) != len(self.steps):
            twice = next(s.vertices for i, s in enumerate(self.steps) if order[s.vertices] != i)
            raise ValueError(f"simplex {twice} occurs twice")
        object.__setattr__(self, "faces", tuple(faces))


def vr_filtration(
    pc: PointCloud,
    max_eps: float,
    max_dim: int,
    cap: int = DEFAULT_SIMPLEX_CAP,
) -> Filtration:
    """Rips filtration up to scale max_eps; births are simplex diameters."""
    keys = sorted(
        (diameter, len(vertices) - 1, vertices)
        for vertices, diameter in rips_simplices(pc, max_eps, max_dim, cap)
    )
    return Filtration(tuple(FiltrationStep(*key) for key in keys))


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


@dataclass(frozen=True)
class PersistenceDiagram:
    bars: tuple[PersistenceBar, ...]

    def in_dim(self, dim: int) -> list[PersistenceBar]:
        return [bar for bar in self.bars if bar.dim == dim]

    def alive_at(self, eps: float, dim: int) -> int:
        """Bars alive at scale eps: born at or before it, not yet dead."""
        return sum(1 for b in self.in_dim(dim) if b.birth <= eps < b.death)


def persistence(filtration: Filtration, keep_zero_bars: bool = False) -> PersistenceDiagram:
    """Pair the filtration's simplices over Z/2 and turn the pairs into bars.

    Dimension 0 pairs come from union-find over the edges, with the
    elder rule: each component's root is its oldest vertex, and an edge
    joining two components kills the younger root.  Each higher
    dimension k reduces the coboundary columns of the k-simplices in
    reverse filtration order, the earliest coface being the pivot, and
    skips the k-simplices that already killed a (k-1)-class (clearing).
    Every simplex in no pair carries an infinite bar.
    """
    steps, faces = filtration.steps, filtration.faces
    by_dim: list[list[int]] = [[], []]
    for position, step in enumerate(steps):
        while len(by_dim) <= step.dim:
            by_dim.append([])
        by_dim[step.dim].append(position)
    pairs: list[tuple[int, int]] = []
    parent = list(range(len(steps)))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for edge in by_dim[1]:
        a, b = (root(v) for v in faces[edge])
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            pairs.append((b, edge))
    for k in range(1, len(by_dim) - 1):
        cofaces: dict[int, list[int]] = {}
        for coface in by_dim[k + 1]:
            for face in faces[coface]:
                cofaces.setdefault(face, []).append(coface)
        killers = {j for _, j in pairs}
        reduced: dict[int, set[int]] = {}
        for simplex in reversed(by_dim[k]):
            if simplex in killers:
                continue
            column = set(cofaces.get(simplex, ()))
            while column:
                pivot = min(column)
                other = reduced.get(pivot)
                if other is None:
                    reduced[pivot] = column
                    pairs.append((simplex, pivot))
                    break
                column ^= other
    bars = []
    paired = set()
    for i, j in pairs:
        paired.update((i, j))
        bar = PersistenceBar(steps[i].dim, steps[i].birth, steps[j].birth)
        if keep_zero_bars or bar.death > bar.birth:
            bars.append(bar)
    for i, step in enumerate(steps):
        if i not in paired:
            bars.append(PersistenceBar(step.dim, step.birth, math.inf))
    bars.sort(key=lambda b: (b.dim, b.birth, b.death))
    return PersistenceDiagram(tuple(bars))
