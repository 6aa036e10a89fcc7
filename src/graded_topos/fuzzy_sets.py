"""Fuzzy subsets of a finite universe and their pointwise operations.

Universes are finite ordered collections of distinct hashable elements
(strings in files; computed objects such as opens or point-homomorphisms may
also serve as elements in memory). A FuzzySet stores its grades aligned with
the universe order, which makes equality extensional, hashing cheap, and the
lexicographic-by-membership sort order canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from . import grades
from .errors import MixedUniverse, SchemaError
from .grades import Grade, ONE, ZERO


@dataclass(frozen=True)
class Universe:
    """Finite ordered list of distinct element identifiers."""

    elements: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise SchemaError("universe", "must be non-empty")
        index = {}
        for i, e in enumerate(self.elements):
            if e in index:
                raise SchemaError("universe", f"duplicate element {e!r}")
            index[e] = i
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash(self.elements))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __contains__(self, element: Hashable) -> bool:
        return element in self._index  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, element: Hashable) -> int:
        return self._index[element]  # type: ignore[attr-defined]

    @classmethod
    def of(cls, *elements: Hashable) -> "Universe":
        return cls(tuple(elements))


@dataclass(frozen=True)
class FuzzySet:
    """Total map from a universe to grades, stored in universe order."""

    universe: Universe
    grades: tuple[Grade, ...]

    def __post_init__(self) -> None:
        if len(self.grades) != len(self.universe):
            raise SchemaError("membership", "membership must be total on the universe")
        object.__setattr__(self, "_hash", hash((self.universe, self.grades)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __call__(self, element: Hashable) -> Grade:
        return self.grades[self.universe.index(element)]


@dataclass(frozen=True)
class PointMap:
    """Function between two universes, stored aligned with the source order."""

    source: Universe
    target: Universe
    images: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.source):
            raise SchemaError("map", "map must be total on the source universe")
        for y in self.images:
            if y not in self.target:
                raise SchemaError("map", f"image {y!r} is not in the target universe")

    def __call__(self, element: Hashable) -> Hashable:
        return self.images[self.source.index(element)]

    @classmethod
    def identity(cls, universe: Universe) -> "PointMap":
        return cls(universe, universe, universe.elements)

    def is_bijective(self) -> bool:
        return (len(set(self.images)) == len(self.images)
                and len(self.source) == len(self.target))

    def inverse(self) -> "PointMap":
        """Inverse of a bijective map; raises SchemaError otherwise."""
        if not self.is_bijective():
            raise SchemaError("map", "not a bijection")
        back = {y: x for x, y in zip(self.source.elements, self.images)}
        return PointMap(self.target, self.source, tuple(back[y] for y in self.target.elements))


def compose_point_maps(f: PointMap, g: PointMap) -> PointMap:
    """Apply f, then g."""
    if f.target != g.source:
        raise MixedUniverse("composition endpoints do not match")
    return PointMap(f.source, g.target, tuple(g(y) for y in f.images))


def _require_same_universe(sets: Iterable[FuzzySet], universe: Universe | None = None) -> Universe:
    u = universe
    for t in sets:
        if u is None:
            u = t.universe
        elif t.universe != u:
            raise MixedUniverse("fuzzy sets over different universes")
    if u is None:
        raise MixedUniverse("cannot infer a universe from an empty family")
    return u


def empty_set(universe: Universe) -> FuzzySet:
    """The constant-0 fuzzy set."""
    return FuzzySet(universe, (ZERO,) * len(universe))


def full_set(universe: Universe) -> FuzzySet:
    """The constant-1 fuzzy set."""
    return FuzzySet(universe, (ONE,) * len(universe))


def union(sets: Sequence[FuzzySet], universe: Universe | None = None) -> FuzzySet:
    """Pointwise sup of a finite family; the empty union is the empty set.

    The universe argument is only needed to disambiguate an empty family.
    """
    u = _require_same_universe(sets, universe)
    if not sets:
        return empty_set(u)
    values = list(sets[0].grades)
    for t in sets[1:]:
        for i, g in enumerate(t.grades):
            if g > values[i]:
                values[i] = g
    return FuzzySet(u, tuple(values))


def intersection(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    """Pointwise min of two fuzzy sets."""
    if a.universe != b.universe:
        raise MixedUniverse("fuzzy sets over different universes")
    return FuzzySet(a.universe, tuple(map(grades.meet, a.grades, b.grades)))


def graded_inclusion(a: FuzzySet, b: FuzzySet) -> Grade:
    """Degree to which a is contained in b: the inf over all points of the
    Gödel arrow between the memberships."""
    if a.universe != b.universe:
        raise MixedUniverse("fuzzy sets over different universes")
    result = ONE
    for x, y in zip(a.grades, b.grades):
        if x > y and y < result:  # arrow is 1 when x <= y, else y
            result = y
    return result


def image(f: PointMap, t: FuzzySet) -> FuzzySet:
    """Pushforward along f: value at y is the sup over the preimage of y
    (0 where the preimage is empty)."""
    if t.universe != f.source:
        raise MixedUniverse("fuzzy set is not over the map's source")
    values = [ZERO] * len(f.target)
    for y, g in zip(f.images, t.grades):
        i = f.target.index(y)
        if g > values[i]:
            values[i] = g
    return FuzzySet(f.target, tuple(values))


def preimage(f: PointMap, t: FuzzySet) -> FuzzySet:
    """Pullback along f: value at x is t(f(x))."""
    if t.universe != f.target:
        raise MixedUniverse("fuzzy set is not over the map's target")
    return FuzzySet(f.source, tuple(t(y) for y in f.images))
