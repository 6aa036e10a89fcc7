"""Fuzzy subsets of a finite universe and their pointwise operations.

Universes are finite ordered collections of distinct hashable elements
(strings in files; computed objects such as opens or point-homomorphisms may
also serve as elements in memory). A FuzzySet stores its grades aligned with
the universe order, which makes equality extensional and the
lexicographic-by-membership sort order canonical.

A FuzzySet is hashed once, when it is made, and keeps its grades' hashes
beside the grades (`Aligned`): its hash is hash((universe, hashes)), which
equals hash((universe, grades)). A set that the package builds by picking
grades of another set, or of a rank table, by position (`Aligned._read`:
`preimage` along a map, each open `generate_topology` decodes) picks their
hashes by the same positions, so no grade is hashed again; `Fraction`
hashing is slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

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


class Aligned:
    """Base of a frozen dataclass of two fields, a head and a tuple of
    grades aligned with it (`FuzzySet`, `systems.PointHom`), hashed as the
    pair of them from the grades' hashes, which it keeps as `_hashes`."""

    def _hashed(self, key: Hashable, hashes: tuple[int, ...]) -> Any:
        # hash((key, hashes)) == hash((head, grades)) for the head or a
        # `Prehashed` head as key: a tuple hashes its items' hashes, and
        # hash(h) == h for a grade's hash h, which is below 2**61 - 1
        object.__setattr__(self, "_hashes", hashes)
        object.__setattr__(self, "_hash", hash((key, hashes)))
        return self

    @classmethod
    def _read(cls, head: Hashable, key: Hashable, positions: Sequence[int],
              values: tuple[Grade, ...], hashes: tuple[int, ...]) -> Any:
        """The instance on `head` whose grade at k is values[positions[k]],
        hashed from hashes[positions[k]] and `key`, the head or its
        `Prehashed`; unchecked, and no grade is hashed."""
        item = object.__new__(cls)
        # the dataclass's two field names, in order
        first, second = cls.__match_args__  # type: ignore[attr-defined]
        object.__setattr__(item, first, head)
        object.__setattr__(item, second, tuple(map(values.__getitem__, positions)))
        return item._hashed(key, tuple(map(hashes.__getitem__, positions)))


class Prehashed:
    """A head hashed once, for building many `Aligned` items on it: it hashes
    as the head did, so a tuple holding it hashes as one holding the head.
    The hash value itself would not do, as an int of 2**61 - 1 or more
    hashes to its residue, and a tuple's hash often is one."""

    __slots__ = ("_hash",)

    def __init__(self, head: Hashable) -> None:
        self._hash = hash(head)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class FuzzySet(Aligned):
    """Total map from a universe to grades, stored in universe order."""

    universe: Universe
    grades: tuple[Grade, ...]

    def __post_init__(self) -> None:
        if len(self.grades) != len(self.universe):
            raise SchemaError("membership", "membership must be total on the universe")
        self._hashed(self.universe, tuple(map(hash, self.grades)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __call__(self, element: Hashable) -> Grade:
        return self.grades[self.universe.index(element)]


@dataclass(frozen=True)
class PointMap:
    """Function between two universes, stored aligned with the source order.
    `_positions` holds each image's position in the target."""

    source: Universe
    target: Universe
    images: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.source):
            raise SchemaError("map", "map must be total on the source universe")
        positions = tuple(map(self.target._index.get, self.images))  # type: ignore[attr-defined]
        if None in positions:
            y = self.images[positions.index(None)]
            raise SchemaError("map", f"image {y!r} is not in the target universe")
        object.__setattr__(self, "_positions", positions)

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
    return PointMap(f.source, g.target, tuple(map(g.images.__getitem__, f._positions)))  # type: ignore[attr-defined]


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
    for i, g in zip(f._positions, t.grades):  # type: ignore[attr-defined]
        if g > values[i]:
            values[i] = g
    return FuzzySet(f.target, tuple(values))


def preimage(f: PointMap, t: FuzzySet) -> FuzzySet:
    """Pullback along f: value at x is t(f(x)), read at f's image positions."""
    if t.universe != f.target:
        raise MixedUniverse("fuzzy set is not over the map's target")
    return FuzzySet._read(f.source, f.source, f._positions, t.grades, t._hashes)  # type: ignore[attr-defined]
