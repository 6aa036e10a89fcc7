"""Fuzzy topological spaces with graded inclusion and their continuous maps.

A space is a universe plus a finite family of opens (fuzzy sets) containing
the constant-0 and constant-1 sets and closed under pairwise unions and
intersections. Pairwise closure is all that needs checking: union is
associative, commutative and idempotent, so every nonempty sublist union is
reachable from pairs, and the empty union is the constant-0 set required
anyway.

`generate_topology` saturates on rank vectors: each grade is coded by its
position in the sorted grade set of the generators with 0 and 1
(`ranks.GradeSet`). Min and max only compare grades, and ranking is an
order-isomorphism fixing 0 and 1, so the closure of the rank vectors codes
the closure of the fuzzy sets. Each vector is one int of level cuts, a
bitmask over the points per rank r >= 1 side by side (`ranks`): union is
OR, intersection AND, and `frame_from_space` reads graded inclusion off
them. Closing (`close_cuts`, `close_generators`) and decoding
(`space_from_cuts`) are apart: `generators.generate_random_space` and
`generate_random_continuous_map` close each attempt as ints and decode only
the one they keep, and `functors.ext_object` decodes a system's extents.
The ints do not sort as the grades they code, so the canonical order is
taken on the decoded ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

from .checks import Violation
from .errors import MixedUniverse, NotContinuous, Overflow
from .fuzzy_sets import (
    FuzzySet,
    PointMap,
    Universe,
    compose_point_maps,
    empty_set,
    full_set,
    intersection,
    preimage,
    union,
)
from .ranks import GradeSet, ranks_of

DEFAULT_CLOSURE_CAP = 4096


def _show(element: Any) -> str:
    """A witness's name for an element: a fuzzy set as its map of grades, else its repr."""
    if isinstance(element, FuzzySet):
        return str({x: str(g) for x, g in zip(element.universe.elements, element.grades)})
    return repr(element)


@dataclass(frozen=True)
class GradedSpace:
    """Universe plus opens in canonical order (sorted by membership values).
    Its frame of opens and its system are built once, by the first
    `frame_from_space` and `functors.j_object` calls that succeed, and kept
    as `_frame` and `_system` (None until then)."""

    universe: Universe
    opens: tuple[FuzzySet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_value", {t: t for t in self.opens})
        object.__setattr__(self, "_frame", None)
        object.__setattr__(self, "_system", None)

    def __contains__(self, t: FuzzySet) -> bool:
        return t in self._by_value  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.opens)

    @cached_property
    def ranked(self) -> tuple[GradeSet, list[int]]:
        """The grade table of the opens' grades and the level cuts of each
        open, in the order of `opens`; built on first use."""
        grades = [g for t in self.opens for g in t.grades]
        ranks = GradeSet.of(grades)
        return ranks, ranks.cuts(grades, len(self.universe))


def canonical_opens(opens: Iterable[FuzzySet]) -> tuple[FuzzySet, ...]:
    """Deduplicate and sort opens lexicographically by membership values."""
    return tuple(sorted(set(opens), key=lambda t: t.grades))


def check_space(universe: Universe, candidates: Sequence[FuzzySet]) -> GradedSpace | Violation:
    """Validate the three topology clauses; returns the space (with opens in
    canonical order) or the first violation with a witness."""
    for t in candidates:
        if t.universe != universe:
            raise MixedUniverse("candidate open over a different universe")
    seen: dict[FuzzySet, FuzzySet] = {}
    for t in candidates:
        if t in seen:
            return Violation("space", "distinct opens", f"duplicate open {_show(t)}")
        seen[t] = t
    bottom, top = empty_set(universe), full_set(universe)
    if bottom not in seen:
        return Violation("space", "clause 1", "the constant-0 open is missing")
    if top not in seen:
        return Violation("space", "clause 1", "the constant-1 open is missing")
    items = list(seen)
    for i, a in enumerate(items):
        for b in items[i:]:
            if union([a, b]) not in seen:
                return Violation(
                    "space", "clause 2",
                    f"union of {_show(a)} and {_show(b)} is not an open")
            if intersection(a, b) not in seen:
                return Violation(
                    "space", "clause 3",
                    f"intersection of {_show(a)} and {_show(b)} is not an open")
    return GradedSpace(universe, canonical_opens(items))


def generate_topology(universe: Universe, generators: Sequence[FuzzySet],
                      max_opens: int = DEFAULT_CLOSURE_CAP) -> GradedSpace:
    """Smallest topology containing the generators: saturate under pairwise
    unions and intersections starting from {0-set, 1-set} ∪ generators.
    Closes the generators as level cuts (`close_generators`) and decodes the
    closure (`space_from_cuts`). Raises Overflow once the closure exceeds
    max_opens."""
    return space_from_cuts(universe, *close_generators(universe, generators, max_opens))


def close_generators(universe: Universe, generators: Sequence[FuzzySet],
                     max_opens: int = DEFAULT_CLOSURE_CAP) -> tuple[GradeSet, set[int]]:
    """The grade table of the generators' grades, and the level cuts of
    their closure in it (`close_cuts`). Each distinct grade object is
    hashed once, into the table, and ranked by identity (`GradeSet.code`).
    Raises Overflow once the closure exceeds max_opens."""
    for t in generators:
        if t.universe != universe:
            raise MixedUniverse("generator over a different universe")
    grades, size = [g for t in generators for g in t.grades], len(universe)
    ranks = GradeSet.of(grades)
    return ranks, close_cuts(set(ranks.cuts(grades, size)), size * ranks.top, max_opens)


def close_cuts(cuts: set[int], width: int, max_opens: int = DEFAULT_CLOSURE_CAP) -> set[int]:
    """The level cuts `cuts`, 0 and the top (`width` set bits) closed under
    | and &, in rounds that join and meet each new open with every open.
    Raises Overflow once the closure exceeds max_opens."""
    fresh = opens = cuts | {0, (1 << width) - 1}
    while fresh and len(opens) <= max_opens:
        fresh = {a | b for a in fresh for b in opens} | {a & b for a in fresh for b in opens}
        fresh -= opens
        opens |= fresh
    if len(opens) > max_opens:
        raise Overflow(f"topology closure exceeded {max_opens} opens")
    return opens


def space_from_cuts(universe: Universe, ranks: GradeSet, opens: set[int]) -> GradedSpace:
    """The space whose opens the level cuts `opens` code in `ranks`, sorted
    by the rank vectors they code; the space keeps the cuts as `ranked`."""
    levels = {row: ranks_of(row, len(universe)) for row in opens}
    rows = sorted(opens, key=levels.__getitem__)
    grades, hashes = ranks.grades, tuple(map(hash, ranks.grades))
    space = GradedSpace(universe, tuple(FuzzySet._read(universe, universe, levels[row], grades, hashes)
                                        for row in rows))
    # object.__setattr__ keeps the instance's inline attribute values, which
    # writing through vars(space) would turn into a dict slower to read
    object.__setattr__(space, "ranked", (ranks, rows))
    return space


def pull_opens(f: PointMap, source: GradedSpace,
               target: GradedSpace) -> dict[FuzzySet, FuzzySet] | Violation:
    """Each target open mapped to its preimage along f as the source's own
    open object, or, for the first target open whose preimage is not a
    source open, the continuity violation that names it."""
    if f.source != source.universe or f.target != target.universe:
        raise MixedUniverse("map endpoints do not match the given spaces")
    opens = source._by_value  # type: ignore[attr-defined]
    pulled = {}
    for t in target.opens:
        back = opens.get(preimage(f, t))
        if back is None:
            return Violation(
                "continuity", "preimage of an open",
                f"preimage of {_show(t)} is not an open of the source")
        pulled[t] = back
    return pulled


def check_continuous(f: PointMap, source: GradedSpace, target: GradedSpace) -> Violation | None:
    """Every preimage of a target open must be a source open."""
    pulled = pull_opens(f, source, target)
    return pulled if isinstance(pulled, Violation) else None


def compose_continuous(
    f: PointMap,
    g: PointMap,
    source: GradedSpace,
    middle: GradedSpace,
    target: GradedSpace,
) -> PointMap:
    """Composite of two continuous maps, each checked first; the composite
    needs no check, since preimages compose."""
    for m, s, t in ((f, source, middle), (g, middle, target)):
        bad = check_continuous(m, s, t)
        if bad is not None:
            raise NotContinuous(str(bad))
    return compose_point_maps(f, g)


def space_iso_check(f: PointMap, source: GradedSpace, target: GradedSpace) -> bool:
    """True iff f is a point bijection, continuous both ways, and preimage
    along f is a bijection between the open families."""
    if f.source != source.universe or f.target != target.universe:
        raise MixedUniverse("map endpoints do not match the given spaces")
    if len(source.universe) != len(target.universe) or not f.is_bijective():
        return False
    pulled = pull_opens(f, source, target)
    if isinstance(pulled, Violation) or check_continuous(f.inverse(), target, source) is not None:
        return False
    images = set(pulled.values())
    return len(images) == len(target.opens) and images == set(source.opens)
