"""Graded fuzzy topological systems and their morphisms.

A system pairs a point set with a graded frame through grade-valued
satisfaction rows, one per point, aligned with the frame carrier. Read by
columns, the rows give each carrier element a its extent E_a, the fuzzy
subset x |-> sat(x, a) of the points. The three compatibility clauses say
that a |-> E_a is a graded frame map into the fuzzy subsets of the points
that does not expand the relation, and `check_system` decides them on the
extents, exactly at every size. Each extent is one int of level cuts over
the points (`ranks`: bit (r - 1) * m + x set iff sat(x, a) >= r, for m
points), ranked with the relation grades in the system's `GradeSet`
(`GradedSystem.extents`). For a system of a space the extents are the opens'
own cuts (`GradedSpace.ranked`), so no grade is ranked again. Then:

- Clause 1, min(sat(x, a), R(a, b)) <= sat(x, b) for all x, holds iff
  R(a, b) <= inclusion(E_a, E_b). Proof: min(u, r) <= v iff r <= u -> v
  (the Gödel arrow is the residual of min), and the inf over x of
  sat(x, a) -> sat(x, b) is the graded inclusion, read off the ints.
- Clause 2, sat(x, top) = 1 and sat(x, a meet b) = min(sat(x, a),
  sat(x, b)), holds iff E_top is full and E_(a meet b) = E_a & E_b, since
  the cuts of a pointwise min are the ANDs of the cuts and the coding is
  unique. Only the empty meet and pairs need checking once the meet is a
  verified semilattice: larger finite meets are folds of binary ones.
- Clause 3, sat(x, join S) = max over S of sat(x, a), holds iff the join
  stays in the carrier, E_bottom = 0 and, along the view's walk of its
  masks (`FrameView.walk`), the OR of the members' extents, one member at
  a time, is the extent of the join: OR is pointwise max. The masks are the empty
  set, singletons and pairs for a frame built in memory, which holds only
  those joins, and for a table frame that passes the lowest-member fold
  (c below is the lowest member of S + c), since then
  sat(x, join(S + c)) = sat(x, join{join S, c}) = max(sat(x, join S),
  sat(x, c)). Any other table frame is checked on every subset, and a
  violation that the pairs of a table frame show is named on every
  subset (`FrameView.decide`).

That is O(n^2 + masks) operations on ints per system. When a test fails,
the loops over every point and instance run, point by point, to name the
first failing instance, so verdicts and witnesses are those of the loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Mapping

from .checks import Violation
from .errors import MixedStructure, SchemaError
from .frames import (FrameHom, FrameView, GradedFrame, _show, check_frame_hom, compose_frame_hom,
                     same_frame)
from .fuzzy_sets import Aligned, PointMap, Universe, compose_point_maps
from .grades import Grade
from .ranks import GradeSet, inclusion


@dataclass(frozen=True)
class PointHom(Aligned):
    """A grade-valued homomorphism used as a point, as each point of a
    hom-system (`functors.s_object`) is: the values are aligned with the
    frame carrier it was enumerated over. Hashed from its values' hashes, as
    a fuzzy set is (`Aligned`)."""

    carrier: tuple[Hashable, ...]
    values: tuple[Grade, ...]

    def __post_init__(self) -> None:
        if len(self.carrier) != len(self.values):
            raise SchemaError("values", "must be total on the carrier")
        self._hashed(self.carrier, tuple(map(hash, self.values)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __call__(self, a: Hashable) -> Grade:
        return self.values[self.carrier.index(a)]

    def as_frame_hom(self, frame: GradedFrame, chain: GradedFrame) -> FrameHom:
        """The hom as a frame hom into `chain`. Into a `chain_frame`, whose
        carrier is its grades, a hom over the frame's carrier is read at its
        values' positions among them (`GradeSet.code` of the chain's view);
        any other pair, and a value outside the chain, goes through
        `FrameHom`'s checks."""
        grades = chain.carrier
        if grades is chain.view.grades and self.carrier == frame.carrier:
            image = chain.view.grade_set.code(self.values)
            if len(grades) not in image and tuple(map(grades.__getitem__, image)) == self.values:
                return FrameHom._read(frame, chain, image)
        return FrameHom(frame, chain, dict(zip(self.carrier, self.values)))


@dataclass(frozen=True, eq=False)
class GradedSystem:
    """Points, a graded frame, and one row of satisfaction grades per point,
    aligned with the frame carrier as `FuzzySet.grades` is with its universe.
    Its extent space is built by the first `functors.ext_object` call and
    kept as `_space` (None until then)."""

    points: Universe
    frame: GradedFrame
    rows: tuple[tuple[Grade, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.points) or any(len(row) != len(self.frame) for row in self.rows):
            raise SchemaError("rows", "must be one row per point, each total on the carrier")
        object.__setattr__(self, "_space", None)

    @classmethod
    def from_table(cls, points: Universe, frame: GradedFrame,
                   sat: Mapping[tuple[Hashable, Hashable], Grade]) -> GradedSystem:
        """The system of a table keyed by (point, carrier element), which
        must hold every pair."""
        try:
            return cls(points, frame, tuple(tuple(sat[(x, a)] for a in frame.carrier)
                                            for x in points.elements))
        except KeyError as exc:
            x, a = exc.args[0]
            raise SchemaError("sat", f"missing entry for ({_show(x)}, {_show(a)})") from None

    @cached_property
    def sat(self) -> Mapping[tuple[Hashable, Hashable], Grade]:
        """The grade of every (point, carrier element), read-only, decoded on first read."""
        items = self.frame.carrier
        return MappingProxyType({(x, a): g for x, row in zip(self.points.elements, self.rows)
                                 for a, g in zip(items, row)})

    @cached_property
    def extents(self) -> tuple[GradeSet, list[int]]:
        """The grade table of the frame's relation grades and every
        satisfaction grade, and the extent of each carrier element, its
        column of grades over the points, as one int of level cuts, in
        carrier order; built on first read (`j_object` stores its space's
        `ranked`, the same thing)."""
        ranks = GradeSet.of(itertools.chain(self.frame.view.grades, *self.rows))
        return ranks, ranks.cuts(itertools.chain(*zip(*self.rows)), len(self.points))

    @cached_property
    def hom_index(self) -> tuple[GradeSet, dict[tuple[int, ...], int]]:
        """A grade table of the values of the points that are `PointHom`s
        over the frame's carrier, the one searched if the hom search stored
        it (`functors._hom_system`), and a dict from each such point's rank
        row in it (`GradeSet.code`) to its position. Equal rank rows are
        equal values, so no two such points share one. The fm-s unit and S
        of a frame hom find their images here (`functors._find_homs`)."""
        carrier = self.frame.carrier
        homs = {k: p.values for k, p in enumerate(self.points.elements)
                if type(p) is PointHom and p.carrier == carrier}
        grades = GradeSet.of(itertools.chain(*homs.values()))
        ranks = grades.code(itertools.chain(*homs.values()))
        return grades, dict(zip(zip(*[iter(ranks)] * len(carrier)), homs))


def check_system(system: GradedSystem) -> Violation | None:
    """Verify the three system clauses on the extents (module docstring);
    returns the first violation, or None."""
    items, v = system.frame.carrier, system.frame.view
    n = len(items)
    xs = system.points.elements
    ranks, extents = system.extents
    # the relation grades are objects of the extents' table on a system of a
    # space (`j_object`), so each is found by identity
    lift = ranks.code(v.grades)
    rel = [[lift[r] for r in row] for row in v.rel]
    meet_idx, top, one = v.meet, v.top, ranks.top

    if not _columns_hold(extents, rel, meet_idx, top, len(xs), one):
        sat = list(map(ranks.code, system.rows))
        for x, row in zip(xs, sat):
            if row[top] != one:
                return Violation("system", "clause 2",
                                 f"satisfaction of the top at {_show(x)} is {ranks.grades[row[top]]}, not 1 (empty meet)")
            for i in range(n):
                for j in range(n):
                    if min(row[i], rel[i][j]) > row[j]:
                        return Violation("system", "clause 1",
                                         f"({_show(x)}, {_show(items[i])}, {_show(items[j])})")
                    if row[meet_idx[i][j]] != min(row[i], row[j]):
                        return Violation("system", "clause 2",
                                         f"({_show(x)}, {_show(items[i])}, {_show(items[j])})")

    def clause_3(view: FrameView) -> Violation | None:
        (masks, _, steps), joins = view.walk, view.joins
        if None in joins:
            return Violation("system", "clause 3",
                             f"join of mask {masks[joins.index(None)]:b} is outside the carrier")
        if _joins_hold(extents, joins, steps):
            return None
        for x, row in zip(xs, map(ranks.code, system.rows)):
            if row[joins[0]] != 0:
                return Violation("system", "clause 3", f"({_show(x)}, empty subset)")
            upper = [0] * len(masks)
            for p, (q, i) in enumerate(steps, 1):
                upper[p] = max(upper[q], row[i])
                if upper[p] != row[joins[p]]:
                    return Violation("system", "clause 3",
                                     f"({_show(x)}, subset mask {masks[p]:b})")
        return None

    return v.decide(clause_3)


def _columns_hold(extents: list[int], rel: list[list[int]], meet: list[list[int]], top: int,
                  size: int, one: int) -> bool:
    """Whether clauses 1 and 2 hold, on the extents over `size` points
    with relation ranks `rel` in the extents' table (module docstring)."""
    return extents[top] == (1 << size * one) - 1 and all(
        r <= inclusion(e, f, size, one) for e, row in zip(extents, rel) for f, r in zip(extents, row)
    ) and all([extents[k] for k in row] == [e & f for f in extents] for e, row in zip(extents, meet))


def _joins_hold(extents: list[int], joins: list[int], steps: list[tuple[int, int]]) -> bool:
    """Whether clause 3 holds on the masks of `steps`: the OR of the
    members' extents, built up one member at a time from the empty mask's
    0, is the extent of the join at every mask."""
    upper = [0]
    for q, i in steps:
        upper.append(upper[q] | extents[i])
    return upper == [extents[j] for j in joins]


def check_spatial(system: GradedSystem) -> tuple[bool, tuple[Hashable, Hashable] | None]:
    """A system is spatial when distinct carrier elements are distinguished
    by some point, that is, have distinct extents: distinct ints, as the
    coding is unique. Returns (True, None), or (False, (earlier, later))
    for the first element `later`, in carrier order, whose extent an
    earlier element has."""
    seen: dict[int, Hashable] = {}
    for a, extent in zip(system.frame.carrier, system.extents[1]):
        if extent in seen:
            return False, (seen[extent], a)
        seen[extent] = a
    return True, None


@dataclass(frozen=True, eq=False)
class SystemMorphism:
    """Point map forward, frame homomorphism backward."""

    source: GradedSystem
    target: GradedSystem
    point_map: PointMap
    frame_hom: FrameHom

    def __post_init__(self) -> None:
        # identity first: universes of homs compare their homs on ==
        source, target = self.point_map.source, self.point_map.target
        if not ((source is self.source.points or source == self.source.points)
                and (target is self.target.points or target == self.target.points)):
            raise MixedStructure("point map endpoints do not match the systems")
        if not (same_frame(self.frame_hom.source, self.target.frame)
                and same_frame(self.frame_hom.target, self.source.frame)):
            raise MixedStructure("frame hom endpoints do not match the systems")

    @classmethod
    def identity(cls, system: GradedSystem) -> "SystemMorphism":
        return cls(system, system, PointMap.identity(system.points),
                   FrameHom.identity(system.frame))


def check_system_morphism(m: SystemMorphism) -> Violation | None:
    """The frame component must be a graded frame homomorphism and the two
    satisfaction readings must agree at every (point, target element):
    each source row read at the images of the target elements must be the
    target row at the point's image. Those are compared as whole lists
    first, and the points are walked only to name the first disagreement."""
    bad = check_frame_hom(m.frame_hom)
    if bad is not None:
        return bad
    pulled = [tuple(map(row.__getitem__, m.frame_hom._image)) for row in m.source.rows]
    at_images = list(map(m.target.rows.__getitem__, m.point_map._positions))  # type: ignore[attr-defined]
    if pulled == at_images:
        return None
    for x, row, target_row in zip(m.source.points.elements, pulled, at_images):
        for b, g, h in zip(m.target.frame.carrier, row, target_row):
            if g != h:
                return Violation("system-morphism", "clause (iii)", f"({_show(x)}, {_show(b)})")


def compose_system_morphisms(f: SystemMorphism, g: SystemMorphism) -> SystemMorphism:
    """Apply f, then g: point maps compose forward, frame homs backward."""
    if f.target is not g.source and not (
        f.target.points == g.source.points
        and same_frame(f.target.frame, g.source.frame)
        and f.target.rows == g.source.rows
    ):
        raise MixedStructure("composition endpoints do not match")
    return SystemMorphism(
        f.source, g.target,
        compose_point_maps(f.point_map, g.point_map),
        compose_frame_hom(g.frame_hom, f.frame_hom),
    )


def system_iso_check(m: SystemMorphism) -> bool:
    """Componentwise isomorphism: both components bijective and the inverse
    pair is again a valid morphism."""
    if check_system_morphism(m) is not None:
        return False
    if not m.point_map.is_bijective() or not m.frame_hom.is_bijective():
        return False
    inverse = SystemMorphism(m.target, m.source, m.point_map.inverse(), m.frame_hom.inverse())
    return check_system_morphism(inverse) is None
