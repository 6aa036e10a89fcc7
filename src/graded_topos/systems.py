"""Graded fuzzy topological systems and their morphisms.

A system pairs a point set with a graded frame through grade-valued
satisfaction rows, one per point, aligned with the frame carrier. The
three compatibility clauses are checked exactly at every size. Clause 2
only needs the empty set, singletons and pairs once the meet is a verified
semilattice, because larger finite meets are folds of binary ones. Clause 3 runs over the masks of the view the frame stores
(`FrameView.masks`). They are the empty set, singletons and pairs for a
frame built in memory, which holds only those joins, and for a table frame
that passes the lowest-member fold (c below is the lowest member of
S + c), since then sat(x, join(S + c)) = sat(x, join{join S, c})
= max(sat(x, join S), sat(x, c)). Any other table frame is checked on
every subset, and a violation that the pairs of a table frame show is
named on every subset (`FrameView.decide`). The clauses read the frame's
view, with satisfaction grades ranked in one table with the relation
grades (`ranks.Ranks`).

Clauses 1 and 2 are decided per point in O(n) operations on bitmasks plus
one pass over the meet table, and a point that fails runs the loop over
every pair to name the first failing instance. Code the relation rows and
the point's satisfaction row as ints of level cuts over the carrier
(`ranks`): P[i] has bit (r - 1) * n + j set iff R(i, j) >= r, and S bit
(r - 1) * n + j iff sat(x, j) >= r. Clause 1,
min(sat(x, i), R(i, j)) <= sat(x, j), says at each level r <= sat(x, i)
that the cut of row i lies within that of S: P[i] & ~S has no bit in
levels 1..sat(x, i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Mapping

from .checks import Violation, mask_steps
from .errors import MixedStructure, SchemaError
from .frames import (FrameHom, FrameView, GradedFrame, _show, check_frame_hom, compose_frame_hom,
                     same_frame)
from .fuzzy_sets import PointMap, Universe, compose_point_maps
from .grades import Grade
from .ranks import Ranks, cuts_of


@dataclass(frozen=True, eq=False)
class GradedSystem:
    """Points, a graded frame, and one row of satisfaction grades per point,
    aligned with the frame carrier as `FuzzySet.grades` is with its universe."""

    points: Universe
    frame: GradedFrame
    rows: tuple[tuple[Grade, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.points) or any(len(row) != len(self.frame) for row in self.rows):
            raise SchemaError("rows", "must be one row per point, each total on the carrier")

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


def check_system(system: GradedSystem) -> Violation | None:
    """Verify the three system clauses against the satisfaction rows;
    returns the first violation, or None."""
    items, v = system.frame.carrier, system.frame.view
    n = len(items)
    xs = system.points.elements
    ranks = Ranks(itertools.chain(v.grades, *system.rows))
    lift = ranks.code(v.grades)
    rel = [[lift[r] for r in row] for row in v.rel]
    sat = list(map(ranks.code, system.rows))
    meet_idx, top, one = v.meet, v.top, ranks.top
    rows = [cuts_of(row, one) for row in rel]
    levels = [(1 << r * n) - 1 for r in range(one + 1)]  # the bits of levels 1..r

    for x, row in zip(xs, sat):
        if row[top] != one:
            return Violation("system", "clause 2",
                             f"satisfaction of the top at {_show(x)} is {ranks.grades[row[top]]}, not 1 (empty meet)")
        if _pair_clauses_hold(row, one, rows, levels, meet_idx):
            continue
        for i in range(n):
            for j in range(n):
                if min(row[i], rel[i][j]) > row[j]:
                    return Violation("system", "clause 1",
                                     f"({_show(x)}, {_show(items[i])}, {_show(items[j])})")
                if row[meet_idx[i][j]] != min(row[i], row[j]):
                    return Violation("system", "clause 2",
                                     f"({_show(x)}, {_show(items[i])}, {_show(items[j])})")

    def clause_3(view: FrameView) -> Violation | None:
        masks, joins, steps = view.masks, view.joins, mask_steps(view.masks)
        if None in joins:
            return Violation("system", "clause 3",
                             f"join of mask {masks[joins.index(None)]:b} is outside the carrier")
        for x, row in zip(xs, sat):
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


def _pair_clauses_hold(row: list[int], one: int, rows: list[int], levels: list[int],
                       meet: list[list[int]]) -> bool:
    """Whether clauses 1 and 2 hold at a point with satisfaction ranks
    `row`: clause 1 on the packed relation `rows` (module docstring), and
    clause 2 as sat(x, i meet j) = min(sat(x, i), sat(x, j)), a row of
    the meet table at a time."""
    held = cuts_of(row, one)
    return not any(rows[i] & ~held & levels[r] for i, r in enumerate(row)) and all(
        list(map(row.__getitem__, meet[i])) == [s if s < r else r for s in row]
        for i, r in enumerate(row))


def check_spatial(system: GradedSystem) -> tuple[bool, tuple[Hashable, Hashable] | None]:
    """A system is spatial when distinct carrier elements are distinguished
    by some point. Returns (True, None) or (False, indistinguishable pair)."""
    columns: dict[tuple[Grade, ...], Hashable] = {}
    for a, col in zip(system.frame.carrier, zip(*system.rows)):
        if col in columns:
            return False, (columns[col], a)
        columns[col] = a
    return True, None


@dataclass(frozen=True, eq=False)
class SystemMorphism:
    """Point map forward, frame homomorphism backward."""

    source: GradedSystem
    target: GradedSystem
    point_map: PointMap
    frame_hom: FrameHom

    def __post_init__(self) -> None:
        if self.point_map.source != self.source.points or self.point_map.target != self.target.points:
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
    satisfaction readings must agree at every (point, target element)."""
    bad = check_frame_hom(m.frame_hom)
    if bad is not None:
        return bad
    image = [m.source.frame.view.index[m.frame_hom.map[b]] for b in m.target.frame.carrier]
    for x, row, fx in zip(m.source.points.elements, m.source.rows, m.point_map.images):
        for b, i, g in zip(m.target.frame.carrier, image, m.target.rows[m.target.points.index(fx)]):
            if row[i] != g:
                return Violation("system-morphism", "clause (iii)", f"({_show(x)}, {_show(b)})")
    return None


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
