"""The four functors between spaces, systems and frames, with executable
adjunction evidence.

Objects built here reuse the in-memory values of their inputs: the system a
space induces has the opens themselves as frame carrier, and the system a
frame induces has the enumerated grade-valued homomorphisms themselves as
points. That keeps every unit/counit/triangle/naturality equation a literal
equality of finite structures, checkable with ==.

Hom enumeration is finitized by an explicit GradeSet L (`ranks`, the one
grade table): points of the frame-induced system are the maps carrier ->
L passing the homomorphism axioms, so every S-side statement is relative
to L. The adjunction units only need L to contain the grades that
actually occur, so the triangle identities are exact. The maps are found
by a depth-first search over grade ranks, on the frame's integer view,
that checks each axiom instance as soon as its coordinates are fixed, so
its cost follows the partial homomorphisms that survive, not |L|^(n-2).

Each object functor builds its object once per input and keeps it on that
input: a space keeps its frame of opens (`frame_from_space`) and its
system (`j_object`), a system its extent space (`ext_object`), and a frame
its hom-system over the last grade set it was searched with, beside that
grade set and the number of partial maps the search tried (`s_object`).
So a frame is searched once per grade set however many law checks read
it, and a different grade set replaces the slot; a read past a lowered
HOM_SEARCH_CAP raises the Overflow the search would. The law checks call
the functors and share what they keep; every unit, counit and lifted
morphism still comes anew from its own builder, so no law holds by
construction.

The unit and the precomposition S(h) build no hom: each image is the target
system's own point, found by its values as ranks in the target's index
(`GradedSystem.hom_index`, keyed in L on a hom-system) and confirmed by
value, where the membership test of the hom the public constructor would
build finds it.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import chain
from operator import or_
from typing import Callable, Hashable

from .checks import LawReport, Violation
from .errors import GradeSetTooSmall, NoPoints, NotContinuous, Overflow, SchemaError
from .frames import FrameHom, GradedFrame, check_frame, check_frame_hom, compose_frame_hom, frame_from_space
from .fuzzy_sets import FuzzySet, PointMap, Prehashed, Universe, compose_point_maps
from .grades import Grade
from .ranks import GradeSet
from .spaces import GradedSpace, check_continuous, check_space, pull_opens, space_from_cuts
from .systems import (
    GradedSystem,
    PointHom,
    SystemMorphism,
    check_spatial,
    check_system,
    check_system_morphism,
    compose_system_morphisms,
    system_iso_check,
)

# The most partial maps one hom enumeration tries before it raises Overflow.
# The benchmark's ops (seeds 0-49) try at most 240, the passing tests 665.
HOM_SEARCH_CAP = 2 ** 14


def ext_column(system: GradedSystem, a: Hashable) -> FuzzySet:
    """The extent of a carrier element: its satisfaction column as a fuzzy
    subset of the points."""
    i = system.frame.view.index[a]
    return FuzzySet(system.points, tuple(row[i] for row in system.rows))


def _open_cuts(system: GradedSystem) -> tuple[GradeSet, list[int]]:
    """The table of the grades the extents take, with 0 and 1, and each
    extent's level cuts in it: a rank of the extents' table that no extent
    takes cuts every extent as the rank above does, so its level goes."""
    ranks, extents = system.extents
    size = len(system.points)
    full = (1 << size) - 1
    # level r of e & ~(e >> size) holds the points where e takes rank r itself
    exact = reduce(or_, (e & ~(e >> size) for e in extents), 0)
    kept = [r for r in range(1, ranks.top) if exact >> (r - 1) * size & full] + [ranks.top]
    if len(kept) < ranks.top:
        extents = [sum((e >> (r - 1) * size & full) << k * size for k, r in enumerate(kept)) for e in extents]
        ranks = GradeSet.of(map(ranks.grades.__getitem__, [0] + kept))
    return ranks, extents


def ext_object(system: GradedSystem) -> GradedSpace:
    """Space of extents: one open per distinct satisfaction column, built
    once per system and kept on it (`GradedSystem._space`). Each distinct
    extent int is decoded once (`space_from_cuts`), in the rank table of the
    grades the extents take, which the space keeps as its `ranked`."""
    if system._space is None:  # type: ignore[attr-defined]
        ranks, cuts = _open_cuts(system)
        object.__setattr__(system, "_space", space_from_cuts(system.points, ranks, set(cuts)))
    return system._space  # type: ignore[attr-defined]


def ext_morphism(m: SystemMorphism) -> PointMap:
    """A system morphism's point component, continuous between the extent
    spaces."""
    return m.point_map


def j_object(space: GradedSpace) -> GradedSystem:
    """The system a space carries: membership read as satisfaction over the
    frame of opens, built once per space and kept on it (`GradedSpace._system`)."""
    if space._system is not None:  # type: ignore[attr-defined]
        return space._system  # type: ignore[attr-defined]
    frame = frame_from_space(space)
    system = GradedSystem(space.universe, frame, tuple(zip(*(t.grades for t in space.opens))))
    # the extent of an open is the open, and every relation grade, a graded
    # inclusion of two opens, is a grade of an open or 1: the same table.
    # object.__setattr__ keeps the instance's inline attribute values, which
    # writing through vars(system) would turn into a dict slower to read
    object.__setattr__(system, "extents", space.ranked)
    object.__setattr__(space, "_system", system)
    return system


def j_morphism(f: PointMap, source: GradedSpace, target: GradedSpace) -> SystemMorphism:
    """Pair a continuous map with its preimage homomorphism, between the one
    system each space keeps (`j_object`); the morphism is built anew."""
    source_sys, target_sys = j_object(source), j_object(target)
    pulled = pull_opens(f, source, target)
    if isinstance(pulled, Violation):
        raise NotContinuous(str(pulled))
    return SystemMorphism(source_sys, target_sys, f, FrameHom(target_sys.frame, source_sys.frame, pulled))


def fm_object(system: GradedSystem) -> GradedFrame:
    """The frame a system carries."""
    return system.frame


def fm_morphism(m: SystemMorphism) -> FrameHom:
    """A system morphism's frame component (a morphism of frames in the
    opposite direction)."""
    return m.frame_hom


def enumerate_point_homs(frame: GradedFrame, values: GradeSet) -> list[PointHom]:
    """All maps carrier -> values satisfying the homomorphism axioms into
    the grade chain, in canonical (value-lexicographic) order, as a new
    list. Raises Overflow once the search has tried more than
    HOM_SEARCH_CAP partial maps, whether or not they extend to homs.

    The frame keeps the grade set, the number of partial maps tried and the
    hom-system of the last search that finished, or None if it found no hom
    (`GradedFrame._homs`), so a call with the kept grade set, or an equal
    one, searches nothing. It raises Overflow if that number is above
    HOM_SEARCH_CAP as it stands now, as the search would. A search that
    overflows keeps nothing, and one over another grade set replaces the
    slot.
    """
    kept = frame._homs
    if kept is None or (kept[0] is not values and kept[0] != values):
        tries, found = _search_point_homs(frame, values)
        system = _hom_system(frame, values, found) if found else None
        kept = (values, tries, system)
        object.__setattr__(frame, "_homs", kept)
    elif kept[1] > HOM_SEARCH_CAP:
        raise _overflow()
    return [] if kept[2] is None else list(kept[2].points.elements)


def _overflow() -> Overflow:
    return Overflow(f"hom enumeration tried more than {HOM_SEARCH_CAP} partial maps")


def _hom_system(frame: GradedFrame, values: GradeSet, found: list[tuple[int, ...]]) -> GradedSystem:
    """The system of the homs whose values have the ranks `found` in
    `values`: each is read from the grades by position (`Aligned._read`),
    with the carrier hashed once for all of them (`Prehashed`), and `values`
    with the ranks are stored as the system's `hom_index`, which they are."""
    key, hashes = Prehashed(frame.carrier), tuple(map(hash, values.grades))
    homs = tuple(PointHom._read(frame.carrier, key, r, values.grades, hashes) for r in found)
    system = GradedSystem(Universe(homs), frame, tuple(p.values for p in homs))
    object.__setattr__(system, "hom_index", (values, dict(zip(found, range(len(found))))))
    return system


def _search_point_homs(frame: GradedFrame, values: GradeSet) -> tuple[int, list[tuple[int, ...]]]:
    """The search of `enumerate_point_homs`: the number of partial maps it
    tried and the homs it found, as their values' ranks in `values`, in
    order.

    The axioms are the ones a test of every map would check: meet and
    relation preservation at every pair, and join preservation at every mask
    of `frame.view.walk`, which decides every subset as in
    `check_frame_hom` (the chain's join is max, which folds). The top must
    land on 1 and the empty join on 0, so those two coordinates are pinned;
    the others get grade ranks in a depth-first search, in order of how many
    elements lie crisply below them (on a valid frame, a linear extension of
    its order).

    Each axiom instance becomes rank constraints, and each constraint is
    checked at the first depth where every coordinate it mentions is
    assigned, so one failure discards every map extending the partial one.
    A meet or join equality splits into upper bounds, kept with the
    relation's pairwise constraints, and an attained half:
    rank(a meet b) >= min(rank a, rank b) and max(rank over S) >= rank(join S).
    The latter is needed only for masks that do not contain their join and
    have no such sub-mask with the same join. The result is exactly that of
    testing every map on every subset, valid frame or not, and the cost
    tracks the partial maps that survive instead of |values|^(n-2).
    """
    view = frame.view
    n, count = len(frame.carrier), len(values)
    top, bottom = view.top, view.bottom
    if top == bottom:  # the top would need value 1 and the empty join value 0
        return 0, ()
    crisp_below = [column.count(len(view.grades) - 1) for column in zip(*view.rel)]
    order = [top, bottom] + sorted((i for i in range(n) if i != top and i != bottom),
                                   key=crisp_below.__getitem__)
    depth = [0] * n
    for d, i in enumerate(order[2:], 1):
        depth[i] = d

    # bound[(i, j)] = b is violated when rank[i] > rank[j] < b. Relation
    # preservation fails exactly when v_i > v_j and rel(i, j) > v_j, and
    # rel(i, j) > grades[r] exactly when r < the number of grades below
    # rel(i, j); b = count, the number of grades, makes it rank[i] <= rank[j].
    above = values.code(view.grades)
    bound = {(i, j): above[view.rel[i][j]] for i in range(n) for j in range(n) if i != j}

    def at_most(i: int, j: int) -> None:
        if i != j:
            bound[(i, j)] = count

    attained = set()
    for i in range(n):
        for j in range(n):
            m = view.meet[i][j]
            at_most(m, i)
            at_most(m, j)
            if m != i and m != j:
                attained.add((m, min(i, j), max(i, j)))
    meets, joins = [[] for _ in order[1:]], [[] for _ in order[1:]]
    for m, i, j in attained:
        meets[max(depth[i], depth[j], depth[m])].append((m, i, j))
    minimal: dict[int, list[int]] = {}
    # smaller masks first, so every sub-mask is seen before its supersets
    for mask, j in sorted(zip(view.walk.masks, view.joins), key=lambda pair: pair[0].bit_count()):
        members = [i for i in range(n) if mask >> i & 1]
        for k in members:
            at_most(k, j)
        kept = minimal.setdefault(j, [])
        if not mask >> j & 1 and all(sub & mask != sub for sub in kept):
            kept.append(mask)
            joins[max([depth[j]] + [depth[i] for i in members])].append((j, members))
    rels = [[] for _ in order[1:]]
    for (i, j), b in bound.items():
        if b:
            rels[max(depth[i], depth[j])].append((i, j, b))

    rank = [0] * n
    rank[top] = values.top
    found = []
    tries = 0

    def holds(d: int) -> bool:
        for i, j, b in rels[d]:
            if rank[i] > rank[j] < b:
                return False
        for m, i, j in meets[d]:
            if rank[m] < min(rank[i], rank[j]):
                return False
        for j, members in joins[d]:
            if max(map(rank.__getitem__, members), default=0) < rank[j]:
                return False
        return True

    def search(d: int) -> None:
        nonlocal tries
        if d == len(rels):
            found.append(tuple(rank))
            return
        tries += count
        if tries > HOM_SEARCH_CAP:
            raise _overflow()
        c = order[d + 1]
        for r in range(count):
            rank[c] = r
            if holds(d):
                search(d + 1)

    if holds(0):
        search(1)
    found.sort()  # rank order is value order
    return tries, found


def s_object(frame: GradedFrame, values: GradeSet) -> GradedSystem:
    """The system of grade-valued homomorphisms of a frame, relative to the
    grade set: points are the enumerated homs, satisfaction is application.
    It is the system `enumerate_point_homs` keeps in the frame's slot, so a
    frame has one hom-system per grade set.

    Raises NoPoints when the enumeration is empty (a system needs points).
    """
    if not enumerate_point_homs(frame, values):
        raise NoPoints(f"no homomorphisms into grades {[str(g) for g in values.grades]}")
    return frame._homs[2]


def s_morphism(h: FrameHom, source: GradedSystem, target: GradedSystem) -> SystemMorphism:
    """Precomposition with a frame homomorphism, from `source`, the hom-system
    of its target, to `target`, that of its source (over one grade set).
    Each hom's values are read at the hom's image positions (`_image`), and
    its image is the target's point of those values (`_find_homs`); no hom
    is built."""
    if source.frame.carrier != h.target.carrier or target.frame.carrier != h.source.carrier:
        raise SchemaError("hom systems", "must be over the hom's target and source frames")
    rows = [tuple(map(p.values.__getitem__, h._image)) for p in source.points.elements]
    found = _find_homs(target, rows)
    if None in found:
        raise NoPoints("precomposition left the enumerated hom set")
    return SystemMorphism(source, target, PointMap._read(source.points, target.points, found), h)


def counit(system: GradedSystem) -> SystemMorphism:
    """From the system of the extent space back to the system: identity on
    points, extent on the frame. Each carrier element goes to the open at
    the position of its extent's int among the extent space's cuts
    (`_open_cuts`), so no extent is built as a fuzzy set."""
    space = ext_object(system)
    source = j_object(space)
    position = {row: i for i, row in enumerate(space.ranked[1])}
    hom = FrameHom._read(system.frame, source.frame, map(position.__getitem__, _open_cuts(system)[1]))
    return SystemMorphism(source, system, PointMap.identity(system.points), hom)


def unit_space(space: GradedSpace) -> PointMap:
    """The identity point map from a space to the extent space of its
    induced system (an isomorphism of spaces)."""
    return PointMap.identity(space.universe)


def point_evaluation(system: GradedSystem, x: Hashable) -> PointHom:
    """The satisfaction row of a point, as a grade-valued hom: the point
    itself when it already is that hom, as each point of a hom-system is."""
    carrier, row = system.frame.carrier, system.rows[system.points.index(x)]
    if isinstance(x, PointHom) and x.carrier == carrier and x.values == row:
        return x
    return PointHom(carrier, row)


def _find_homs(target: GradedSystem, rows: list[tuple[Grade, ...]]) -> list[int | None]:
    """The position among the target's points of the hom over its carrier
    with each row as values, or None where no point is that hom: what the
    membership test of `PointHom(carrier, row)` finds, with no hom built.
    Each row is ranked by object in the table of `target.hom_index`
    (`GradeSet.code`), and the point of that rank row is kept if its values
    equal the row, a tuple == that short-cuts on identity: a grade outside
    the table takes the rank of a neighbour, so only the values can confirm
    it."""
    grades, index = target.hom_index
    keys = zip(*[iter(grades.code(chain(*rows)))] * len(target.frame))
    points = target.points.elements
    return [k if k is not None and points[k].values == row else None for k, row in zip(map(index.get, keys), rows)]


def unit_rows(system: GradedSystem) -> tuple[tuple[Grade, ...], ...]:
    """The row each point of a system goes to under the fm-s unit, in point
    order: its own satisfaction row."""
    return system.rows


def unit_system(system: GradedSystem, hom_system: GradedSystem) -> SystemMorphism:
    """From a system to `hom_system`, the hom-system of its frame: each point
    goes to its satisfaction row (`unit_rows`), read as the point of
    `hom_system` with those values (`_find_homs`), or to itself when it
    already is that hom; the frame component is the identity. No hom is
    built.

    Raises GradeSetTooSmall when a satisfaction grade is taken by no hom of
    `hom_system`, as any grade outside its grade set is."""
    carrier = system.frame.carrier
    if hom_system.frame.carrier != carrier:
        raise SchemaError("hom system", "must be over the system's frame")
    rows = unit_rows(system)
    found = _find_homs(hom_system, rows)
    if None in found:
        # every grade of an enumerated hom is in the pool, so the pool is
        # read only here, over every row, before the row is blamed
        pool = set(chain(*hom_system.rows))
        for g in chain(*system.rows):
            if g not in pool:
                raise GradeSetTooSmall(f"satisfaction grade {g} is not in the grade set")
        raise NoPoints("a satisfaction row is not an enumerated hom")
    # a point that already is its row's hom is its own image; such a point
    # hashes as its image does, so the kept hashes part most others from it
    # with no carrier compared
    homs = map(hom_system.points.elements.__getitem__, found)
    images = tuple(x if x is p or (isinstance(x, PointHom) and x._hash == p._hash  # type: ignore[attr-defined]
                                   and x.values == row and x.carrier == carrier) else p
                   for x, row, p in zip(system.points.elements, rows, homs))
    pm = PointMap._read(system.points, hom_system.points, found, images)
    return SystemMorphism(system, hom_system, pm, FrameHom.identity(system.frame))


# ---------------------------------------------------------------------------
# law checks: triangle identities, naturality, equivalence

def is_identity_point_map(pm: PointMap) -> bool:
    return pm.source == pm.target and pm.images == pm.source.elements


def is_identity_frame_hom(h: FrameHom) -> bool:
    return h.source.carrier == h.target.carrier and h._image == tuple(range(len(h.source)))


def is_identity_system_morphism(m: SystemMorphism) -> bool:
    return is_identity_point_map(m.point_map) and is_identity_frame_hom(m.frame_hom)


def point_maps_equal(f: PointMap, g: PointMap) -> bool:
    return f.source == g.source and f.images == g.images


def frame_homs_equal(f: FrameHom, g: FrameHom) -> bool:
    return (f.source.carrier == g.source.carrier
            and f.target.carrier == g.target.carrier and f._image == g._image)


def system_morphisms_equal(f: SystemMorphism, g: SystemMorphism) -> bool:
    return point_maps_equal(f.point_map, g.point_map) and frame_homs_equal(f.frame_hom, g.frame_hom)


def violation_of(structure: object) -> Violation | None:
    """The first violation that a structure's own checker finds, or None: a
    space, a frame, a system (its frame first), a frame hom, a system
    morphism, or a (map, source, target) triple of spaces."""
    if isinstance(structure, GradedSpace):
        checked = check_space(structure.universe, list(structure.opens))
        return checked if isinstance(checked, Violation) else None
    if isinstance(structure, GradedSystem):
        return check_frame(structure.frame) or check_system(structure)
    if isinstance(structure, tuple):
        return check_continuous(*structure)
    if isinstance(structure, GradedFrame):
        return check_frame(structure)
    return (check_frame_hom if isinstance(structure, FrameHom) else check_system_morphism)(structure)


def _law(name: str, holds: Callable[[], bool], instance: object) -> LawReport:
    """A law's report. A builder's refusal of a structure the law built fails
    the law, but is raised when the instance fails its own checker."""
    try:
        return LawReport(name, holds())
    except (NotContinuous, NoPoints) as refusal:
        if violation_of(instance) is not None:
            raise
        return LawReport(name, False, str(refusal))


def check_triangle_identities(
    adjunction: str,
    instance: GradedSpace | GradedSystem | GradedFrame,
    values: GradeSet | None = None,
) -> tuple[LawReport, ...]:
    """Both triangle identities of the named adjunction ("j-ext", "fm-s" or
    "composite") at the instance, each a `_law`; a unit both use is built
    once, when the first asks. The counit at a frame is its identity."""
    if adjunction == "j-ext":
        if isinstance(instance, GradedSpace):
            space, system = instance, j_object(instance)
        elif isinstance(instance, GradedSystem):
            space, system = ext_object(instance), instance
        else:
            raise SchemaError("instance", "j-ext triangles need a space or a system")
        laws = {"j-ext triangle at the space (counit after lifted unit)": partial(_j_ext_on_space, space),
                "j-ext triangle at the system (projected counit after unit)": partial(_j_ext_on_system, system)}
    elif adjunction == "fm-s":
        if isinstance(instance, GradedFrame):
            values = values or GradeSet.for_frame(instance)
            system = hom_system = s_object(instance, values)
        elif isinstance(instance, GradedSystem):
            system, values = instance, values or GradeSet.for_system(instance)
            hom_system = s_object(fm_object(system), values)
        else:
            raise SchemaError("instance", "fm-s triangles need a frame or a system")
        unit = cache(partial(unit_system, system, hom_system))
        frame_unit = unit if system is hom_system else partial(unit_system, hom_system, hom_system)
        laws = {"fm-s triangle at the system (projected unit after counit)": lambda: is_identity_frame_hom(
                    compose_frame_hom(FrameHom.identity(fm_object(system)), fm_morphism(unit()))),
                "fm-s triangle at the frame (lifted counit after unit)": lambda: is_identity_system_morphism(
                    compose_system_morphisms(frame_unit(), s_morphism(FrameHom.identity(hom_system.frame),
                                                                      hom_system, hom_system)))}
    elif adjunction == "composite":
        if isinstance(instance, GradedSpace):
            system = j_object(instance)
            frame, values = system.frame, values or GradeSet.for_system(system)
        elif isinstance(instance, GradedFrame):
            frame, values = instance, values or GradeSet.for_frame(instance)
        else:
            raise SchemaError("instance", "composite triangles need a space or a frame")
        hom_system = s_object(frame, values)
        frame_counit = counit(hom_system)
        extent_homs = s_object(frame_counit.source.frame, values)
        extent_unit = cache(partial(unit_system, frame_counit.source, extent_homs))
        if isinstance(instance, GradedSpace):
            laws = _composite_triangles(instance, partial(unit_system, system, hom_system), frame_counit,
                                        extent_unit, frame_counit)
        else:
            laws = _composite_triangles(ext_object(hom_system), extent_unit, counit(extent_homs),
                                        extent_unit, frame_counit)
    else:
        raise SchemaError("adjunction", f"unknown adjunction {adjunction!r}")
    return tuple(_law(name, holds, instance) for name, holds in laws.items())


def _j_ext_on_space(space: GradedSpace) -> bool:
    system = j_object(space)
    extent = ext_object(system)
    lifted_unit = j_morphism(unit_space(space), space, extent)
    return is_identity_system_morphism(compose_system_morphisms(lifted_unit, counit(system)))


def _j_ext_on_system(system: GradedSystem) -> bool:
    extent = ext_object(system)
    composite = compose_point_maps(unit_space(extent), ext_morphism(counit(system)))
    return is_identity_point_map(composite) and ext_object(j_object(extent)).opens == extent.opens


def _composite_triangles(space: GradedSpace, space_unit: Callable[[], SystemMorphism], space_counit: SystemMorphism,
                         extent_unit: Callable[[], SystemMorphism], frame_counit: SystemMorphism) -> dict:
    """The composite triangles at a space X and a frame F, from the fm-s unit
    at j(X), the j-ext counit at S(O X), the j-ext counit at S(F) and the
    fm-s unit at that counit's source, j of F's extent space, each unit as
    its builder. The unit is lifted by `j_morphism` to the systems the
    spaces keep, which are the fm-s unit's source and the j-ext counit's
    source."""
    def at_space() -> bool:
        unit = compose_point_maps(unit_space(space), ext_morphism(space_unit()))
        lifted_unit = j_morphism(unit, space, ext_object(space_counit.target))
        return is_identity_frame_hom(compose_frame_hom(space_counit.frame_hom, lifted_unit.frame_hom))

    def at_frame() -> bool:
        unit = compose_point_maps(unit_space(ext_object(frame_counit.target)), ext_morphism(extent_unit()))
        lifted_counit = s_morphism(frame_counit.frame_hom, extent_unit().target, frame_counit.target)
        return is_identity_point_map(compose_point_maps(unit, ext_morphism(lifted_counit)))

    return {"composite triangle at the space": at_space, "composite triangle at the frame": at_frame}


def check_naturality(
    adjunction: str,
    morphism: SystemMorphism | tuple[PointMap, GradedSpace, GradedSpace] | FrameHom,
    values: GradeSet | None = None,
) -> tuple[LawReport, ...]:
    """The unit or counit naturality square of the named adjunction, a `_law`,
    at a morphism of the category it lives in: a (map, source, target)
    triple of spaces, a system morphism, or a frame homomorphism."""
    if adjunction == "j-ext":
        if isinstance(morphism, tuple):
            f, source, target = morphism
            name, holds = "j-ext unit square", lambda: point_maps_equal(
                compose_point_maps(f, unit_space(target)),
                compose_point_maps(unit_space(source), ext_morphism(j_morphism(f, source, target))))
        elif isinstance(morphism, SystemMorphism):
            source, target = ext_object(morphism.source), ext_object(morphism.target)
            name, holds = "j-ext counit square", lambda: system_morphisms_equal(
                compose_system_morphisms(j_morphism(ext_morphism(morphism), source, target), counit(morphism.target)),
                compose_system_morphisms(counit(morphism.source), morphism))
        else:
            raise SchemaError("morphism", "j-ext naturality needs a space map or a system morphism")
    elif adjunction == "fm-s":
        if isinstance(morphism, SystemMorphism):
            h = fm_morphism(morphism)
            values = values or GradeSet.closure(chain(*morphism.source.rows, *morphism.target.rows))
        elif isinstance(morphism, FrameHom):
            h = morphism
            values = values or GradeSet.closure(set(h.source.view.grades) | set(h.target.view.grades))
        else:
            raise SchemaError("morphism", "fm-s naturality needs a system morphism or a frame hom")
        source_homs, target_homs = s_object(h.target, values), s_object(h.source, values)
        if h is morphism:
            name, holds = "fm-s counit square", lambda: frame_homs_equal(
                fm_morphism(s_morphism(h, source_homs, target_homs)), h)
        else:
            name, holds = "fm-s unit square", lambda: system_morphisms_equal(
                compose_system_morphisms(morphism, unit_system(morphism.target, target_homs)),
                compose_system_morphisms(unit_system(morphism.source, source_homs),
                                         s_morphism(h, source_homs, target_homs)))
    else:
        raise SchemaError("adjunction", f"unknown adjunction {adjunction!r}")
    return (_law(name, holds, morphism),)


def check_spatial_equivalence(system: GradedSystem) -> bool:
    """The instance-level equivalence: the counit is an isomorphism exactly
    when the system is spatial."""
    spatial, _ = check_spatial(system)
    return spatial == system_iso_check(counit(system))
