"""Shared strategies and independent brute-force oracles.

The oracles re-state the definitions as literally as possible (full subset
enumerations, direct recursion) so the optimized library paths are checked
against something that cannot share their shortcuts.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, reduce
from operator import or_

from hypothesis import strategies as st

from graded_topos.checks import LawReport, Violation, mask_elements
from graded_topos.errors import (CaptureViolation, GradeSetTooSmall, MixedUniverse, NoPoints, Overflow, SchemaError,
                                 UndeclaredSymbol)
from graded_topos.frames import GradedFrame
from graded_topos.functors import PointHom
from graded_topos.fuzzy_sets import (
    FuzzySet,
    Universe,
    empty_set,
    full_set,
    graded_inclusion,
    intersection,
    union,
)
from graded_topos.generators import derived_rng
from graded_topos.grades import Grade, ONE, ZERO, godel_arrow, sup
from graded_topos.logic import semantics
from graded_topos.logic.semantics import Assignment, Interpretation, _shallow, _Vectors
from graded_topos.logic.syntax import (
    And,
    Bottom,
    Const,
    Equality,
    Exists,
    Formula,
    Func,
    Or,
    Predicate,
    TOP,
    Term,
    Top,
    Var,
    format_formula,
    free_variables,
    term_variables,
)
from graded_topos.spaces import GradedSpace, _show, canonical_opens, generate_topology


@contextmanager
def counted_fraction_hashes():
    """Count the calls of Fraction.__hash__ until exit, then restore it."""
    original = Fraction.__hash__
    calls = [0]

    def counted(self):
        calls[0] += 1
        return original(self)

    Fraction.__hash__ = counted
    try:
        yield calls
    finally:
        Fraction.__hash__ = original
    assert Fraction.__hash__ is original


def small_grades(max_denominator: int = 4):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)


def universes(max_points: int = 4, prefix: str = "x"):
    return st.integers(min_value=1, max_value=max_points).map(
        lambda n: Universe(tuple(f"{prefix}{i + 1}" for i in range(n))))


@st.composite
def fuzzy_sets_over(draw, universe: Universe, max_denominator: int = 4):
    return FuzzySet(universe, tuple(
        draw(small_grades(max_denominator)) for _ in universe.elements))


@st.composite
def fuzzy_set_families(draw, count: int, max_points: int = 4):
    universe = draw(universes(max_points))
    return [draw(fuzzy_sets_over(universe)) for _ in range(count)]


def crisp_chain(n: int) -> GradedFrame:
    """The crisp n-element chain c00 < c01 < ... as a frame from tables."""
    carrier = tuple(f"c{i:02d}" for i in range(n))
    subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    return GradedFrame.from_tables(
        carrier, carrier[-1],
        {(a, b): min(a, b) for a in carrier for b in carrier},
        {frozenset(carrier[i] for i in s): carrier[max(s, default=0)] for s in subsets},
        {(a, b): ONE if a <= b else ZERO for a in carrier for b in carrier})


def space_with_opens(count: int) -> GradedSpace:
    """The first three-point space over grades {0, 1/2, 1}, generated by two
    or three fuzzy sets in lexicographic order, with exactly `count` opens."""
    u = Universe(("x1", "x2", "x3"))
    grades = (ZERO, Fraction(1, 2), ONE)
    sets = [FuzzySet(u, (a, b, c)) for a in grades for b in grades for c in grades]
    for size in (2, 3):
        for generators in itertools.combinations(sets, size):
            space = generate_topology(u, list(generators))
            if len(space) == count:
                return space
    raise AssertionError(f"no space with {count} opens")


# Opens, as grade rows over x1, x2, ..., that each lack one thing a frame of
# opens needs, and the refusal that names it: `frame_from_space` refuses the
# first three, and writing the frame of the last (`frame_to_json`) refuses it.
UNCLOSED = {
    "top": ([("0", "0"), ("1/2", "0")],
            "top: {'x1': '1', 'x2': '1'} is not in the carrier"),
    "intersection": ([("0", "0", "0"), ("1", "1", "0"), ("0", "1", "1"), ("1", "1", "1")],
                     "meet: value at ({'x1': '0', 'x2': '1', 'x3': '1'}, "
                     "{'x1': '1', 'x2': '1', 'x3': '0'}) is outside the carrier"),
    "empty open": ([("1/2", "0"), ("1", "1")],
                   "join: join of the empty set is outside the carrier"),
    "union": ([("0", "0", "0"), ("1", "0", "0"), ("0", "1", "0"), ("1", "1", "1")],
              "join: the join of a pair is outside the carrier"),
}


def unclosed_space(lacking: str) -> GradedSpace:
    rows = UNCLOSED[lacking][0]
    u = Universe(tuple(f"x{i + 1}" for i in range(len(rows[0]))))
    return GradedSpace(u, canonical_opens(FuzzySet(u, tuple(map(Fraction, row))) for row in rows))


# --- oracles -----------------------------------------------------------------

def brute_inclusion(a: FuzzySet, b: FuzzySet) -> Fraction:
    return min((godel_arrow(a(x), b(x)) for x in a.universe.elements), default=ONE)


# The two grade-table closures that one `GradeSet` replaced: the checked one
# over a set of values, and the unchecked rank table that dedupes objects
# before it hashes them, with its coding by position and by level cuts.

def value_set_closure(values) -> tuple:
    """The sorted grades of `values` with 0 and 1, as `GradeSet.closure`
    built them: a set of every value, checked to start at 0 and end at 1
    (SchemaError otherwise)."""
    grades = tuple(sorted(set(values) | {ZERO, ONE}))
    if tuple(sorted(set(grades))) != grades:
        raise SchemaError("grades", "must be sorted and duplicate-free")
    if not grades or grades[0] != ZERO or grades[-1] != ONE:
        raise SchemaError("grades", "must contain 0 and 1")
    return grades


def object_rank_table(values) -> tuple[tuple, int]:
    """The sorted grades of `values` with 0 and 1, and the top rank, as the
    rank table of the kernels built them, unchecked: each distinct object
    is hashed once."""
    grades = tuple(sorted({ZERO, ONE}.union({id(g): g for g in values}.values())))
    return grades, len(grades) - 1


def position_ranks(grades, values) -> list[int]:
    """The number of `grades` below each value: its rank when `grades`
    hold it."""
    return [sum(g < v for g in grades) for v in values]


# The tuple rank kernel the level-cut coding replaced: a vector is a tuple
# of ranks, and `exists` reads it through index tables.

def tuple_meet(u, v) -> tuple[int, ...]:
    """Pointwise min."""
    return tuple(map(min, u, v))


def tuple_join(*vectors) -> tuple[int, ...]:
    """Pointwise max of one or more vectors."""
    return tuple(map(max, *vectors)) if len(vectors) > 1 else tuple(vectors[0])


def tuple_inclusion(u, v, top: int) -> int:
    """The least v[i] where u[i] > v[i], else the top."""
    return min([b for a, b in zip(u, v) if a > b], default=top)


def tuple_exists(u, stride: int, n: int) -> tuple[int, ...]:
    """The max of u over each fibre of the base-n coordinate of `stride`
    (positions differing only there), at every position of the fibre."""
    block = stride * n
    fibres = [range(base, base + block, stride)
              for start in range(0, len(u), block)
              for base in range(start, start + stride)]
    owner = [i // block * stride + i % stride for i in range(len(u))]
    sups = [max(u[j] for j in fibre) for fibre in fibres]
    return tuple(sups[f] for f in owner)


def level_cuts(vector, top: int) -> int:
    """The level cuts 1..top of a rank vector side by side in one int, bit
    by bit: position i of level r at bit (r - 1) * len(vector) + i."""
    digits = ["1" if r >= level else "0" for level in range(top, 0, -1) for r in reversed(vector)]
    return int("".join(digits) or "0", 2)


def brute_space_closed(space) -> bool:
    """Clauses 1-3 by literal enumeration of every sublist union."""
    opens = set(space.opens)
    if not any(all(g == ZERO for g in t.grades) for t in opens):
        return False
    if not any(all(g == ONE for g in t.grades) for t in opens):
        return False
    items = list(space.opens)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            if union(list(combo), space.universe) not in opens:
                return False
    for a in items:
        for b in items:
            if intersection(a, b) not in opens:
                return False
    return True


def brute_generate_topology(universe: Universe, generators, max_opens: int = 4096) -> GradedSpace:
    """The closure saturated on the fuzzy sets themselves, on `Fraction`
    grades, with the library's rounds and overflow points."""
    for t in generators:
        if t.universe != universe:
            raise MixedUniverse("generator over a different universe")
    opens = {empty_set(universe), full_set(universe)}
    opens.update(generators)
    frontier = list(opens)
    while frontier:
        if len(opens) > max_opens:
            raise Overflow(f"topology closure exceeded {max_opens} opens")
        fresh = []
        current = list(opens)
        for a in frontier:
            for b in current:
                for c in (union([a, b]), intersection(a, b)):
                    if c not in opens:
                        opens.add(c)
                        fresh.append(c)
        frontier = fresh
    if len(opens) > max_opens:
        raise Overflow(f"topology closure exceeded {max_opens} opens")
    return GradedSpace(universe, canonical_opens(opens))


def brute_generate_random_space(cfg, index: int = 0, max_opens: int = 16,
                                min_opens: int = 2) -> GradedSpace:
    """The retry loop on fuzzy sets: every attempt draws its generators'
    grades from the pool and is closed and decoded by `generate_topology`,
    with the rng calls of `generate_random_space`."""
    rng = derived_rng(cfg, 1, index)
    universe = Universe(tuple(f"x{i + 1}" for i in range(rng.randint(1, cfg.max_points))))
    for attempt in range(24):
        lo = 0 if attempt >= 12 else min(1, cfg.max_generators)
        count = rng.randint(lo, max(lo, cfg.max_generators - attempt // 4))
        generators = [FuzzySet(universe, tuple(rng.choice(cfg.grade_pool.grades) for _ in universe.elements))
                      for _ in range(count)]
        space = generate_topology(universe, generators)
        if min_opens <= len(space) <= max_opens:
            return space
    return generate_topology(universe, [])


def brute_frame_from_space(space: GradedSpace) -> GradedFrame:
    """The frame of opens from `Fraction` intersection, union and graded
    inclusion of every pair; `GradedFrame.from_join_fn` builds its view from
    these tables, reading the union on the empty set, the singletons and
    the pairs."""
    opens = space.opens
    meet_table = {}
    relation = {}
    for a in opens:
        for b in opens:
            meet_table[(a, b)] = intersection(a, b)
            relation[(a, b)] = graded_inclusion(a, b)

    def join_fn(subset: frozenset) -> FuzzySet:
        return union(sorted(subset, key=lambda t: t.grades), space.universe)

    return GradedFrame.from_join_fn(opens, full_set(space.universe), meet_table, join_fn, relation)


def brute_join_table(space: GradedSpace) -> dict[str, str]:
    """The "join" object of the file of a space's frame, by the definition:
    the union of every subset of opens, keyed by its members' names e0, e1,
    ... (in the order of the opens) in sorted order."""
    names = {t: f"e{i}" for i, t in enumerate(space.opens)}
    return {",".join(sorted(names[t] for t in combo)): names[union(list(combo), space.universe)]
            for k in range(len(names) + 1) for combo in itertools.combinations(space.opens, k)}


def scan_join_keys(frame) -> dict[str, str]:
    """The "join" object of a frame file built as `frame_to_json` once built
    it: the join of each subset mask from `join_at`, keyed by scanning all
    n labels in name order, n steps per subset."""
    items = frame.carrier
    labels = (list(items) if all(isinstance(a, str) for a in items)
              else [f"e{i}" for i in range(len(items))])
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return {",".join([labels[i] for i in order if mask >> i & 1]): labels[frame.join_at(mask)]
            for mask in range(1 << len(labels))}


def brute_frame_violation(frame) -> str | None:
    """The nine axioms, restated directly over every subset (small frames only)."""
    items = list(frame.carrier)
    rel = frame.relation
    meet = frame.meet_table
    for a in items:
        if rel[(a, a)] != ONE:
            return "axiom 1"
        if rel[(a, frame.top)] != ONE:
            return "axiom 5"
    for a in items:
        for b in items:
            if a != b and rel[(a, b)] == ONE and rel[(b, a)] == ONE:
                return "axiom 2"
            if rel[(meet[(a, b)], a)] != ONE or rel[(meet[(a, b)], b)] != ONE:
                return "axiom 4"
            for c in items:
                if min(rel[(a, b)], rel[(b, c)]) > rel[(a, c)]:
                    return "axiom 3"
                if min(rel[(a, b)], rel[(a, c)]) != rel[(a, meet[(b, c)])]:
                    return "axiom 6"
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            joined = frame.join_fn(frozenset(combo))
            for a in combo:
                if rel[(a, joined)] != ONE:
                    return "axiom 7"
            for b in items:
                lower = min((rel[(a, b)] for a in combo), default=ONE)
                if lower != rel[(joined, b)]:
                    return "axiom 8"
            for a in items:
                distributed = frame.join_fn(frozenset(meet[(a, b)] for b in combo))
                if rel[(meet[(a, joined)], distributed)] != ONE:
                    return "axiom 9"
    return None


def brute_system_violation(system) -> str | None:
    """The three system clauses over every finite/arbitrary subset."""
    frame = system.frame
    items = list(frame.carrier)
    for x in system.points.elements:
        for a in items:
            for b in items:
                if min(system.sat[(x, a)], frame.relation[(a, b)]) > system.sat[(x, b)]:
                    return "clause 1"
                if system.sat[(x, frame.meet_table[(a, b)])] != min(system.sat[(x, a)], system.sat[(x, b)]):
                    return "clause 2"
        for k in range(len(items) + 1):
            for combo in itertools.combinations(items, k):
                folded = frame.top
                for a in combo:
                    folded = frame.meet_table[(folded, a)]
                expected = min((system.sat[(x, a)] for a in combo), default=ONE)
                if system.sat[(x, folded)] != expected:
                    return "clause 2"
                joined = frame.join_fn(frozenset(combo))
                expected = max((system.sat[(x, a)] for a in combo), default=ZERO)
                if system.sat[(x, joined)] != expected:
                    return "clause 3"
    return None


def brute_frame_hom_ok(hom) -> bool:
    """Homomorphism clauses with full subset enumeration plus top preservation."""
    src, tgt, f = hom.source, hom.target, hom.map
    if f[src.top] != tgt.top:
        return False
    for a in src.carrier:
        for b in src.carrier:
            if f[src.meet_table[(a, b)]] != tgt.meet_table[(f[a], f[b])]:
                return False
            if src.relation[(a, b)] > tgt.relation[(f[a], f[b])]:
                return False
    for k in range(len(src.carrier) + 1):
        for combo in itertools.combinations(src.carrier, k):
            if f[src.join_fn(frozenset(combo))] != tgt.join_fn(frozenset(f[a] for a in combo)):
                return False
    return True


# The subset loops of the three checkers as they stood before one mask walk
# replaced them: `checks.mask_steps`, the member loop of axiom 7 and the bit
# loop of join preservation, with every other loop of each checker, run
# whether or not a bitmask test fails. The checkers run a loop only to name
# what their test found, so each must return the `Violation` these return.

def mask_steps(masks: list[int]) -> list[tuple[int, int]]:
    """For each non-empty mask of an ascending list that also holds every
    mask minus its lowest member (so masks[0] is the empty mask): the
    position of that smaller mask and the index of the member. A subset
    aggregate then builds up one member at a time, indexed by position."""
    position = {mask: p for p, mask in enumerate(masks)}
    return [(position[mask & (mask - 1)], (mask & -mask).bit_length() - 1) for mask in masks[1:]]


def oracle_pair_masks(n: int) -> list[int]:
    """The empty set, the singletons and the pairs of n elements, ascending."""
    return sorted({0} | {1 << i | 1 << j for i in range(n) for j in range(i, n)})


def loop_decide(view, check):
    """`check(masks, joins)` as `FrameView.decide` ran it: over every subset
    for a view holding 2^n joins, else over the pairs; a violation on the
    pairs of a table frame is named again over every subset."""
    n = len(view.index)
    every = list(range(1 << n))
    bad = check(every if len(view.joins) == 1 << n else oracle_pair_masks(n), view.joins)
    if bad is None or view.table is None or len(view.joins) == len(view.table):
        return bad
    return check(every, view.table)


def loop_frame_violation(frame) -> Violation | None:
    """`check_frame` by its loops alone, in its order."""
    items, v = frame.carrier, frame.view
    n, one = len(items), len(v.grades) - 1
    meet, rel = v.meet, v.rel
    for i in range(n):
        if meet[i][i] != i:
            return Violation("frame", "meet-semilattice", f"meet({_show(items[i])}, same) is not idempotent")
        for j in range(n):
            if meet[i][j] != meet[j][i]:
                return Violation("frame", "meet-semilattice",
                                 f"meet not commutative at ({_show(items[i])}, {_show(items[j])})")
            for k in range(n):
                if meet[meet[i][j]][k] != meet[i][meet[j][k]]:
                    return Violation("frame", "meet-semilattice", f"meet not associative at "
                                     f"({_show(items[i])}, {_show(items[j])}, {_show(items[k])})")
    for i in range(n):
        if rel[i][i] != one:
            return Violation("frame", "axiom 1", f"relation({_show(items[i])}, same) != 1")
        if rel[i][v.top] != one:
            return Violation("frame", "axiom 5", f"relation({_show(items[i])}, top) != 1")
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] == one and rel[j][i] == one:
                return Violation("frame", "axiom 2",
                                 f"{_show(items[i])} and {_show(items[j])} are distinct but related by 1 both ways")
            m = meet[i][j]
            if rel[m][i] != one or rel[m][j] != one:
                return Violation("frame", "axiom 4",
                                 f"meet of ({_show(items[i])}, {_show(items[j])}) is not below both")
            for k in range(n):
                if min(rel[i][j], rel[j][k]) > rel[i][k]:
                    return Violation("frame", "axiom 3", f"transitivity fails at "
                                     f"({_show(items[i])}, {_show(items[j])}, {_show(items[k])})")
                if min(rel[i][j], rel[i][k]) != rel[i][meet[j][k]]:
                    return Violation("frame", "axiom 6", f"meet distribution fails at "
                                     f"({_show(items[i])}, {_show(items[j])}, {_show(items[k])})")

    def subsets(masks, joins):
        steps = mask_steps(masks)
        if None in joins:
            return Violation("frame", "join closure",
                             f"join of mask {masks[joins.index(None)]:b} is outside the carrier")
        for mask, jm in zip(masks, joins):
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if rel[low.bit_length() - 1][jm] != one:
                    return Violation("frame", "axiom 7",
                                     f"{_show(items[low.bit_length() - 1])} is not below the join of its subset")
        for b in range(n):
            if rel[joins[0]][b] != one:
                return Violation("frame", "axiom 8", f"target {_show(items[b])}, empty subset (bottom not below it)")
            col = [r[b] for r in rel]
            lower = [one] * len(masks)
            for p, (q, i) in enumerate(steps, 1):
                lower[p] = min(lower[q], col[i])
                if lower[p] != rel[joins[p]][b]:
                    return Violation("frame", "axiom 8", f"target {_show(items[b])}, subset mask {masks[p]:b}")
        position = {mask: p for p, mask in enumerate(masks)}
        for a in range(n):
            row = meet[a]
            img = [0] * len(masks)
            for p, (q, i) in enumerate(steps, 1):
                img[p] = img[q] | (1 << row[i])
            for p, jm in enumerate(joins):
                if rel[row[jm]][joins[position[img[p]]]] != one:
                    return Violation("frame", "axiom 9", f"{_show(items[a])}, subset mask {masks[p]:b}")
        return None

    return loop_decide(v, subsets)


def loop_system_violation(system) -> Violation | None:
    """`check_system` by its loops alone, in its order, on the grades
    themselves."""
    items, v = system.frame.carrier, system.frame.view
    n, xs = len(items), system.points.elements
    rel = [[v.grades[r] for r in row] for row in v.rel]
    for x, row in zip(xs, system.rows):
        if row[v.top] != ONE:
            return Violation("system", "clause 2",
                             f"satisfaction of the top at {_show(x)} is {row[v.top]}, not 1 (empty meet)")
        for i in range(n):
            for j in range(n):
                if min(row[i], rel[i][j]) > row[j]:
                    return Violation("system", "clause 1", f"({_show(x)}, {_show(items[i])}, {_show(items[j])})")
                if row[v.meet[i][j]] != min(row[i], row[j]):
                    return Violation("system", "clause 2", f"({_show(x)}, {_show(items[i])}, {_show(items[j])})")

    def clause_3(masks, joins):
        if None in joins:
            return Violation("system", "clause 3", f"join of mask {masks[joins.index(None)]:b} is outside the carrier")
        steps = mask_steps(masks)
        for x, row in zip(xs, system.rows):
            if row[joins[0]] != ZERO:
                return Violation("system", "clause 3", f"({_show(x)}, empty subset)")
            upper = [ZERO] * len(masks)
            for p, (q, i) in enumerate(steps, 1):
                upper[p] = max(upper[q], row[i])
                if upper[p] != row[joins[p]]:
                    return Violation("system", "clause 3", f"({_show(x)}, subset mask {masks[p]:b})")
        return None

    return loop_decide(v, clause_3)


def loop_frame_hom_violation(h) -> Violation | None:
    """`check_frame_hom` by its loops alone, in its order, on the grades
    themselves; each subset's image set is built by a loop over its bits."""
    src, tgt, image = h.source, h.target, h._image
    sv, tv = src.view, tgt.view
    if image[sv.top] != tv.top:
        return Violation("frame-hom", "top preservation", f"top maps to {_show(h.map[src.top])}")
    for i, a in enumerate(src.carrier):
        for j, b in enumerate(src.carrier):
            if image[sv.meet[i][j]] != tv.meet[image[i]][image[j]]:
                return Violation("frame-hom", "clause (i)", f"meet of ({_show(a)}, {_show(b)}) is not preserved")
            if tv.grades[tv.rel[image[i]][image[j]]] < sv.grades[sv.rel[i][j]]:
                return Violation("frame-hom", "clause (iii)", f"relation shrinks at ({_show(a)}, {_show(b)})")

    def preserved(masks, joins):
        for mask, joined in zip(masks, joins):
            if joined is None:
                return Violation("frame-hom", "join closure",
                                 f"join of subset mask {mask:b} is outside the source carrier")
            moved, rest = 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                moved |= 1 << image[low.bit_length() - 1]
            if image[joined] != tgt.join_at(moved):
                return Violation("frame-hom", "clause (ii)", f"join of subset mask {mask:b} is not preserved")
        return None

    table = tv.table
    if table is None or all([table[m | 1 << d] for m in range(len(table))] == [table[1 << j | 1 << d] for j in table]
                            for d in range(len(tgt))):
        return loop_decide(sv, preserved)
    every = range(1 << len(src))
    return preserved(every, [src.join_at(mask) for mask in every])


def brute_is_bijective(hom) -> bool:
    """`FrameHom.is_bijective` read off the map's values."""
    values = set(hom.map.values())
    return len(values) == len(hom.map) and len(hom.map) == len(hom.target.carrier)


def brute_is_identity_frame_hom(hom) -> bool:
    """`is_identity_frame_hom`, element by element."""
    return hom.source.carrier == hom.target.carrier and all(hom.map[a] == a for a in hom.source.carrier)


def brute_frame_homs_equal(f, g) -> bool:
    """`frame_homs_equal`, element by element."""
    return (f.source.carrier == g.source.carrier and f.target.carrier == g.target.carrier
            and all(f.map[a] == g.map[a] for a in f.source.carrier))


def brute_point_homs(frame, values) -> list[PointHom]:
    """Every map carrier -> values, tested one by one against the hom axioms
    (the product over the free coordinates), in canonical order."""
    items = frame.carrier
    n = len(items)
    idx = {a: i for i, a in enumerate(items)}
    meet_idx = [[idx[frame.meet_table[(a, b)]] for b in items] for a in items]
    rel = [[frame.relation[(a, b)] for b in items] for a in items]
    joins = {mask: idx[frame.join_fn(frozenset(mask_elements(mask, items)))]
             for mask in range(1 << n)}
    top, bottom = idx[frame.top], idx[frame.bottom]
    if top == bottom:  # the top would need value 1 and the empty join value 0
        return []
    free = [i for i in range(n) if i != top and i != bottom]
    found = []
    for combo in itertools.product(values.grades, repeat=len(free)):
        v: list[Grade] = [ZERO] * n
        v[top], v[bottom] = ONE, ZERO
        for i, g in zip(free, combo):
            v[i] = g
        ok = True
        for i in range(n):
            vi = v[i]
            for j in range(n):
                vj = v[j]
                if v[meet_idx[i][j]] != (vi if vi <= vj else vj):
                    ok = False
                    break
                if vi > vj and rel[i][j] > vj:  # arrow(vi, vj) = vj here
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for mask, jm in joins.items():
                best = ZERO
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    g = v[low.bit_length() - 1]
                    if g > best:
                        best = g
                if v[jm] != best:
                    ok = False
                    break
        if ok:
            found.append(PointHom(items, tuple(v)))
    found.sort(key=lambda p: p.values)
    return found


def brute_unit_images(system, hom_system):
    """The images of the fm-s unit at `system`, into `hom_system`: each point
    goes to the hom the public constructor builds from its row, or to itself
    when it already is that hom, and must be a member of the hom-system's
    points. Returns the images, or the refusal the unit raises."""
    carrier = system.frame.carrier
    images = []
    for x, row in zip(system.points.elements, system.rows):
        p = x if isinstance(x, PointHom) and x.carrier == carrier and x.values == row else PointHom(carrier, row)
        if p not in hom_system.points:
            pool = set(itertools.chain(*hom_system.rows))
            for g in itertools.chain(*system.rows):
                if g not in pool:
                    return GradeSetTooSmall(f"satisfaction grade {g} is not in the grade set")
            return NoPoints("a satisfaction row is not an enumerated hom")
        images.append(p)
    return tuple(images)


def brute_precomposition_images(h, source, target):
    """The images of S(h) from `source` to `target`: each hom precomposed
    with h's decoded map, built by the public constructor, must be a member
    of the target's points. Returns the images, or the refusal S raises."""
    images = []
    for p in source.points.elements:
        value = dict(zip(h.target.carrier, p.values))
        composed = PointHom(h.source.carrier, tuple(value[h.map[a]] for a in h.source.carrier))
        if composed not in target.points:
            return NoPoints("precomposition left the enumerated hom set")
        images.append(composed)
    return tuple(images)


def brute_eval_term(interp: Interpretation, assignment: Assignment, t: Term) -> str:
    if isinstance(t, Const):
        try:
            return interp.constants[t.index]
        except KeyError:
            raise UndeclaredSymbol(f"c{t.index}") from None
    if isinstance(t, Var):
        return assignment.get(t.index)
    if isinstance(t, Func):
        try:
            table = interp.functions[t.symbol]
        except KeyError:
            raise UndeclaredSymbol(t.symbol) from None
        return table[tuple(brute_eval_term(interp, assignment, a) for a in t.args)]
    raise TypeError(f"not a term: {t!r}")


def brute_sat_grade(interp: Interpretation, assignment: Assignment, phi: Formula) -> Grade:
    """The satisfaction grade by direct recursion over the formula at one
    assignment; stack exhaustion is a SchemaError, as in the library."""
    try:
        return _brute_sat(interp, assignment, phi)
    except RecursionError:
        raise SchemaError("formula", "the formula is nested too deeply") from None


def _brute_sat(interp: Interpretation, assignment: Assignment, phi: Formula) -> Grade:
    if isinstance(phi, Top):
        return ONE
    if isinstance(phi, Bottom):
        return ZERO
    if isinstance(phi, Predicate):
        try:
            table = interp.predicates[phi.symbol]
        except KeyError:
            raise UndeclaredSymbol(phi.symbol) from None
        return table[tuple(brute_eval_term(interp, assignment, t) for t in phi.args)]
    if isinstance(phi, Equality):
        lhs = brute_eval_term(interp, assignment, phi.lhs)
        rhs = brute_eval_term(interp, assignment, phi.rhs)
        return ONE if lhs == rhs else ZERO
    if isinstance(phi, And):
        a = _brute_sat(interp, assignment, phi.lhs)
        b = _brute_sat(interp, assignment, phi.rhs)
        return a if a <= b else b
    if isinstance(phi, Or):
        return sup(_brute_sat(interp, assignment, f) for f in phi.items)
    if isinstance(phi, Exists):
        return sup(_brute_sat(interp, assignment.updated(phi.variable, d), phi.body)
                   for d in interp.domain)
    raise TypeError(f"not a formula: {phi!r}")


def brute_steps(vs, phi: Formula) -> int:
    """The steps compiling `phi` over the list of `vs` takes, in full: each
    node has |domain|^k entries of `vs.words` steps, k the list's length
    plus the binders above the node whose variable is not in the list."""
    steps = 0
    todo = [(phi, frozenset(vs.variables))]
    while todo:
        node, scope = todo.pop()
        steps += vs.n ** len(scope) * vs.words
        if isinstance(node, Exists) and node.variable not in scope:
            scope = scope | {node.variable}
        todo.extend((part, scope) for part in node.parts())
    return steps


def brute_substitute(phi: Formula, pairs) -> Formula:
    """Simultaneous substitution by direct recursion, building every node
    afresh and keeping pairs x := x: the library's `substitute` must give
    an equal formula and raise CaptureViolation at the same binder."""
    return _brute_substitute(phi, dict(pairs))


def _brute_term(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.index, t)
    if isinstance(t, Func):
        return Func(t.symbol, tuple(_brute_term(a, mapping) for a in t.args))
    return t


def _brute_substitute(phi: Formula, mapping: dict) -> Formula:
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, Predicate):
        return Predicate(phi.symbol, tuple(_brute_term(t, mapping) for t in phi.args))
    if isinstance(phi, Equality):
        return Equality(_brute_term(phi.lhs, mapping), _brute_term(phi.rhs, mapping))
    if isinstance(phi, And):
        return And(_brute_substitute(phi.lhs, mapping), _brute_substitute(phi.rhs, mapping))
    if isinstance(phi, Or):
        return Or(tuple(_brute_substitute(f, mapping) for f in phi.items))
    inner = {x: t for x, t in mapping.items() if x != phi.variable}
    for x, t in inner.items():
        if x in free_variables(phi.body) and phi.variable in term_variables(t):
            raise CaptureViolation(phi.variable)
    return Exists(phi.variable, _brute_substitute(phi.body, inner))


def brute_assignments(interp: Interpretation, variables) -> list[Assignment]:
    """All assignments to the given variables (a single empty one if none)."""
    variables = sorted(variables)
    return [Assignment(dict(zip(variables, combo)))
            for combo in itertools.product(interp.domain, repeat=len(variables))]


def brute_sequent_grade(interp: Interpretation, lhs: Formula, rhs: Formula) -> Grade:
    """The inf over every assignment to both sides' free variables of the
    arrow between their satisfaction grades, each by direct recursion."""
    try:
        relevant = free_variables(lhs) | free_variables(rhs)
        result = ONE
        for s in brute_assignments(interp, relevant):
            a = _brute_sat(interp, s, lhs)
            b = _brute_sat(interp, s, rhs)
            if a > b and b < result:
                result = b
                if result == ZERO:
                    break
        return result
    except RecursionError:
        raise SchemaError("formula", "the formula is nested too deeply") from None


def loop_theorem2_suite(interp: Interpretation, pool) -> tuple[LawReport, ...]:
    """The Theorem 2 suite as nine clause loops over the compiled vectors,
    each sequent grade a call of the graded inclusion: the reference the
    package's suite is checked against. The kernels are looked up at call
    time (`semantics.inclusion`, `semantics.substitute`, `_Vectors.exists`),
    so a test that patches one reaches both suites."""
    if not pool:
        raise SchemaError("pool", "needs at least one formula")
    pool = list(pool)
    free = [_shallow(free_variables, f) for f in pool]
    pool_vars = sorted(frozenset().union(*free))
    fresh = (max(pool_vars, default=0)) + 1
    vs = _Vectors(interp, pool_vars + [fresh])
    size, top = vs.size, vs.ranks.top

    def sequent(u: int, v: int) -> int:
        return semantics.inclusion(u, v, size, top)

    vector = {i: vs.of(f) for i, f in enumerate(pool)}

    def join(ks) -> int:
        return reduce(or_, map(vector.__getitem__, ks))

    seq = {(i, j): sequent(vector[i], vector[j])
           for i in range(len(pool)) for j in range(len(pool))}

    reports = []

    def clause(name: str, failures: list[str]) -> None:
        reports.append(LawReport(name, not failures, "; ".join(failures[:3])))

    fails: list[str] = []
    for i, f in enumerate(pool):
        if seq[(i, i)] != top:
            fails.append(format_formula(f))
    clause("Thm2.1 identity", fails)

    fails = []
    for i in range(len(pool)):
        for j in range(len(pool)):
            for k in range(len(pool)):
                if min(seq[(i, j)], seq[(j, k)]) > seq[(i, k)]:
                    fails.append(f"({i},{j},{k})")
    clause("Thm2.2 transitivity", fails)

    fails = []
    top_vec = vs.of(TOP)
    for i, f in enumerate(pool):
        if sequent(vector[i], top_vec) != top:
            fails.append(f"3(i) {format_formula(f)}")
    for i in range(len(pool)):
        for j in range(len(pool)):
            both = vector[i] & vector[j]
            if sequent(both, vector[i]) != top:
                fails.append(f"3(ii) ({i},{j})")
            if sequent(both, vector[j]) != top:
                fails.append(f"3(iii) ({i},{j})")
            for k in range(len(pool)):
                lhs = min(seq[(i, j)], seq[(i, k)])
                rhs = sequent(vector[i], vector[j] & vector[k])
                if lhs != rhs:
                    fails.append(f"3(iv) ({i},{j},{k})")
    clause("Thm2.3 conjunction", fails)

    subsets = [combo
               for size in range(1, min(semantics.MAX_SUBSET, len(pool)) + 1)
               for combo in itertools.combinations(range(len(pool)), size)]
    fails = []
    for combo in subsets:
        joined = join(combo)
        for i in combo:
            if sequent(vector[i], joined) != top:
                fails.append(f"4(i) {combo} member {i}")
        for j in range(len(pool)):
            if min(seq[(i, j)] for i in combo) > sequent(joined, vector[j]):
                fails.append(f"4(ii) {combo} to {j}")
    clause("Thm2.4 disjunction", fails)

    fails = []
    for i in range(len(pool)):
        for combo in subsets:
            lhs = vector[i] & join(combo)
            rhs = reduce(or_, (vector[i] & vector[j] for j in combo))
            if sequent(lhs, rhs) != top:
                fails.append(f"5 ({i}, {combo})")
    clause("Thm2.5 frame distributivity", fails)

    fails = []
    for x in (pool_vars or [fresh]):
        if sequent(top_vec, vs.of(Equality(Var(x), Var(x)))) != top:
            fails.append(f"x{x}")
    clause("Thm2.6 reflexivity of equality", fails)

    fails = []
    for i, f in enumerate(pool):
        xs = sorted(free[i])[:2]
        if not xs:
            continue
        targets = [[fresh] * len(xs)]
        if len(xs) == 2:
            targets.append([xs[1], xs[0]])
        for ys in targets:
            try:
                replaced = _shallow(semantics.substitute, f, [(x, Var(y)) for x, y in zip(xs, ys)])
            except CaptureViolation:
                continue
            eq = None
            for x, y in zip(xs, ys):
                pair = vs.of(Equality(Var(x), Var(y)))
                eq = pair if eq is None else eq & pair
            antecedent = eq & vector[i]
            if sequent(antecedent, vs.of(replaced)) != top:
                fails.append(f"7 ({i} with {ys})")
    clause("Thm2.7 substitution of equals", fails)

    # clauses 8 and 9 read these for many (i, j); each is computed once
    @cache
    def instance(k: int, y: int, x: int) -> int | None:
        """The vector of pool[k] with x for y, or None when the capture check rejects it."""
        try:
            return vs.of(_shallow(semantics.substitute, pool[k], [(y, Var(x))]))
        except CaptureViolation:
            return None

    @cache
    def exists_of(k: int, y: int) -> int:
        return vs.exists(vector[k], y)

    fails = []
    for i in range(len(pool)):
        for j in range(len(pool)):
            ys = sorted(free[j]) or [fresh]
            for y in ys:
                # the sequents with the existential side do not depend on x
                into = sequent(vector[i], exists_of(j, y))
                out_of = sequent(exists_of(i, y), vector[j])
                for x in pool_vars[:2] or [fresh]:
                    if instance(j, y, x) is None:
                        continue
                    if sequent(vector[i], instance(j, y, x)) > into:
                        fails.append(f"8(i) ({i},{j},x{y}:=x{x})")
                    # second half: from an existential premise to the instance
                    if instance(i, y, x) is None:
                        continue
                    if out_of > sequent(instance(i, y, x), vector[j]):
                        fails.append(f"8(ii) ({i},{j},x{y}:=x{x})")
    clause("Thm2.8 existential bounds", fails)

    fails = []
    for i in range(len(pool)):
        for j in range(len(pool)):
            candidates = sorted((free[j] | {fresh}) - free[i])
            for y in candidates:
                lhs = vector[i] & exists_of(j, y)
                rhs = vs.exists(vector[i] & vector[j], y)
                if sequent(lhs, rhs) != top:
                    fails.append(f"9 ({i},{j},x{y})")
    clause("Thm2.9 quantifier distributivity", fails)

    return tuple(reports)
