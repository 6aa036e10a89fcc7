"""The mask walks, and the subset checks against the loops they replaced.

A frame's view holds one walk of its masks (`FrameView.walk`): the pairs,
built once per carrier size, or every subset, built for that view alone.
Each must be what `conftest.mask_steps` builds from its masks.

`check_frame` (join closure, axioms 7-9), `check_system` (clause 3) and
`check_frame_hom` (join preservation) decide on ints over a frame's masks
and run a loop only to name a violation. Here each checker must return the
`Violation` (check, clause and witness) of `conftest`'s copies of its
loops, which build every subset aggregate by `mask_steps`, walk each
mask's members one bit at a time and run whether or not a test fails: on
valid frames of generated spaces, on planted pair joins (axiom 7, join
closure), on join tables that fail the lowest-member fold, on systems with
one satisfaction grade changed, and on maps whose source table or target
table does not fold.
"""

import collections
import gc
import itertools
import random
import types
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (crisp_chain, loop_frame_hom_violation, loop_frame_violation, loop_system_violation, mask_steps,
                      oracle_pair_masks)
from graded_topos import frames
from graded_topos.frames import FrameHom, GradedFrame, chain_frame, check_frame, check_frame_hom, frame_from_space
from graded_topos.functors import GradeSet, enumerate_point_homs
from graded_topos.generators import GeneratorConfig, generate_random_space, generate_random_system
from graded_topos.grades import ONE, ZERO
from graded_topos.serialization import load_frame
from graded_topos.systems import GradedSystem, check_system

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("n", range(11))
def test_each_walk_is_the_one_mask_steps_builds(n):
    pairs, every = frames._pairs(n), frames._subsets(n)
    assert pairs.masks == oracle_pair_masks(n) and every.masks == list(range(1 << n))
    for walk in (pairs, every):
        assert walk.steps == mask_steps(walk.masks)
        assert [walk.position[mask] for mask in walk.masks] == list(range(len(walk.masks)))
    assert frames._pairs(n) is pairs  # one pair walk per carrier size


@pytest.mark.parametrize("n", range(2, 11))
def test_each_view_reads_the_walk_of_its_joins(n):
    # a chain in memory and as a table that folds are read on their pairs,
    # the one walk of their size; a table that does not fold, on every
    # subset, in a walk its view keeps
    table = crisp_chain(n)
    for frame in (chain_frame(F(i, n - 1) for i in range(n)), table):
        assert frame.view.walk is frames._pairs(n)
        assert frame.view.walk.masks == oracle_pair_masks(n)
    if n > 2:
        broken = table_of(table, [((1 << n) - 1, 0)])
        assert not broken.view.folds
        walk = broken.view.walk
        assert walk.masks == list(range(1 << n)) and walk.steps == mask_steps(walk.masks)
        assert broken.view.walk is walk


def test_an_all_subset_walk_goes_with_its_view():
    """Checking a 14-element table that fails the lowest-member fold
    builds its walk of 2^14 masks on its view alone: the per-size cache
    keeps the size it had, and the walk goes when the view goes."""
    cached = frames._pairs.cache_info().currsize
    frame = load_frame(FIXTURES / "frame_fourteen_opens_wrong_join.json")
    assert not frame.view.folds and len(frame.view.joins) == 1 << 14
    assert check_frame(frame).clause == "axiom 8"
    assert frames._pairs.cache_info().currsize == cached
    view = frame.view
    assert len(view.walk.steps) == (1 << 14) - 1
    holders = [r for r in gc.get_referrers(view.walk) if not isinstance(r, types.FrameType)]
    assert len(holders) == 1 and holders[0] is vars(view)
    gone = weakref.ref(view)
    del frame, view, holders
    gc.collect()
    assert gone() is None


def table_of(frame, changes=()):
    """`frame` read from a join table of every subset, with the join of each
    mask of `changes` set to the element at the given position."""
    items = frame.carrier
    joins = [items[frame.join_at(mask)] for mask in range(1 << len(items))]
    for mask, k in changes:
        joins[mask] = items[k]
    return GradedFrame.from_masks(items, frame.top, dict(frame.meet_table), joins, dict(frame.relation))


def pair_join_changed(frame, pair, value):
    """`frame` rebuilt in memory with the join of the two-element `pair`
    set to `value`, which may lie outside the carrier."""
    items = frame.carrier

    def join_fn(subset):
        if subset == frozenset(pair):
            return value
        return items[frame.join_at(sum(1 << frame.view.index[a] for a in subset))]

    return GradedFrame.from_join_fn(items, frame.top, dict(frame.meet_table), join_fn, dict(frame.relation))


def space_frames(seed, count=6, max_opens=8):
    cfg = GeneratorConfig(seed=seed, max_generators=4)
    return [frame_from_space(generate_random_space(cfg, index, max_opens=max_opens)) for index in range(count)]


def wide_masks(n, rng, count):
    """Up to `count` masks of three or more of n elements."""
    masks = [m for m in range(1 << n) if m.bit_count() >= 3]
    return rng.sample(masks, min(count, len(masks)))


def some_pairs(frame, rng, count):
    """Up to `count` two-element subsets of the carrier."""
    pairs = list(itertools.combinations(frame.carrier, 2))
    return rng.sample(pairs, min(count, len(pairs)))


def planted_frames(frame, rng):
    """`frame`, its table, and frames with one pair join or one wider table
    join changed."""
    n, items = len(frame), frame.carrier
    yield frame
    yield table_of(frame)
    for pair in some_pairs(frame, rng, 3):
        yield pair_join_changed(frame, pair, rng.choice(items))
        yield pair_join_changed(frame, pair, "nowhere")
    for mask in wide_masks(n, rng, 4):
        yield table_of(frame, [(mask, rng.randrange(n))])
    for mask in rng.sample(range(1, 1 << n), min(3, (1 << n) - 1)):
        yield table_of(frame, [(mask, rng.randrange(n))])


@pytest.mark.parametrize("seed", range(4))
def test_check_frame_names_what_its_loops_name(seed):
    rng = random.Random(seed)
    seen = collections.Counter()
    for base in space_frames(seed) + [crisp_chain(5), chain_frame((ZERO, F(1, 3), F(2, 3), ONE))]:
        for frame in planted_frames(base, rng):
            expected = loop_frame_violation(frame)
            assert check_frame(frame) == expected
            seen[expected and expected.clause, frame.view.table is not None,
                 len(frame.view.joins) == 1 << len(frame)] += 1
    clauses = {key[0] for key in seen}
    assert {None, "join closure", "axiom 7", "axiom 8"} <= clauses, seen
    # valid in memory and as tables, and tables read on every subset
    assert seen[None, False, False] and seen[None, True, False], seen
    assert sum(count for (clause, _, every), count in seen.items() if clause and every) > 0, seen


def test_check_frame_names_axiom_9_as_its_loops_do():
    # the crisp diamond above a two-element chain: a lattice, so axioms 1-8
    # hold, but not distributive; in memory and as a table
    elements = ["c0", "c1", "p", "q", "r", "t"]

    def order(x, y):
        return x == y or y == "t" or x[0] == "c" and (y[0] != "c" or x <= y)

    def bound(xs, below):
        common = [z for z in elements if all(order(z, x) if below else order(x, z) for x in xs)]
        return next(z for z in common if all(order(w, z) if below else order(z, w) for w in common))

    frame = GradedFrame.from_join_fn(
        elements, "t", {(x, y): bound([x, y], True) for x in elements for y in elements},
        lambda subset: bound(list(subset), False),
        {(x, y): ONE if order(x, y) else ZERO for x in elements for y in elements})
    for each in (frame, table_of(frame)):
        assert check_frame(each) == loop_frame_violation(each)
        assert check_frame(each).clause == "axiom 9"


def systems(seed):
    """Valid and clause-2-broken generated systems, each also over its
    frame's table; the valid ones with one satisfaction grade changed, over
    a table with one wider join changed, and over a frame with a pair join
    outside the carrier."""
    cfg = GeneratorConfig(seed=seed, max_generators=4)
    rng = random.Random(seed)
    grades = (ZERO, F(1, 4), F(1, 2), ONE)
    for index in range(5):
        broken = generate_random_system(cfg, index, invalid=True, max_opens=8)
        system = generate_random_system(cfg, index, max_opens=8)
        frame = system.frame
        for each in (broken, system):
            yield each
            yield GradedSystem(each.points, table_of(frame), each.rows)
        for _ in range(6):
            rows = [list(row) for row in system.rows]
            rows[rng.randrange(len(rows))][rng.randrange(len(frame))] = rng.choice(grades)
            yield GradedSystem(system.points, frame, tuple(map(tuple, rows)))
        for mask in wide_masks(len(frame), rng, 3):
            yield GradedSystem(system.points, table_of(frame, [(mask, rng.randrange(len(frame)))]), system.rows)
        for pair in some_pairs(frame, rng, 2):
            yield GradedSystem(system.points, pair_join_changed(frame, pair, "nowhere"), system.rows)


@pytest.mark.parametrize("seed", range(4))
def test_check_system_names_what_its_loops_name(seed):
    seen = collections.Counter()
    for system in systems(seed):
        expected = loop_system_violation(system)
        assert check_system(system) == expected
        seen[expected and expected.clause] += 1
    assert {None, "clause 1", "clause 2", "clause 3"} <= set(seen), seen


def maps_of(frame, rng):
    """Maps out of `frame`: its identity, its enumerated homs into the chain
    of its grades, each with one value changed, and the map of every
    element but the top to the bottom."""
    values = GradeSet.for_frame(frame)
    chain = chain_frame(values.grades)
    yield FrameHom.identity(frame)
    for p in enumerate_point_homs(frame, values)[:4]:
        yield p.as_frame_hom(frame, chain)
        changed = list(p.values)
        changed[rng.randrange(len(changed))] = rng.choice(values.grades)
        yield FrameHom(frame, chain, dict(zip(frame.carrier, changed)))
    yield FrameHom(frame, chain, {a: ONE if a == frame.top else ZERO for a in frame.carrier})


@pytest.mark.parametrize("seed", range(4))
def test_check_frame_hom_names_what_its_loops_name(seed):
    rng = random.Random(seed)
    seen = collections.Counter()
    for frame in space_frames(seed, count=5, max_opens=7):
        n, same = len(frame), {a: a for a in frame.carrier}
        homs = list(maps_of(frame, rng))
        homs.append(FrameHom(frame, table_of(frame), same))
        homs.append(FrameHom(table_of(frame), frame, same))
        for mask in wide_masks(n, rng, 3):
            # a table that fails the lowest-member fold, as source and as target
            folding_fails = table_of(frame, [(mask, rng.randrange(n))])
            homs.append(FrameHom(folding_fails, frame, same))
            homs.append(FrameHom(frame, folding_fails, same))
            homs.extend(maps_of(folding_fails, rng))
        for pair in some_pairs(frame, rng, 2):
            homs.append(FrameHom(pair_join_changed(frame, pair, "nowhere"), frame, same))
        for h in homs:
            expected = loop_frame_hom_violation(h)
            assert check_frame_hom(h) == expected
            seen[expected and expected.clause] += 1
    assert {None, "clause (i)", "clause (ii)", "clause (iii)", "join closure"} <= set(seen), seen
