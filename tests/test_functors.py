import collections
import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graded_topos.checks
import graded_topos.frames
import graded_topos.functors as functors
import graded_topos.fuzzy_sets
import graded_topos.spaces
import graded_topos.systems
from conftest import (
    brute_frame_hom_ok,
    brute_frame_homs_equal,
    brute_frame_violation,
    brute_is_bijective,
    brute_is_identity_frame_hom,
    brute_point_homs,
    brute_precomposition_images,
    brute_system_violation,
    brute_unit_images,
    counted_fraction_hashes,
    crisp_chain,
    space_with_opens,
)
from graded_topos.checks import LawReport, Violation
from graded_topos.cli import main
from graded_topos.errors import GradeSetTooSmall, NoPoints, NotContinuous, Overflow, SchemaError
from graded_topos.frames import (FrameHom, GradedFrame, chain_frame, check_frame, check_frame_hom, compose_frame_hom,
                                 frame_from_space, same_frame)
from graded_topos.functors import (
    GradeSet,
    PointHom,
    check_naturality,
    check_spatial_equivalence,
    check_triangle_identities,
    counit,
    enumerate_point_homs,
    ext_column,
    ext_morphism,
    ext_object,
    fm_morphism,
    fm_object,
    frame_homs_equal,
    is_identity_frame_hom,
    is_identity_system_morphism,
    j_morphism,
    j_object,
    point_evaluation,
    s_morphism,
    s_object,
    system_morphisms_equal,
    unit_space,
    unit_system,
)
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe, preimage
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_nonspatial_system,
    generate_random_system,
    generate_random_continuous_map,
    generate_random_space,
)
from graded_topos.grades import ONE, ZERO, format_grade, godel_arrow, grade
from graded_topos.ranks import cuts_of
from graded_topos.reports import PASS
from graded_topos.serialization import frame_from_json, frame_to_json, save_space
from graded_topos.spaces import GradedSpace, check_continuous, check_space, generate_topology, space_iso_check
from graded_topos.suites import DEFAULT_INSTANCES, run_suite
from graded_topos.systems import (
    GradedSystem,
    SystemMorphism,
    check_system,
    check_system_morphism,
    system_iso_check,
)

CFG = GeneratorConfig(seed=11)
HALF = F(1, 2)
FIXTURES = Path(__file__).parent / "fixtures"


def small_space(seed=0, max_opens=6):
    return generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=max_opens)


def test_grade_set_invariants():
    values = GradeSet.closure([HALF])
    assert values.grades == (ZERO, HALF, ONE)
    with pytest.raises(SchemaError):
        GradeSet((HALF, ONE))
    with pytest.raises(SchemaError):
        GradeSet((ONE, ZERO))  # unsorted
    # a list is stored as a tuple, so it validates and hashes as one
    listed = GradeSet([ZERO, HALF, ONE])
    assert listed.grades == (ZERO, HALF, ONE) and listed == values
    assert hash(listed) == hash(values) and {listed, values} == {values}
    with pytest.raises(SchemaError, match="sorted"):
        GradeSet([ONE, ZERO])


# --- extent -------------------------------------------------------------------

def test_extent_of_membership_system_recovers_the_space():
    space = small_space(3)
    assert ext_object(j_object(space)).opens == space.opens


def test_extent_deduplicates_columns():
    system = generate_nonspatial_system(CFG, 1)
    assert len(ext_object(system).opens) < len(system.frame.carrier)


def test_single_point_system_has_constant_columns():
    system = generate_nonspatial_system(CFG, 2)  # restricted to one point
    extent = ext_object(system)
    assert len(extent.universe) == 1
    assert all(len(t.grades) == 1 for t in extent.opens)


@pytest.mark.parametrize("seed", range(6))
def test_extent_spaces_are_valid(seed):
    system = j_object(small_space(seed))
    extent = ext_object(system)
    assert isinstance(check_space(extent.universe, list(extent.opens)), GradedSpace)


def test_an_extent_space_ranks_its_opens_in_their_own_grades():
    """The extent space of a hom-system whose frame has a relation grade that
    no hom takes keeps the rank table of its own opens, not the wider table
    of the system's extents, and so does the grade set of its system."""
    thirds = GradeSet.closure([F(1, 3), F(2, 3)])
    narrower = 0
    for seed in range(4):
        cfg = GeneratorConfig(seed=seed, grade_pool=thirds, max_generators=4)
        for index in range(6):
            frame = frame_from_space(generate_random_space(cfg, index, max_opens=6))
            for values in (GradeSet.closure([]), GradeSet.for_frame(frame)):
                system = s_object(frame, values)
                extent = ext_object(system)
                own = GradeSet.of(g for t in extent.opens for g in t.grades)
                assert extent.ranked[0].grades == own.grades
                assert extent.ranked[1] == [cuts_of(own.code(t.grades), own.top) for t in extent.opens]
                assert GradeSet.for_system(j_object(extent)).grades == own.grades
                taken = set(itertools.chain(*system.rows))
                narrower += len(own.grades) < len(system.extents[0].grades)
                if not set(frame.view.grades) <= taken:
                    assert len(own.grades) < len(system.extents[0].grades)
    assert narrower >= 10, narrower


@pytest.mark.parametrize("seed", range(4))
def test_an_extent_space_is_the_distinct_columns_of_its_system(seed):
    """Decoded from the extents' ints, the extent space holds the system's
    distinct satisfaction columns as fuzzy sets, sorted: on systems of
    spaces, broken and non-spatial systems, and hom-systems over grade sets
    narrower and wider than their frames'."""
    cfg = GeneratorConfig(seed=seed, grade_pool=QUARTERS, max_generators=4)
    systems = [generate_random_system(cfg, index, invalid=index % 2 == 1, max_opens=6) for index in range(4)]
    systems += [generate_nonspatial_system(cfg, index) for index in range(2)]
    for system in systems[:4]:
        for values in (GradeSet.closure([]), GradeSet.closure([HALF]), QUARTERS):
            try:
                systems.append(s_object(system.frame, values))
            except NoPoints:
                pass
    assert len(systems) > 12
    for system in systems:
        columns = {FuzzySet(system.points, column) for column in zip(*system.rows)}
        extent = ext_object(system)
        assert extent.opens == tuple(sorted(columns, key=lambda t: t.grades))
        assert all(t._hashes == FuzzySet(t.universe, t.grades)._hashes for t in extent.opens)


@pytest.mark.parametrize("seed", range(6))
def test_extent_transport(seed):
    f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), 0,
                                                       max_opens=8)
    m = j_morphism(f, source, target)
    pm = ext_morphism(m)
    assert pm == f
    for b in m.target.frame.carrier:
        assert preimage(pm, ext_column(m.target, b)) == ext_column(m.source, m.frame_hom.map[b])


# --- membership systems ---------------------------------------------------------

def test_membership_satisfaction_values():
    u = Universe.of("x1", "x2")
    space = generate_topology(u, [])
    system = j_object(space)
    bottom, top = space.opens[0], space.opens[-1]
    for x in u.elements:
        assert system.sat[(x, bottom)] == ZERO
        assert system.sat[(x, top)] == ONE


def test_membership_meets_are_pointwise_minima():
    space = small_space(4)
    system = j_object(space)
    for a in space.opens:
        for b in space.opens:
            meet_open = system.frame.meet_table[(a, b)]
            for x in space.universe.elements:
                assert system.sat[(x, meet_open)] == min(a(x), b(x))


def test_lifting_requires_continuity():
    u = Universe.of("x1", "x2")
    rich = generate_topology(u, [FuzzySet(u, (HALF, ZERO))])
    poor = generate_topology(u, [])
    with pytest.raises(NotContinuous):
        j_morphism(PointMap.identity(u), poor, rich)


def test_a_map_that_is_not_continuous_lifts_to_its_continuity_witness():
    witnesses = 0
    for seed in range(8):
        f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), 1)
        for poorer in (generate_topology(f.source, []), generate_topology(f.source, source.opens[1:2])):
            bad = check_continuous(f, poorer, target)
            if bad is None:
                continue
            witnesses += 1
            with pytest.raises(NotContinuous) as raised:
                j_morphism(f, poorer, target)
            assert str(raised.value) == str(NotContinuous(str(bad)))
    assert witnesses >= 8


def test_a_space_has_one_frame_shared_by_its_system_and_lifted_maps():
    for seed in range(4):
        space = small_space(seed)
        frame = frame_from_space(space)
        lifted = j_morphism(PointMap.identity(space.universe), space, space)
        assert frame is frame_from_space(space) is j_object(space).frame is lifted.source.frame
        assert lifted.target.frame is frame is lifted.frame_hom.source is lifted.frame_hom.target
        # an equal space built anew builds its own frame, the same frame
        twin = GradedSpace(space.universe, space.opens)
        assert frame_from_space(twin) is not frame and same_frame(frame_from_space(twin), frame)
    u = Universe.of("x1", "x2")
    no_top = GradedSpace(u, (FuzzySet(u, (ZERO, ZERO)), FuzzySet(u, (HALF, ZERO))))
    for _ in range(2):  # refused, and refused again: a failed build keeps nothing
        with pytest.raises(SchemaError, match="top"):
            frame_from_space(no_top)
        assert no_top._frame is None


def test_lifted_identity_is_the_identity_morphism():
    space = small_space(5)
    lifted = j_morphism(PointMap.identity(space.universe), space, space)
    assert is_identity_system_morphism(lifted)


@pytest.mark.parametrize("seed", range(6))
def test_lifted_maps_are_valid_morphisms(seed):
    f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), 1,
                                                       max_opens=8)
    assert check_system_morphism(j_morphism(f, source, target)) is None


# --- hom systems ----------------------------------------------------------------

def brute_enumerate_two_chain_homs():
    """All four maps from the two-chain into {0,1}, filtered by a literal
    restatement of the homomorphism clauses."""
    frame = frame_from_space(generate_topology(Universe.of("x1"), []))
    bottom, top = frame.bottom, frame.top
    chain = chain_frame([ZERO, ONE])
    found = []
    for v_bot, v_top in itertools.product((ZERO, ONE), repeat=2):
        v = {bottom: v_bot, top: v_top}
        ok = v[top] == ONE
        subsets = [(), (bottom,), (top,), (bottom, top)]
        for s in subsets:
            lhs = v[frame.join_fn(frozenset(s))]
            rhs = max((v[a] for a in s), default=ZERO)
            ok = ok and lhs == rhs
        for a in (bottom, top):
            for b in (bottom, top):
                ok = ok and v[frame.meet_table[(a, b)]] == min(v[a], v[b])
                ok = ok and frame.relation[(a, b)] <= godel_arrow(v[a], v[b])
        if ok:
            found.append((v_bot, v_top))
    return frame, found


def test_two_chain_has_exactly_one_hom():
    frame, brute = brute_enumerate_two_chain_homs()
    assert brute == [(ZERO, ONE)]
    homs = enumerate_point_homs(frame, GradeSet.closure([]))
    assert [h.values for h in homs] == [(ZERO, ONE)]
    system = s_object(frame, GradeSet.closure([]))
    assert len(system.points) == 1
    assert check_system(system) is None


def test_enumerated_homs_pass_the_public_checker():
    space = small_space(6, max_opens=5)
    frame = frame_from_space(space)
    values = GradeSet.for_system(j_object(space))
    chain = chain_frame(values.grades)
    homs = enumerate_point_homs(frame, values)
    assert homs, "expected at least the satisfaction rows"
    for hom in homs:
        as_hom = hom.as_frame_hom(frame, chain)
        assert check_frame_hom(as_hom) is None
        assert brute_frame_hom_ok(as_hom)


# --- hom enumeration against the brute-force oracle ------------------------------

QUARTERS = GradeSet.closure([F(1, 4), HALF, F(3, 4)])


def _tabled(frame, order=None, grade_map=lambda g: g):
    """The frame rebuilt by `from_tables` over labels e<index>, with its
    carrier listed in `order` and its relation grades passed through
    `grade_map`."""
    order = frame.carrier if order is None else order
    name = {a: f"e{i}" for i, a in enumerate(frame.carrier)}
    subsets = [s for k in range(len(order) + 1) for s in itertools.combinations(order, k)]
    return GradedFrame.from_tables(
        [name[a] for a in order], name[frame.top],
        {(name[a], name[b]): name[frame.meet_table[(a, b)]] for a in order for b in order},
        {frozenset(name[a] for a in s): name[frame.join_fn(frozenset(s))] for s in subsets},
        {(name[a], name[b]): grade_map(frame.relation[(a, b)]) for a in order for b in order})


def _generated_frames(max_opens):
    for seed in range(6):
        for pool in (GradeSet.closure([HALF]), GradeSet.closure([F(1, 3), F(2, 3)])):
            cfg = GeneratorConfig(seed=seed, grade_pool=pool, max_generators=4)
            for index in range(6):
                yield cfg, frame_from_space(generate_random_space(cfg, index, max_opens=max_opens))


def _mutated_table_frames(count, seed):
    """Table frames on two to five labels: generated frames with one to three
    entries overwritten at random, and (one time in four) random tables
    throughout. Most of them are invalid."""
    rng = random.Random(seed)
    bases = [_tabled(frame) for _, frame in _generated_frames(max_opens=5)]
    for _ in range(count):
        if rng.random() < 0.25:
            carrier = tuple(f"e{i}" for i in range(rng.randint(2, 5)))
            subsets = [s for k in range(len(carrier) + 1) for s in itertools.combinations(carrier, k)]
            yield GradedFrame.from_tables(
                carrier, rng.choice(carrier),
                {(a, b): rng.choice(carrier) for a in carrier for b in carrier},
                {frozenset(s): rng.choice(carrier) for s in subsets},
                {(a, b): rng.choice(QUARTERS.grades) for a in carrier for b in carrier})
            continue
        base = rng.choice(bases)
        meets, relation = dict(base.meet_table), dict(base.relation)
        joins = {frozenset(s): base.join_fn(frozenset(s))
                 for k in range(len(base) + 1) for s in itertools.combinations(base.carrier, k)}
        for _ in range(rng.randint(1, 3)):
            table = rng.choice((meets, joins, relation))
            key = rng.choice(list(table))
            table[key] = rng.choice(QUARTERS.grades if table is relation else base.carrier)
        yield GradedFrame.from_tables(base.carrier, base.top, meets, joins, relation)


def _refolded_table_frames(count, seed):
    """Table frames on three to five labels with one or two joins of pairs
    without the bottom overwritten at random, and every larger join refolded
    on its lowest member, join S = join{join(S - low), low}. They pass the
    lowest-member fold, so the checkers read them on their pairs. Most are
    invalid."""
    rng = random.Random(seed)
    bases = [_tabled(frame) for _, frame in _generated_frames(max_opens=5) if len(frame) >= 3]
    for _ in range(count):
        base = rng.choice(bases)
        items = base.carrier
        joins = {frozenset(s): base.join_fn(frozenset(s)) for k in range(3) for s in itertools.combinations(items, k)}
        for _ in range(rng.randint(1, 2)):
            joins[frozenset(rng.sample([a for a in items if a != base.bottom], 2))] = rng.choice(items)
        for k in range(3, len(items) + 1):
            for s in itertools.combinations(items, k):
                joins[frozenset(s)] = joins[frozenset((joins[frozenset(s[1:])], s[0]))]
        yield GradedFrame.from_tables(items, base.top, base.meet_table, joins, base.relation)


def test_enumeration_matches_the_brute_force_oracle_on_generated_frames():
    cases = 0
    for cfg, frame in _generated_frames(max_opens=7):
        for values in (GradeSet.for_frame(frame), GradeSet.closure([]), cfg.grade_pool):
            assert ([p.values for p in enumerate_point_homs(frame, values)]
                    == [p.values for p in brute_point_homs(frame, values)])
            cases += 1
    assert cases == 216


def test_enumeration_matches_the_brute_force_oracle_on_invalid_tables():
    empty = 0
    for frame in _mutated_table_frames(300, seed=5):
        for values in (GradeSet.for_frame(frame), QUARTERS):
            homs = [p.values for p in enumerate_point_homs(frame, values)]
            assert homs == [p.values for p in brute_point_homs(frame, values)]
            empty += not homs
    assert 0 < empty < 600


def _mutated_memory_frames(count, seed):
    """In-memory frames of generated spaces with one to three meet or
    relation entries overwritten at random. Their joins stay unions, so the
    checkers read them on the empty set, singletons and pairs only. Most of
    them are invalid."""
    rng = random.Random(seed)
    bases = [frame for _, frame in _generated_frames(max_opens=6)]
    for _ in range(count):
        base = rng.choice(bases)
        meets, relation = dict(base.meet_table), dict(base.relation)
        for _ in range(rng.randint(1, 3)):
            table = rng.choice((meets, relation))
            key = rng.choice(list(table))
            table[key] = rng.choice(QUARTERS.grades if table is relation else base.carrier)
        yield GradedFrame.from_join_fn(base.carrier, base.top, meets, base.join_fn, relation)


def test_checkers_match_the_brute_force_oracles_on_invalid_frames():
    # each frame is checked, and so are one-point systems over it and maps
    # into the grade chain (enumerated homs, one of them with an entry
    # changed, and a random row) and into itself
    rng = random.Random(17)
    chain = chain_frame(QUARTERS.grades)
    verdicts = collections.Counter()
    for kind, frames in (("memory", _mutated_memory_frames(200, seed=3)),
                         ("table", _mutated_table_frames(200, seed=5)),
                         ("refolded", _refolded_table_frames(150, seed=7))):
        for frame in frames:
            if kind == "refolded":
                assert len(frame.view.masks) < 1 << len(frame)
            bad = check_frame(frame)
            assert (bad is None) == (brute_frame_violation(frame) is None)
            verdicts[kind, "frame", bad and bad.clause] += 1
            rows = [list(p.values) for p in enumerate_point_homs(frame, QUARTERS)[:3]]
            if rows:
                rows.append(list(rows[0]))
                rows[-1][rng.randrange(len(frame.carrier))] = rng.choice(QUARTERS.grades)
            rows.append([rng.choice(QUARTERS.grades) for _ in frame.carrier])
            for row in rows:
                system = GradedSystem.from_table(Universe.of("p"), frame,
                                                 {("p", a): g for a, g in zip(frame.carrier, row)})
                bad = check_system(system)
                assert (bad is None) == (brute_system_violation(system) is None)
                verdicts[kind, "system", bad and bad.clause] += 1
                hom = FrameHom(frame, chain, dict(zip(frame.carrier, row)))
                bad = check_frame_hom(hom)
                assert (bad is None) == brute_frame_hom_ok(hom)
                verdicts[kind, "hom", bad and bad.clause] += 1
            endo = FrameHom(frame, frame, {a: rng.choice(frame.carrier) for a in frame.carrier})
            bad = check_frame_hom(endo)
            assert (bad is None) == brute_frame_hom_ok(endo)
            verdicts[kind, "hom", bad and bad.clause] += 1
    for kind in ("memory", "table", "refolded"):
        assert all(verdicts[kind, check, None] for check in ("frame", "system", "hom"))
        assert verdicts[kind, "system", "clause 3"] and verdicts[kind, "hom", "clause (ii)"]


def _lattice_frame(leq, incomparable):
    """The lattice on 0, a, b, c, 1 ordered by `leq`, as a table frame whose
    relation is 1 on comparable pairs and `incomparable` elsewhere."""
    carrier = ("0", "a", "b", "c", "1")

    def extreme(xs, below):
        bounds = [z for z in carrier if all(leq(z, x) if below else leq(x, z) for x in xs)]
        return next(z for z in bounds if all(leq(w, z) if below else leq(z, w) for w in bounds))

    subsets = [s for k in range(6) for s in itertools.combinations(carrier, k)]
    return GradedFrame.from_tables(
        carrier, "1",
        {(x, y): extreme((x, y), below=True) for x in carrier for y in carrier},
        {frozenset(s): extreme(s, below=False) for s in subsets},
        {(x, y): ONE if leq(x, y) else incomparable for x in carrier for y in carrier})


def test_enumeration_matches_the_brute_force_oracle_on_non_distributive_lattices():
    # the diamond M3 and the pentagon N5 are lattices but not frames: there
    # {a, b} and {a, c} have the same join 1 and neither contains the other,
    # so neither join constraint may stand in for the other
    diamond = lambda x, y: x == y or x == "0" or y == "1"
    pentagon = lambda x, y: diamond(x, y) or (x, y) == ("a", "b")
    for leq in (diamond, pentagon):
        for incomparable in (ZERO, HALF):
            frame = _lattice_frame(leq, incomparable)
            for values in (GradeSet.closure([]), GradeSet.closure([HALF]), QUARTERS):
                assert ([p.values for p in enumerate_point_homs(frame, values)]
                        == [p.values for p in brute_point_homs(frame, values)])


def test_enumeration_is_invariant_under_carrier_permutation():
    rng = random.Random(7)
    for _, frame in _generated_frames(max_opens=6):
        values = GradeSet.for_frame(frame)
        base = _tabled(frame)
        shuffled = rng.sample(frame.carrier, len(frame.carrier))
        if shuffled == list(frame.carrier):
            shuffled.reverse()
        permuted = _tabled(frame, order=shuffled)
        for _ in ("search", "slot"):  # a repeat call reads the frame's slot
            homs = [enumerate_point_homs(f, values) for f in (base, permuted)]
            as_maps = [{frozenset(zip(p.carrier, p.values)) for p in found} for found in homs]
            assert as_maps[0] == as_maps[1]
            # in value order whatever the carrier order; the search's own order is not
            assert all([p.values for p in found] == sorted(p.values for p in found) for found in homs)


def test_enumeration_commutes_with_monotone_grade_relabelling():
    rng = random.Random(11)
    for _, frame in _generated_frames(max_opens=6):
        values = GradeSet.closure(set(frame.relation.values()) | {F(1, 4)})
        inner = values.grades[1:-1]
        # a strictly monotone map fixing 0 and 1, onto random hundredths
        image = sorted(F(k, 100) for k in rng.sample(range(1, 100), len(inner)))
        relabel = {ZERO: ZERO, ONE: ONE, **dict(zip(inner, image))}
        base, relabelled = _tabled(frame), _tabled(frame, grade_map=relabel.__getitem__)
        moved_values = GradeSet(tuple(relabel[g] for g in values.grades))
        for _ in ("search", "slot"):  # a repeat call reads the frame's slot
            homs = enumerate_point_homs(base, values)
            moved = enumerate_point_homs(relabelled, moved_values)
            assert [tuple(relabel[g] for g in p.values) for p in homs] == [p.values for p in moved]


def _checker_verdicts(frame, rows, endo, grade_map=lambda g: g):
    """check_frame; check_system on a one-point system per row (a map from
    labels to grades); check_frame_hom of each row into the quarter chain
    as a table frame, and of `endo`. Every grade passes through `grade_map`;
    the one witness that prints a grade, the top's satisfaction, shows a
    placeholder instead."""
    chain = _tabled(chain_frame(QUARTERS.grades), grade_map=grade_map)
    label = dict(zip(QUARTERS.grades, chain.carrier))
    verdicts = [check_frame(frame)]
    for row in rows:
        system = GradedSystem.from_table(Universe.of("p"), frame, {("p", a): grade_map(g) for a, g in row.items()})
        bad = check_system(system)
        verdicts.append(bad and Violation(bad.check, bad.clause, bad.witness.replace(
            f" is {grade_map(row[frame.top])}, ", " is <grade>, ")))
        verdicts.append(check_frame_hom(FrameHom(frame, chain, {a: label[g] for a, g in row.items()})))
    verdicts.append(check_frame_hom(FrameHom(frame, frame, endo)))
    return verdicts


def test_checkers_are_invariant_under_grade_relabelling_and_carrier_permutation():
    # a strictly monotone relabelling of grades that fixes 0 and 1 keeps
    # every clause and witness; a permutation of the carrier keeps every
    # verdict (a witness names a subset mask, which the order changes)
    rng = random.Random(23)
    generated = [_tabled(frame) for _, frame in _generated_frames(max_opens=5)]
    clauses = collections.Counter()
    for frame in generated + list(_mutated_table_frames(150, seed=9)):
        homs = enumerate_point_homs(frame, QUARTERS)[:2]
        rows = [dict(zip(frame.carrier, p.values)) for p in homs]
        rows += [{a: rng.choice(QUARTERS.grades) for a in frame.carrier} for _ in range(2)]
        rows[-1][frame.top] = ONE
        endo = {a: rng.choice(frame.carrier) for a in frame.carrier}
        inner = sorted((set(frame.relation.values()) | set(QUARTERS.grades)) - {ZERO, ONE})
        image = sorted(F(k, 100) for k in rng.sample(range(1, 100), len(inner)))
        relabel = {ZERO: ZERO, ONE: ONE, **dict(zip(inner, image))}
        base = _checker_verdicts(frame, rows, endo)
        moved = _tabled(frame, grade_map=relabel.__getitem__)
        assert _checker_verdicts(moved, rows, endo, relabel.__getitem__) == base
        permuted = _tabled(frame, order=rng.sample(frame.carrier, len(frame.carrier)))
        assert [v is None for v in _checker_verdicts(permuted, rows, endo)] == [v is None for v in base]
        clauses.update(v and v.clause for v in base)
    assert all(clauses[c] for c in (None, "axiom 8", "clause 1", "clause 2", "clause 3",
                                    "clause (ii)", "clause (iii)"))


def _read_back(frame, order=None, grade_map=lambda g: g):
    """The frame written to its file and read back, with the carrier listed
    in `order` (positions) and every relation grade passed through
    `grade_map`."""
    payload = frame_to_json(frame)
    if order is not None:
        payload["carrier"] = [payload["carrier"][i] for i in order]
    payload["relation"] = {key: format_grade(grade_map(grade(value)))
                           for key, value in payload["relation"].items()}
    return frame_from_json(payload)


def test_table_files_keep_verdict_and_fold_decision_under_relabelling_and_permutation():
    # valid tables fold on the lowest member in every carrier order; a table
    # with one wrong join of three or more elements fails that fold in every
    # order; a table refolded in one order is only compared under relabelling
    rng = random.Random(29)
    valid = [_tabled(frame) for _, frame in _generated_frames(max_opens=6) if len(frame) >= 3]
    planted = []
    for frame in valid:
        items = frame.carrier
        large = [s for k in range(3, len(items) + 1) for s in itertools.combinations(items, k)]
        joins = {frozenset(s): frame.join_fn(frozenset(s))
                 for k in range(len(items) + 1) for s in itertools.combinations(items, k)}
        key = frozenset(rng.choice(large))
        joins[key] = rng.choice([a for a in items if a != joins[key]])
        planted.append(GradedFrame.from_tables(items, frame.top, frame.meet_table, joins, frame.relation))
    decisions = collections.Counter()
    for kind, frames in (("valid", valid), ("planted", planted),
                         ("refolded", list(_refolded_table_frames(60, seed=31)))):
        for frame in frames:
            read = _read_back(frame)
            on_pairs = len(read.view.masks) < 1 << len(read)
            verdict = check_frame(read)
            inner = sorted(set(frame.relation.values()) - {ZERO, ONE})
            image = sorted(F(k, 100) for k in rng.sample(range(1, 100), len(inner)))
            relabel = {ZERO: ZERO, ONE: ONE, **dict(zip(inner, image))}
            moved = _read_back(frame, grade_map=relabel.__getitem__)
            assert check_frame(moved) == verdict
            assert (len(moved.view.masks) < 1 << len(moved)) == on_pairs
            permuted = _read_back(frame, order=rng.sample(range(len(frame)), len(frame)))
            assert (check_frame(permuted) is None) == (verdict is None)
            if kind != "refolded":
                assert (len(permuted.view.masks) < 1 << len(permuted)) == on_pairs
            decisions[kind, on_pairs, verdict is None] += 1
    assert set(decisions) == {("valid", True, True), ("planted", False, False),
                              ("refolded", True, True), ("refolded", True, False)}


def test_enumeration_at_eleven_opens():
    frame = frame_from_space(space_with_opens(11))
    three = GradeSet((ZERO, HALF, ONE))
    coarse = [p.values for p in enumerate_point_homs(frame, three)]
    assert coarse and coarse == [p.values for p in brute_point_homs(frame, three)]
    homs = enumerate_point_homs(frame, QUARTERS)
    assert len(homs) > len(coarse)
    chain = chain_frame(QUARTERS.grades)
    for p in homs:
        assert check_frame_hom(p.as_frame_hom(frame, chain)) is None
    assert check_system(s_object(frame, QUARTERS)) is None


def test_enumeration_raises_overflow_past_its_budget(monkeypatch):
    # A crisp n-chain's homs into k grades are its monotone maps fixing both
    # ends, C(n - 3 + k, n - 2) of them. The search tries k ranks at each
    # monotone partial map of the first m < n - 2 free elements, and there
    # are C(n - 3 + k, n - 3) of those. The budget counts those tries, so
    # (5, 8) stops at a budget of 359 with only 120 homs to find.
    for n, k in ((3, 2), (5, 8), (7, 4)):
        frame, values = crisp_chain(n), GradeSet(tuple(F(i, k - 1) for i in range(k)))
        tries = k * math.comb(n - 3 + k, n - 3)
        monkeypatch.setattr(functors, "HOM_SEARCH_CAP", tries)
        assert len(enumerate_point_homs(frame, values)) == math.comb(n - 3 + k, n - 2)
        monkeypatch.setattr(functors, "HOM_SEARCH_CAP", tries - 1)
        with pytest.raises(Overflow, match=f"tried more than {tries - 1} partial maps"):
            enumerate_point_homs(frame, values)


@pytest.fixture
def searches(monkeypatch):
    """The (frame, grade set) of every hom search run, slot reads aside."""
    calls = []
    search = functors._search_point_homs

    def counted(frame, values):
        calls.append((frame, values))
        return search(frame, values)

    monkeypatch.setattr(functors, "_search_point_homs", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_a_frame_is_searched_once_per_grade_set(seed, searches):
    space = small_space(seed, max_opens=5)
    system = j_object(space)
    frame, values = system.frame, GradeSet.for_system(system)
    homs = enumerate_point_homs(frame, values)
    assert s_object(frame, values).points.elements == tuple(homs)
    laws = (check_triangle_identities("fm-s", frame, values)
            + check_triangle_identities("fm-s", system, values)
            + check_triangle_identities("composite", space, values)
            + check_triangle_identities("composite", frame, values)
            + check_naturality("fm-s", FrameHom.identity(frame), values)
            + check_naturality("fm-s", j_morphism(PointMap.identity(space.universe), space, space), values))
    assert all(law.ok for law in laws)
    assert [f for f, _ in searches].count(frame) == 1
    # the other is the frame of S(frame)'s extent space, which both
    # composite checks reach through the objects their functors keep
    assert len(searches) == 1 + len({id(f) for f, _ in searches if f is not frame}) == 2
    assert frame._homs[0] == values and frame._homs[2] is s_object(frame, values)


def test_another_grade_set_searches_again_and_replaces_the_slot(searches):
    frame = frame_from_space(small_space(3, max_opens=5))
    grade_sets = (GradeSet.for_frame(frame), QUARTERS, GradeSet.for_frame(frame), QUARTERS, QUARTERS)
    for values in grade_sets:
        assert enumerate_point_homs(frame, values) == brute_point_homs(frame, values)
        assert frame._homs[0] == values
    assert [v for _, v in searches] == list(grade_sets[:4])


def test_enumeration_returns_a_new_list_each_call():
    frame, values = crisp_chain(5), QUARTERS
    first = enumerate_point_homs(frame, values)
    kept = list(first)
    first.clear()
    second = enumerate_point_homs(frame, values)
    assert second == kept and second is not first
    second.append(second[0])
    assert enumerate_point_homs(frame, values) == kept


def test_a_search_that_overflowed_overflows_again(monkeypatch, searches):
    frame, values = crisp_chain(5), GradeSet(tuple(F(i, 7) for i in range(8)))
    monkeypatch.setattr(functors, "HOM_SEARCH_CAP", 359)  # the search tries 360
    for _ in range(2):
        with pytest.raises(Overflow, match="tried more than 359 partial maps"):
            enumerate_point_homs(frame, values)
        assert frame._homs is None
    assert len(searches) == 2
    # a finished search keeps its count, which a lowered cap reads without searching
    monkeypatch.setattr(functors, "HOM_SEARCH_CAP", 360)
    assert len(enumerate_point_homs(frame, values)) == 120
    monkeypatch.setattr(functors, "HOM_SEARCH_CAP", 359)
    with pytest.raises(Overflow, match="tried more than 359 partial maps"):
        s_object(frame, values)
    assert len(searches) == 3 and frame._homs[1] == 360


GRADE_CHOICES = (F(1, 4), F(1, 3), HALF, F(2, 3), F(3, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.sets(st.sampled_from(GRADE_CHOICES)), st.sets(st.sampled_from(GRADE_CHOICES)))
def test_alternating_grade_sets_match_the_brute_force_oracle(seed, index, first, second):
    cfg = GeneratorConfig(seed=seed, grade_pool=GradeSet.closure([HALF]), max_generators=4)
    frame = frame_from_space(generate_random_space(cfg, index, max_opens=5))
    for values in (GradeSet.closure(first), GradeSet.closure(second), GradeSet.closure(first)):
        assert ([p.values for p in enumerate_point_homs(frame, values)]
                == [p.values for p in brute_point_homs(frame, values)])


def test_the_adjunction_suite_searches_each_frame_and_grade_set_once(searches):
    reports = run_suite("adjunction", GeneratorConfig())
    assert reports and all(r.status == PASS for r in reports)
    pairs = collections.Counter((id(frame), values) for frame, values in searches)
    assert searches and max(pairs.values()) == 1


@pytest.mark.parametrize("name", ["frame_two_chain.json", "frame_three_chain.json", "frame_fourteen_opens.json"])
def test_hom_cli_outputs_do_not_depend_on_the_slot(name, tmp_path, capsys, monkeypatch):
    """`functor s` and `adjunction-test fm-s` write the same bytes when
    every enumeration searches afresh."""
    path = FIXTURES / name

    def outputs(tag):
        argvs = [["functor", "s", "--in", str(path), "--out", str(tmp_path / f"{tag}-default.json")],
                 ["functor", "s", "--in", str(path), "--grades", "1/4,1/2", "--out", str(tmp_path / f"{tag}-quarters.json")],
                 ["adjunction-test", "fm-s", "--in", str(path)],
                 ["adjunction-test", "fm-s", "--in", str(path), "--grades", "1/4,1/2"]]
        streams = []
        for argv in argvs:
            code = main(argv)
            streams.append((code, *capsys.readouterr()))
        files = [(tmp_path / f"{tag}-{kind}.json").read_bytes() for kind in ("default", "quarters")]
        return streams, files

    kept = outputs("slot")
    enumerate_homs = functors.enumerate_point_homs

    def fresh(frame, values):
        object.__setattr__(frame, "_homs", None)
        return enumerate_homs(frame, values)

    monkeypatch.setattr(functors, "enumerate_point_homs", fresh)
    assert outputs("fresh") == kept


def test_hom_system_satisfaction_is_application():
    space = small_space(7, max_opens=4)
    frame = frame_from_space(space)
    system = s_object(frame, GradeSet.for_system(j_object(space)))
    for v in system.points.elements:
        for a, b in itertools.product(frame.carrier, repeat=2):
            meet_elem = frame.meet_table[(a, b)]
            assert system.sat[(v, meet_elem)] == min(v(a), v(b))


def test_satisfaction_rows_are_enumerated_points():
    space = small_space(8, max_opens=5)
    system = j_object(space)
    values = GradeSet.for_system(system)
    hom_system = s_object(system.frame, values)
    for x in system.points.elements:
        assert point_evaluation(system, x) in hom_system.points


@pytest.mark.parametrize("seed", range(3))
def test_a_point_evaluation_is_its_row_hashed_as_its_row(seed):
    """On systems of spaces, whose rows are the columns of their opens, on
    broken systems over the same frames, whose rows are not, and on
    hom-systems, each point's evaluation holds its row and hashes as the
    hom the public constructor builds from it."""
    cfg = GeneratorConfig(seed=seed, max_generators=4)
    systems = [generate_random_system(cfg, index, invalid=invalid, max_opens=6)
               for index in range(3) for invalid in (False, True)]
    systems += [s_object(s.frame, GradeSet.for_system(s)) for s in systems[::2]]
    for system in systems:
        for x, row in zip(system.points.elements, system.rows):
            p, plain = point_evaluation(system, x), PointHom(system.frame.carrier, row)
            assert p.values == row and p == plain and hash(p) == hash(plain)


def _copied(values):
    """Equal grades, each held in a new object."""
    return tuple(F(g.numerator, g.denominator) for g in values)


def _own_rows(system):
    """A system over the same frame whose points are homs equal to their
    rows, built anew from the distinct rows of `system` in new grade objects."""
    rows = tuple(dict.fromkeys(map(_copied, system.rows)))
    return GradedSystem(Universe(tuple(PointHom(system.frame.carrier, row) for row in rows)), system.frame, rows)


def _targets(hom_system):
    """Systems over a hom-system's frame to look images up in: the hom-system;
    its points with rows that are not theirs, and with one row for all; string
    points beside every other hom; equal homs held in new objects; and homs
    with the same values over another carrier, which are no member."""
    frame, points, rows = hom_system.frame, hom_system.points.elements, hom_system.rows
    copies = tuple(PointHom(p.carrier, _copied(p.values)) for p in points)
    labels = tuple(map(str, range(len(frame))))
    return [hom_system,
            GradedSystem(hom_system.points, frame, rows[1:] + rows[:1]),
            GradedSystem(hom_system.points, frame, (rows[0],) * len(rows)),
            GradedSystem(Universe(("s0",) + points[::2]), frame, (rows[-1],) + rows[::2]),
            GradedSystem(Universe(copies[::-1]), frame, rows[::-1]),
            GradedSystem(Universe(tuple(PointHom(labels, p.values) for p in points)), frame, rows)]


def _hom_systems(frame, grade_sets):
    """The hom-system of the frame over each grade set that has homs."""
    return [s_object(frame, values) for values in grade_sets if enumerate_point_homs(frame, values)]


def _outcome(found, target):
    """A builder's images with their positions in the target, or its refusal's class and message."""
    if isinstance(found, Exception):
        return type(found), str(found)
    return found, tuple(map(target.points.index, found))


def _built(builder, *args):
    try:
        found = builder(*args).point_map.images
    except (GradeSetTooSmall, NoPoints) as refusal:
        found = refusal
    return _outcome(found, args[-1])


WIDER = (F(1, 5), F(1, 2), F(4, 5))


@pytest.mark.parametrize("seed", range(3))
def test_units_find_the_images_the_membership_test_finds(seed):
    """The fm-s unit at a system sends each point where the public
    constructor's hom of its row is found among the hom-system's points, and
    a point that already is its row's hom to itself; on systems of spaces,
    broken systems, hom-systems and systems of own-row homs, into hom-systems
    over the system's grades, wider ones and {0, 1}, and into targets whose
    points are not their rows, share a row, are strings or hold equal grades
    in other objects. A refusal has the oracle's class and message."""
    cfg = GeneratorConfig(seed=seed, max_generators=4)
    kinds = collections.Counter()
    for index in range(3):
        for invalid in (False, True):
            system = generate_random_system(cfg, index, invalid=invalid, max_opens=6)
            values = GradeSet.for_system(system)
            grade_sets = (values, GradeSet.closure(values.grades + WIDER), GradeSet.closure([]))
            for hom_system in _hom_systems(system.frame, grade_sets):
                for source in (system, hom_system, _own_rows(system), _own_rows(hom_system)):
                    for target in _targets(hom_system):
                        expected = brute_unit_images(source, target)
                        assert _built(unit_system, source, target) == _outcome(expected, target)
                        if not isinstance(expected, Exception):
                            images = unit_system(source, target).point_map.images
                            own = [x for x, p in zip(source.points.elements, expected) if x is p]
                            assert all(x is p for x, p in zip(source.points.elements, images) if x in own)
                            kinds["own"] += len(own)
                        kinds[type(expected).__name__] += 1
    assert min(kinds[k] for k in ("tuple", "GradeSetTooSmall", "NoPoints", "own")) >= 5, kinds


@pytest.mark.parametrize("seed", range(3))
def test_precompositions_find_the_images_the_membership_test_finds(seed):
    """S of a frame hom sends each hom to the public constructor's hom of its
    precomposition, found among the target's points: at lifted maps,
    identities and a map of every element to the top, between hom-systems
    over one grade set and over L and a wider L' both ways, from homs held
    in new grade objects, and into the targets of the unit test."""
    cfg = GeneratorConfig(seed=seed)
    kinds = collections.Counter()
    for index in range(4):
        f, source_space, target_space = generate_random_continuous_map(cfg, index, max_opens=5)
        lifted = j_morphism(f, source_space, target_space).frame_hom
        frame = lifted.target
        to_top = FrameHom(frame, frame, dict.fromkeys(frame.carrier, frame.top))
        for h in (lifted, FrameHom.identity(frame), to_top):
            values = GradeSet.closure(set(h.source.view.grades) | set(h.target.view.grades))
            grade_sets = (values, GradeSet.closure(values.grades + WIDER))
            for source_homs in _hom_systems(h.target, grade_sets):
                for target_homs in _hom_systems(h.source, grade_sets):
                    for source in (source_homs, _own_rows(source_homs)):
                        for target in _targets(target_homs):
                            expected = brute_precomposition_images(h, source, target)
                            assert _built(s_morphism, h, source, target) == _outcome(expected, target)
                            kinds[type(expected).__name__] += 1
    assert min(kinds[k] for k in ("tuple", "NoPoints")) >= 5, kinds


@pytest.mark.parametrize("seed", range(3))
def test_a_hom_index_keeps_the_id_table_of_its_own_grades_only(seed):
    """The id table kept beside a hom-system's index names the objects of
    the index's grade table and nothing else, whether the search stored the
    index or it was built on first read. A unit from a system whose rows
    hold equal grades in new objects finds the images the membership test
    finds, by value, and leaves the table as it was."""
    f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), seed, max_opens=5)
    system = j_morphism(f, source, target).source
    copied = GradedSystem(system.points, system.frame, tuple(map(_copied, system.rows)))
    values = GradeSet.closure(itertools.chain(*system.rows))
    hom_system = s_object(system.frame, values)
    assert hom_system.hom_index[0] is values
    # the search's own index, and one built on first read over equal homs in new objects
    for homs in (hom_system, _targets(hom_system)[4]):
        grades, _ = homs.hom_index
        placed = grades._placed
        assert placed == {id(g): r for r, g in enumerate(grades.grades)}
        kept = dict(placed)
        expected = brute_unit_images(copied, homs)
        assert isinstance(expected, tuple)
        assert _built(unit_system, copied, homs) == _outcome(expected, homs)
        assert homs.hom_index[0]._placed is placed and placed == kept


def _count_calls(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def counted(self, *args):
        calls[f"{cls.__name__}.{name}"] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("seed", range(3))
def test_units_and_precompositions_build_no_hom_and_compare_no_dataclass(seed, monkeypatch):
    """Once a frame's hom-system is kept, the fm-s unit at a system of a space,
    at the hom-system and at the system of its extent space (whose points are
    homs over another carrier), and S at an identity and at a lifted map,
    build no PointHom (each is hashed as it is built) and call no dataclass
    __eq__: each image is found as the stored point itself."""
    f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), seed, max_opens=5)
    m = j_morphism(f, source, target)
    values = GradeSet.closure(itertools.chain(*m.source.rows, *m.target.rows))
    system, h = m.source, m.frame_hom
    hom_system, target_homs = s_object(h.target, values), s_object(h.source, values)
    extents = counit(hom_system).source
    extent_homs = s_object(extents.frame, values)
    runs = (lambda: unit_system(system, hom_system), lambda: unit_system(hom_system, hom_system),
            lambda: unit_system(extents, extent_homs),
            lambda: s_morphism(FrameHom.identity(hom_system.frame), hom_system, hom_system),
            lambda: s_morphism(h, hom_system, target_homs))
    first = [run() for run in runs]
    assert not is_identity_frame_hom(h) and check_system_morphism(first[4]) is None
    calls = collections.Counter()
    modules = (functors, graded_topos.checks, graded_topos.frames, graded_topos.fuzzy_sets,
               graded_topos.spaces, graded_topos.systems)
    classes = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.eq}
    assert {Universe, FuzzySet, PointMap, PointHom} <= classes
    for cls in classes:
        _count_calls(monkeypatch, cls, "__eq__", calls)
    _count_calls(monkeypatch, PointHom, "_hashed", calls)
    again = [run() for run in runs]
    assert calls == {}
    assert [m.point_map.images for m in again] == [m.point_map.images for m in first]


def test_no_points_when_top_meets_bottom():
    solo = GradedFrame.from_tables(("a",), "a", {("a", "a"): "a"},
                                   {frozenset(): "a", frozenset("a"): "a"},
                                   {("a", "a"): ONE})
    with pytest.raises(NoPoints):
        s_object(solo, GradeSet.closure([]))


def test_precomposition_morphisms_are_valid():
    f, source, target = generate_random_continuous_map(GeneratorConfig(seed=9), 2,
                                                       max_opens=5)
    m = j_morphism(f, source, target)
    values = GradeSet.closure(set(m.source.sat.values()) | set(m.target.sat.values()))
    lifted = s_morphism(fm_morphism(m), s_object(m.source.frame, values),
                        s_object(m.target.frame, values))
    assert check_system_morphism(lifted) is None


def test_fm_projections():
    space = small_space(9)
    system = j_object(space)
    assert fm_object(system) is system.frame
    lifted = j_morphism(PointMap.identity(space.universe), space, space)
    assert fm_morphism(lifted) is lifted.frame_hom


# --- units, counits, triangles ---------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_unit_space_is_an_isomorphism(seed):
    space = small_space(seed, max_opens=8)
    extent = ext_object(j_object(space))
    assert extent.opens == space.opens
    assert space_iso_check(unit_space(space), space, extent)


@pytest.mark.parametrize("seed", range(6))
def test_counit_is_a_valid_morphism(seed):
    system = j_object(small_space(seed))
    assert check_system_morphism(counit(system)) is None


def test_counit_iso_exactly_on_spatial_systems():
    spatial_system = j_object(small_space(10))
    assert system_iso_check(counit(spatial_system))
    nonspatial = generate_nonspatial_system(CFG, 3)
    assert not system_iso_check(counit(nonspatial))
    assert check_spatial_equivalence(spatial_system)
    assert check_spatial_equivalence(nonspatial)


def test_unit_system_rows_and_grade_set_guard():
    space = small_space(11, max_opens=5)
    system = j_object(space)
    values = GradeSet.for_system(system)
    unit = unit_system(system, s_object(system.frame, values))
    assert check_system_morphism(unit) is None
    grades_used = set(system.sat.values())
    if grades_used - {ZERO, ONE}:
        with pytest.raises(GradeSetTooSmall):
            unit_system(system, s_object(system.frame, GradeSet.closure([])))


def _two_point_frame():
    """The frame of the discrete two-point space, whose homs into {0, 1}
    are its two points' rows."""
    u = Universe.of("x1", "x2")
    return frame_from_space(generate_topology(u, [FuzzySet(u, (ONE, ZERO)), FuzzySet(u, (ZERO, ONE))]))


def test_unit_system_blames_the_grade_set_before_a_row_with_pooled_grades():
    frame = _two_point_frame()
    hom_system = s_object(frame, GradeSet.closure([]))
    pooled = (ZERO,) * len(frame)  # grades of the pool, but the top is not at 1
    outside = tuple(HALF if a == frame.top else ZERO for a in frame.carrier)
    for rows in ((pooled, outside), (outside, pooled)):
        with pytest.raises(GradeSetTooSmall, match="1/2"):
            unit_system(GradedSystem(Universe.of("p", "q"), frame, rows), hom_system)
    with pytest.raises(NoPoints):
        unit_system(GradedSystem(Universe.of("p"), frame, (pooled,)), hom_system)


def check_unit_system_outcomes(name_points):
    """GradeSetTooSmall when any grade is taken by no hom, else NoPoints when
    any row is not a hom, else each point goes to its row, over 300 random
    systems on the two-point frame whose points `name_points(rng, k)` names.
    Returns how many points were their own images."""
    rng = random.Random(3)
    frame = _two_point_frame()
    hom_system = s_object(frame, GradeSet.closure([]))
    homs = {p.values for p in hom_system.points.elements}
    outcomes, reused = collections.Counter(), 0
    for _ in range(300):
        points = Universe(name_points(rng, rng.randint(1, 3)))
        rows = tuple(tuple(rng.choice((ZERO, ZERO, HALF, ONE, ONE)) for _ in frame.carrier)
                     if rng.random() < 0.5 else rng.choice(sorted(homs)) for _ in points.elements)
        if any(g == HALF for row in rows for g in row):
            expected = GradeSetTooSmall
        elif any(row not in homs for row in rows):
            expected = NoPoints
        else:
            expected = None
        try:
            unit = unit_system(GradedSystem(points, frame, rows), hom_system)
        except (GradeSetTooSmall, NoPoints) as err:
            got = type(err)
        else:
            got = None
            assert [p.values for p in unit.point_map.images] == list(rows)
            for x, image in zip(points.elements, unit.point_map.images):
                # a point that already is its row's hom is its own image
                assert (image is x) == (isinstance(x, PointHom) and x.values == image.values)
                reused += image is x
        assert got is expected
        outcomes[expected] += 1
    assert len(outcomes) == 3
    return reused


def test_unit_system_outcome_on_random_rows():
    assert check_unit_system_outcomes(lambda rng, k: tuple(f"p{i}" for i in range(k))) == 0


def test_unit_system_outcome_on_random_rows_at_hom_points():
    """The same oracle where the points are homs over the frame's carrier:
    a point whose values equal its row is reused, any other is not."""
    carrier = _two_point_frame().carrier
    homs = [PointHom(carrier, v) for v in itertools.product((ZERO, ONE), repeat=len(carrier))]
    assert check_unit_system_outcomes(lambda rng, k: tuple(rng.sample(homs, k))) > 0


def test_unit_system_injectivity_depends_on_separation():
    u = Universe.of("x1", "x2")
    # indiscrete: both points have the same satisfaction row
    plain = j_object(generate_topology(u, []))
    unit = unit_system(plain, s_object(plain.frame, GradeSet.for_system(plain)))
    assert len(set(unit.point_map.images)) == 1
    # a separating open gives distinct rows
    separated = j_object(generate_topology(u, [FuzzySet(u, (ONE, ZERO))]))
    unit = unit_system(separated, s_object(separated.frame, GradeSet.for_system(separated)))
    assert len(set(unit.point_map.images)) == 2


@pytest.mark.parametrize("seed", range(6))
def test_triangle_identities_j_ext(seed):
    space = small_space(seed, max_opens=7)
    assert all(law.ok for law in check_triangle_identities("j-ext", space))
    system = j_object(space)
    assert all(law.ok for law in check_triangle_identities("j-ext", system))


@pytest.mark.parametrize("seed", range(6))
def test_triangle_identities_fm_s(seed):
    space = small_space(seed, max_opens=5)
    system = j_object(space)
    values = GradeSet.for_system(system)
    assert all(law.ok for law in check_triangle_identities("fm-s", system.frame, values))
    assert all(law.ok for law in check_triangle_identities("fm-s", system, values))


@pytest.mark.parametrize("seed", range(6))
def test_triangle_identities_composite(seed):
    space = small_space(seed, max_opens=5)
    values = GradeSet.for_system(j_object(space))
    assert all(law.ok for law in check_triangle_identities("composite", space, values))


def test_triangle_identities_j_ext_above_twelve_opens(tmp_path, capsys):
    space = space_with_opens(13)
    laws = check_triangle_identities("j-ext", space)
    assert len(laws) == 2 and all(law.ok for law in laws)
    path = tmp_path / "space13.json"
    save_space(space, path)
    assert main(["adjunction-test", "j-ext", "--in", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_triangle_identities_on_nonspatial_systems():
    system = generate_nonspatial_system(CFG, 4)
    assert all(law.ok for law in check_triangle_identities("j-ext", system))
    assert all(law.ok for law in check_triangle_identities("fm-s", system))


@pytest.mark.parametrize("seed", range(5))
def test_naturality_squares(seed):
    cfg = GeneratorConfig(seed=seed)
    f, source, target = generate_random_continuous_map(cfg, 3, max_opens=5)
    assert all(law.ok for law in check_naturality("j-ext", (f, source, target)))
    m = j_morphism(f, source, target)
    assert all(law.ok for law in check_naturality("j-ext", m))
    values = GradeSet.closure(set(m.source.sat.values()) | set(m.target.sat.values()))
    assert all(law.ok for law in check_naturality("fm-s", m, values))
    assert all(law.ok for law in check_naturality("fm-s", fm_morphism(m), values))


def test_functoriality_of_hom_systems_on_composites():
    chain3 = chain_frame([ZERO, HALF, ONE])
    chain2 = chain_frame([ZERO, ONE])
    up = FrameHom(chain3, chain2, {ZERO: ZERO, HALF: ONE, ONE: ONE})
    embed = FrameHom(chain2, chain3, {ZERO: ZERO, ONE: ONE})
    values = GradeSet.closure([HALF])
    homs3, homs2 = s_object(chain3, values), s_object(chain2, values)
    lifted_id = s_morphism(FrameHom.identity(chain3), homs3, homs3)
    assert is_identity_system_morphism(lifted_id)
    # contravariance: lifting a composed hom composes the lifts backwards
    from graded_topos.frames import compose_frame_hom
    from graded_topos.systems import compose_system_morphisms
    composite = compose_frame_hom(up, embed)  # chain3 -> chain3 through chain2
    direct = s_morphism(composite, homs3, homs3)
    stacked = compose_system_morphisms(s_morphism(embed, homs3, homs2),
                                       s_morphism(up, homs2, homs3))
    assert check_system_morphism(direct) is None
    assert system_morphisms_equal(direct, stacked)


def test_fm_s_triangles_on_the_two_chain():
    """The single-hom instance: the two-element chain with grades {0, 1}."""
    frame = chain_frame([ZERO, ONE])
    values = GradeSet.closure([])
    laws = check_triangle_identities("fm-s", frame, values)
    assert all(law.ok for law in laws)
    assert len(s_object(frame, values).points) == 1


@pytest.fixture
def frame_builds(monkeypatch):
    """The space of every `frame_from_space` call the functors make."""
    calls = []

    def counted(space):
        calls.append(space)
        return frame_from_space(space)

    monkeypatch.setattr(functors, "frame_from_space", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_each_object_functor_keeps_one_object_per_input(seed):
    space = small_space(seed, max_opens=5)
    system = j_object(space)
    frame, values = system.frame, GradeSet.for_system(system)
    hom_system = s_object(frame, values)
    assert j_object(space) is system and ext_object(system) is ext_object(system)
    assert s_object(frame, values) is hom_system and ext_object(hom_system) is ext_object(hom_system)
    assert enumerate_point_homs(frame, values) == list(hom_system.points.elements)
    # a counit's source is j of its target's extent space; the counit is new
    assert counit(hom_system).source is j_object(ext_object(hom_system))
    assert counit(hom_system) is not counit(hom_system)
    # a lifted map is new, between the systems its spaces keep
    identity = PointMap.identity(space.universe)
    lifted = j_morphism(identity, space, space)
    assert lifted is not j_morphism(identity, space, space)
    assert lifted.source is lifted.target is system and check_system_morphism(lifted) is None
    # an equal space built anew keeps its own system, equal to this one
    twin = GradedSpace(space.universe, space.opens)
    assert j_object(twin) is not system and j_object(twin).rows == system.rows
    to_twin = j_morphism(identity, space, twin)
    assert to_twin.source is system and to_twin.target is j_object(twin)


@pytest.mark.parametrize("seed", range(4))
def test_a_law_check_run_again_builds_no_frame_and_searches_nothing(seed, searches, frame_builds):
    space = small_space(seed, max_opens=5)
    system = j_object(space)
    frame, values = system.frame, GradeSet.for_system(system)
    morphism = j_morphism(PointMap.identity(space.universe), space, space)
    searches.clear()
    frame_builds.clear()
    runs = (lambda: check_triangle_identities("composite", space, values),
            lambda: check_triangle_identities("composite", frame, values),
            lambda: check_triangle_identities("fm-s", frame, values),
            lambda: check_triangle_identities("fm-s", system, values),
            lambda: check_triangle_identities("j-ext", space),
            lambda: check_naturality("fm-s", FrameHom.identity(frame), values),
            lambda: check_naturality("fm-s", morphism, values),
            lambda: check_naturality("j-ext", morphism))
    for i, run in enumerate(runs):
        first = run()
        assert all(law.ok for law in first)
        if i == 0:  # S(frame) and S of its extent space's frame, built here
            assert [f for f, _ in searches] == [frame, frame_builds[0]._frame]
            assert len(frame_builds) == 1
        searches.clear()
        frame_builds.clear()
        assert run() == first
        assert searches == [] and frame_builds == []


# the slot each object functor keeps its object in, on its input; s_object
# reads enumerate_point_homs's
SLOTS = {"frame_from_space": "_frame", "j_object": "_system", "ext_object": "_space",
         "enumerate_point_homs": "_homs"}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("wrong_unit", [False, True])
def test_clearing_every_slot_before_each_functor_call_changes_no_report(seed, wrong_unit, monkeypatch, searches):
    """The adjunction suite's triangle and naturality reports, and its own,
    are the same when each functor call builds its object anew as when the
    functors keep what they build; also with units that swap their points'
    rows, which fail some laws."""
    import graded_topos.suites as suites
    if wrong_unit:
        _swap_rows(monkeypatch)
    laws = []
    for name in ("check_triangle_identities", "check_naturality"):
        def recorded(*args, _check=getattr(functors, name)):
            try:
                laws.append(_check(*args))
            except NotContinuous as exc:  # a swapped unit need not lift
                laws.append(repr(exc))
                return ()
            return laws[-1]

        monkeypatch.setattr(suites, name, recorded)

    def reports():
        laws.clear()
        suite = run_suite("adjunction", GeneratorConfig(seed=seed))
        return [(r.subject, r.status, r.witnesses, r.instances) for r in suite], list(laws)

    kept = reports()
    kept_searches = len(searches)
    for name, slot in SLOTS.items():
        def cleared(value, *args, _build=getattr(functors, name), _slot=slot):
            object.__setattr__(value, _slot, None)
            return _build(value, *args)

        monkeypatch.setattr(functors, name, cleared)
        if hasattr(suites, name):
            monkeypatch.setattr(suites, name, cleared)
    assert reports() == kept
    assert len(searches) - kept_searches > kept_searches  # S searches on each call
    assert len(kept[1]) == 250  # 50 spaces and maps, 25 frames and maps, 25 spaces
    failed = [laws for laws in kept[1] if isinstance(laws, str) or not all(law.ok for law in laws)]
    assert bool(failed) == wrong_unit


def test_a_wrong_unit_row_fails_the_fm_s_and_composite_triangles(monkeypatch):
    """Shared structures must not make a triangle hold by construction: the
    discrete two-point space has exactly two homs into {0, 1}, and a unit
    that swaps them is a valid morphism but not the unit."""
    import graded_topos.functors as functors
    u = Universe.of("x1", "x2")
    space = generate_topology(u, [FuzzySet(u, (ONE, ZERO)), FuzzySet(u, (ZERO, ONE))])
    frame, values = frame_from_space(space), GradeSet.closure([])
    instances = (("fm-s", frame), ("composite", space), ("composite", frame))
    for adjunction, instance in instances:
        assert all(law.ok for law in check_triangle_identities(adjunction, instance, values))
    _swap_rows(monkeypatch)
    for adjunction, instance in instances:
        laws = check_triangle_identities(adjunction, instance, values)
        assert [law.ok for law in laws] == ([True, False] if adjunction == "fm-s"
                                            else [False, False])


def _swap_rows(monkeypatch):
    """Make every unit send a point to the next point's satisfaction row."""
    rows = functors.unit_rows

    def swapped(system):
        own = rows(system)
        return own[1:] + own[:1]

    monkeypatch.setattr(functors, "unit_rows", swapped)


def _composite_instances(seed: int):
    """The composite-triangle instances of the adjunction suite at its default size."""
    cfg = GeneratorConfig(seed=seed)
    for i in range(DEFAULT_INSTANCES["adjunction"] // 2):
        yield i, generate_random_space(cfg, i + 2100, max_opens=min(5, cfg.max_carrier))


_MOVED_ROW = (
    "continuity: preimage of an open violated at preimage of {"
    + ", ".join(
        "PointHom(carrier=(FuzzySet(universe=Universe(elements=('x1', 'x2')), grades=(Fraction(0, 1), "
        "Fraction(0, 1))), FuzzySet(universe=Universe(elements=('x1', 'x2')), grades=(Fraction(1, 1), "
        "Fraction(0, 1))), FuzzySet(universe=Universe(elements=('x1', 'x2')), grades=(Fraction(1, 1), "
        f"Fraction(1, 1)))), values=(Fraction(0, 1), Fraction({middle}, 1), Fraction(1, 1))): '{middle}'"
        for middle in (0, 1))
    + "} is not an open of the source")


def test_a_wrong_unit_that_moves_a_row_fails_the_composite_triangle_at_the_space(monkeypatch):
    """`j_morphism` refuses to lift a unit that is not continuous; the check
    reports that as the failed law instead of raising."""
    _swap_rows(monkeypatch)
    failed, moved = [], []
    for seed in range(3):
        for i, space in _composite_instances(seed):
            system = j_object(space)
            at_space, _ = check_triangle_identities("composite", space, GradeSet.for_system(system))
            assert at_space.name == "composite triangle at the space"
            if not at_space.ok:
                failed.append((seed, i))
            if len(set(system.rows)) > 1:
                moved.append((seed, i))
            if (seed, i) == (0, 19):
                assert at_space.detail == _MOVED_ROW
    assert failed == moved and len(failed) == 52


def _precompose_with_the_top(monkeypatch):
    """Make `s_morphism` precompose with the map of every element to the
    top, which takes each hom to the constant 1, no hom."""
    precompose = functors.s_morphism

    def wrong(h, source, target):
        return precompose(FrameHom(h.source, h.target, dict.fromkeys(h.source.carrier, h.target.top)),
                          source, target)

    monkeypatch.setattr(functors, "s_morphism", wrong)


@pytest.mark.parametrize("seed", range(3))
def test_a_wrong_precomposition_fails_the_fm_s_laws_that_use_it(seed, monkeypatch):
    cfg = GeneratorConfig(seed=seed)
    _precompose_with_the_top(monkeypatch)
    left = "precomposition left the enumerated hom set"
    for i in range(DEFAULT_INSTANCES["adjunction"] // 2):
        space = generate_random_space(cfg, i + 900, max_opens=min(5, cfg.max_carrier))
        frame, values = j_object(space).frame, GradeSet.for_system(j_object(space))
        at_system, at_frame = check_triangle_identities("fm-s", frame, values)
        assert at_system.ok and (at_frame.ok, at_frame.detail) == (False, left)
        assert check_triangle_identities("composite", frame, values)[1] == LawReport(
            "composite triangle at the frame", False, left)
        f, source, target = generate_random_continuous_map(cfg, i + 1300, max_opens=min(5, cfg.max_carrier))
        m = j_morphism(f, source, target)
        m_values = GradeSet.closure(itertools.chain(*m.source.rows, *m.target.rows))
        assert check_naturality("fm-s", m, m_values) == (LawReport("fm-s unit square", False, left),)
        assert check_naturality("fm-s", m.frame_hom, m_values) == (LawReport("fm-s counit square", False, left),)


def test_a_refusal_on_an_input_that_fails_its_checker_is_still_raised():
    u = Universe.of("x1", "x2")
    discrete = generate_topology(u, [FuzzySet(u, (ONE, ZERO)), FuzzySet(u, (ZERO, ONE))])
    indiscrete = generate_topology(u, [])
    swap = PointMap(u, u, ("x2", "x1"))
    assert check_continuous(PointMap.identity(u), indiscrete, discrete) is not None
    with pytest.raises(NotContinuous):
        check_naturality("j-ext", (PointMap.identity(u), indiscrete, discrete))
    assert check_naturality("j-ext", (swap, discrete, discrete))[0].ok
    # a map of every element to the top is no hom; precomposing with it leaves the hom set
    frame = frame_from_space(discrete)
    to_top = FrameHom(frame, frame, dict.fromkeys(frame.carrier, frame.top))
    assert check_frame_hom(to_top) is not None
    with pytest.raises(NoPoints, match="precomposition left the enumerated hom set"):
        check_naturality("fm-s", to_top, GradeSet.closure([]))
    with pytest.raises(GradeSetTooSmall):
        check_triangle_identities("fm-s", j_object(generate_random_space(GeneratorConfig(seed=0), 0)),
                                  GradeSet.closure([]))


def test_the_adjunction_suite_exits_1_on_a_wrong_unit_and_names_the_law(monkeypatch, capsys):
    _swap_rows(monkeypatch)
    assert main(["suite", "adjunction", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    composite = next(json.loads(line) for line in out.splitlines()
                     if json.loads(line)["subject"] == "adjunction/Theorem 3.25g composite triangles")
    assert composite["status"] == "fail"
    assert composite["witnesses"][0][0].endswith(": composite triangle at the space")
    assert "FAIL adjunction/Theorem 3.25g composite triangles" in err


def _frame_homs(seed: int) -> list[FrameHom]:
    """Frame homs of every kind the package builds: enumerated homs as frame
    homs, lifted maps, counits, composites, identities and inverses, and two
    maps of a frame to itself (its carrier reversed, and all to the top)."""
    cfg = GeneratorConfig(seed=seed)
    homs = []
    for index in range(3):
        f, g, first, middle, last = generate_continuous_chain(cfg, index, max_opens=6)
        hf, hg = j_morphism(f, first, middle).frame_hom, j_morphism(g, middle, last).frame_hom
        system = j_object(first)
        frame, values = system.frame, GradeSet.for_system(system)
        chain = chain_frame(values.grades)
        homs += [p.as_frame_hom(frame, chain) for p in enumerate_point_homs(frame, values)]
        homs += [hf, hg, compose_frame_hom(hg, hf), counit(system).frame_hom]
        homs += [FrameHom.identity(h.source) for h in (hf, hg)]
        homs += [FrameHom(frame, frame, dict(zip(frame.carrier, reversed(frame.carrier)))),
                 FrameHom(frame, frame, dict.fromkeys(frame.carrier, frame.top))]
    return homs + [h.inverse() for h in homs if h.is_bijective()]


@pytest.mark.parametrize("seed", range(4))
def test_a_frame_hom_keeps_its_images_target_positions(seed):
    homs = _frame_homs(seed)
    for h in homs:
        assert list(h._image) == [h.target.view.index[h.map[a]] for a in h.source.carrier]
        assert h.is_bijective() == brute_is_bijective(h)
        assert is_identity_frame_hom(h) == brute_is_identity_frame_hom(h)
    pairs = [(f, g) for f in homs for g in homs]
    assert all(frame_homs_equal(f, g) == brute_frame_homs_equal(f, g) for f, g in pairs)
    # both verdicts of each predicate occur
    assert {h.is_bijective() for h in homs} == {is_identity_frame_hom(h) for h in homs} == {True, False}
    assert {frame_homs_equal(f, g) for f, g in pairs} == {True, False}
    assert any(frame_homs_equal(f, g) for f, g in pairs if f is not g)


def _hom_systems_with_narrower_extent_spaces():
    """Hom-systems into {0, 1} over frames with grades 1/3 and 2/3, whose
    extent spaces rank in fewer grades than their extents."""
    cfg = GeneratorConfig(seed=3, grade_pool=GradeSet.closure([F(1, 3), F(2, 3)]), max_generators=4)
    for index in range(6):
        frame = frame_from_space(generate_random_space(cfg, index, max_opens=6))
        yield s_object(frame, GradeSet.closure([]))


@pytest.mark.parametrize("seed", range(4))
def test_frame_homs_built_from_positions_are_the_checked_maps(seed):
    """Each frame hom the package builds from target positions (identities,
    inverses, composites, counits and enumerated homs into a chain) is the
    hom the public constructor builds, with its checks, from the map's
    definition; counits also where the extent space ranks in fewer grades."""
    cfg = GeneratorConfig(seed=seed)
    built = []
    for index in range(3):
        f, g, first, middle, last = generate_continuous_chain(cfg, index, max_opens=6)
        hf, hg = j_morphism(f, first, middle).frame_hom, j_morphism(g, middle, last).frame_hom
        system = j_object(first)
        frame, values = system.frame, GradeSet.for_system(system)
        chain, hom_system = chain_frame(values.grades), s_object(frame, values)
        built += [(p.as_frame_hom(frame, chain), dict(zip(p.carrier, p.values)))
                  for p in hom_system.points.elements]
        built += [(counit(s).frame_hom, {a: ext_column(s, a) for a in s.frame.carrier})
                  for s in (system, hom_system)]
        built += [(compose_frame_hom(hg, hf), {a: hf.map[hg.map[a]] for a in hg.source.carrier}),
                  (FrameHom.identity(frame), {a: a for a in frame.carrier})]
        cycle = FrameHom(frame, frame, dict(zip(frame.carrier, frame.carrier[1:] + frame.carrier[:1])))
        built += [(h.inverse(), {b: a for a, b in h.map.items()})
                  for h in (hf, hg, counit(system).frame_hom, cycle) if h.is_bijective()]
    narrower = list(_hom_systems_with_narrower_extent_spaces())
    assert any(len(ext_object(s).ranked[0].grades) < len(s.extents[0].grades) for s in narrower)
    built += [(counit(s).frame_hom, {a: ext_column(s, a) for a in s.frame.carrier}) for s in narrower]
    assert any(not h.is_bijective() for h, _ in built) and any(h.is_bijective() for h, _ in built)
    for h, definition in built:
        checked = FrameHom(h.source, h.target, definition)
        assert h._image == checked._image and h.map == checked.map == definition


def test_a_point_hom_outside_its_chain_or_carrier_goes_through_the_checks():
    space = small_space(1, max_opens=5)
    frame = frame_from_space(space)
    values = GradeSet.for_frame(frame)
    chain = chain_frame(values.grades)
    p = enumerate_point_homs(frame, values)[0]
    # equal grades held in other objects, and the carrier in another order
    twin = PointHom(p.carrier, tuple(F(g.numerator, g.denominator) for g in p.values))
    flipped = PointHom(p.carrier[::-1], p.values[::-1])
    for q in (twin, flipped):
        assert q.as_frame_hom(frame, chain)._image == p.as_frame_hom(frame, chain)._image
    with pytest.raises(SchemaError, match="outside the target carrier"):
        PointHom(p.carrier, p.values[:-1] + (F(1, 7),)).as_frame_hom(frame, chain)
    with pytest.raises(SchemaError, match="outside the target carrier"):
        PointHom(p.carrier, p.values[:-1] + (F(3, 2),)).as_frame_hom(frame, chain)
    with pytest.raises(SchemaError, match="missing image"):
        PointHom(p.carrier[:-1], p.values[:-1]).as_frame_hom(frame, chain)


@pytest.mark.parametrize("seed", range(3))
def test_law_builders_hash_no_grade_once_their_objects_are_kept(seed):
    """Once a frame's hom-system and the objects its laws read are kept,
    counits, units, the fm-s and composite triangles, and enumerated homs
    checked as frame homs into a chain hash no grade: every frame hom, row
    and extent they build comes from positions and hashes already held."""
    space = small_space(seed, max_opens=5)
    system = j_object(space)
    frame, values = system.frame, GradeSet.for_system(system)
    hom_system, chain = s_object(frame, values), chain_frame(values.grades)
    runs = (lambda: [counit(hom_system), counit(system)],
            lambda: [unit_system(system, hom_system), unit_system(hom_system, hom_system)],
            lambda: check_triangle_identities("fm-s", frame, values),
            lambda: check_triangle_identities("composite", space, values),
            lambda: check_triangle_identities("composite", frame, values),
            lambda: [check_frame_hom(p.as_frame_hom(frame, chain)) for p in hom_system.points.elements])
    first = [run() for run in runs]
    with counted_fraction_hashes() as calls:
        again = [run() for run in runs]
    assert calls[0] == 0
    assert all(law.ok for laws in first[2:5] + again[2:5] for law in laws)
    assert first[2:] == again[2:] and set(first[5]) == {None}


def test_projection_functors_preserve_identity_and_composition():
    cfg = GeneratorConfig(seed=21)
    from graded_topos.generators import generate_continuous_chain
    from graded_topos.fuzzy_sets import compose_point_maps
    from graded_topos.systems import compose_system_morphisms
    f, g, first, middle, last = generate_continuous_chain(cfg, 0, max_opens=5)
    mf = j_morphism(f, first, middle)
    mg = j_morphism(g, middle, last)
    composite = compose_system_morphisms(mf, mg)
    assert ext_morphism(composite) == compose_point_maps(ext_morphism(mf), ext_morphism(mg))
    ident = j_morphism(PointMap.identity(first.universe), first, first)
    assert ext_morphism(ident) == PointMap.identity(first.universe)


def test_system_morphism_composition_is_associative():
    cfg = GeneratorConfig(seed=23)
    from graded_topos.generators import generate_continuous_chain
    from graded_topos.systems import compose_system_morphisms
    f, g, first, middle, last = generate_continuous_chain(cfg, 1, max_opens=5)
    # extend the chain with one more pulled-back leg in front
    import random
    rng = random.Random(99)
    head = Universe(("w1", "w2"))
    h = PointMap(head, first.universe,
                 tuple(rng.choice(first.universe.elements) for _ in head.elements))
    front = generate_topology(head, [preimage(h, t) for t in first.opens])
    m1 = j_morphism(h, front, first)
    m2 = j_morphism(f, first, middle)
    m3 = j_morphism(g, middle, last)
    left = compose_system_morphisms(compose_system_morphisms(m1, m2), m3)
    right = compose_system_morphisms(m1, compose_system_morphisms(m2, m3))
    assert system_morphisms_equal(left, right)
    assert check_system_morphism(left) is None


def test_point_hom_call_and_validation():
    hom = PointHom(("a", "b"), (ZERO, ONE))
    assert hom("a") == ZERO and hom("b") == ONE
    with pytest.raises(SchemaError):
        PointHom(("a",), (ZERO, ONE))


def _hash_contract_holds(p):
    rebuilt = PointHom(p.carrier, p.values)
    return (p == rebuilt and hash(p) == hash(rebuilt) == hash((p.carrier, p.values))
            and ZERO in p.values and ONE in p.values)


def test_homs_hash_as_their_carrier_and_values():
    """Enumerated and precomposed homs are built from hashes already known;
    each equals, and hashes as, the hom the public constructor builds from
    its carrier and values. So no dict or set of homs changes order."""
    grade_sets = (GradeSet.closure([]), QUARTERS, GradeSet.closure([F(1, 3), F(2, 3)]))
    frames = [frame for _, frame in _generated_frames(max_opens=5)]
    homs = collections.Counter()
    for kind, some in (("valid", frames[::4]), ("invalid", _mutated_table_frames(40, seed=13))):
        for frame in some:
            for values in (GradeSet.for_frame(frame),) + grade_sets:
                found = enumerate_point_homs(frame, values)
                assert all(_hash_contract_holds(p) for p in found)
                homs[kind] += len(found)
    for seed in range(12):
        f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), seed,
                                                           max_opens=5)
        h = j_morphism(f, source, target).frame_hom
        own = GradeSet.closure(set(h.source.view.grades) | set(h.target.view.grades))
        for values in (own,) + grade_sets:
            lifted = s_morphism(h, s_object(h.target, values), s_object(h.source, values))
            assert all(_hash_contract_holds(p) for p in lifted.point_map.images)
            homs["precomposed"] += len(lifted.point_map.images)
    assert min(homs.values()) >= 20, homs


def test_a_search_hashes_its_carrier_once_and_its_homs_as_their_carrier_and_values(monkeypatch):
    """A search over a frame of opens hashes each open once, however many
    homs it finds, and each hom hashes as hash((carrier, values)) and as the
    public constructor's hom; also where the carrier's hash h has
    hash(h) != h, so pairing h itself with the values would hash otherwise."""
    calls = collections.Counter()
    _count_calls(monkeypatch, FuzzySet, "__hash__", calls)
    unreduced = found = 0
    for _, frame in itertools.islice(_generated_frames(max_opens=6), 0, None, 3):
        calls.clear()
        homs = enumerate_point_homs(frame, GradeSet.for_frame(frame))
        assert calls["FuzzySet.__hash__"] == len(frame.carrier)
        assert all(_hash_contract_holds(p) for p in homs)
        unreduced += hash(hash(frame.carrier)) != hash(frame.carrier)
        found += len(homs)
    assert unreduced >= 3 and found >= 50, (unreduced, found)


# --- brute-force hom-set bijections ------------------------------------------
# The adjunctions' defining property, checked directly on small instances:
# enumerate every morphism on both sides and exhibit the transpose bijection.

def _all_system_morphisms(source, target):
    """Every valid system morphism, by filtering all (point map, frame map)
    pairs."""
    found = []
    point_choices = itertools.product(target.points.elements,
                                      repeat=len(source.points))
    frame_maps = list(itertools.product(source.frame.carrier,
                                        repeat=len(target.frame.carrier)))
    for images in point_choices:
        pm = PointMap(source.points, target.points, images)
        for frame_images in frame_maps:
            hom = FrameHom(target.frame, source.frame,
                           dict(zip(target.frame.carrier, frame_images)))
            m = SystemMorphism(source, target, pm, hom)
            if check_system_morphism(m) is None:
                found.append(m)
    return found


def _all_continuous_maps(source, target):
    found = []
    for images in itertools.product(target.universe.elements,
                                    repeat=len(source.universe)):
        pm = PointMap(source.universe, target.universe, images)
        if check_continuous(pm, source, target) is None:
            found.append(pm)
    return found


def test_membership_extent_hom_sets_are_in_bijection():
    u = Universe.of("x1", "x2")
    space = generate_topology(u, [FuzzySet(u, (HALF, ZERO))])
    target = generate_nonspatial_system(GeneratorConfig(seed=41), 0)
    lifted = j_object(space)
    system_side = _all_system_morphisms(lifted, target)
    space_side = _all_continuous_maps(space, ext_object(target))
    assert len(system_side) == len(space_side)
    # the projection m -> point component is the bijection
    projected = {m.point_map for m in system_side}
    assert len(projected) == len(system_side)
    assert projected == set(space_side)


def test_frame_hom_sets_match_hom_system_morphisms():
    u = Universe.of("x1")
    space = generate_topology(u, [FuzzySet(u, (HALF,))])
    system = j_object(space)
    values = GradeSet.for_system(system)
    chain2 = chain_frame([ZERO, ONE])
    hom_target = s_object(chain2, values)
    # frame homs chain2 -> system.frame against system morphisms into S(chain2)
    frame_side = []
    for images in itertools.product(system.frame.carrier, repeat=len(chain2.carrier)):
        hom = FrameHom(chain2, system.frame, dict(zip(chain2.carrier, images)))
        if check_frame_hom(hom) is None:
            frame_side.append(hom)
    system_side = _all_system_morphisms(system, hom_target)
    assert len(frame_side) == len(system_side)
    # the projection m -> frame component is the bijection
    projected = {tuple(sorted(m.frame_hom.map.items(), key=str)) for m in system_side}
    assert len(projected) == len(system_side)
    assert projected == {tuple(sorted(h.map.items(), key=str)) for h in frame_side}
