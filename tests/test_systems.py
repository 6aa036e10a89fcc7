import collections
import itertools
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import brute_system_violation, crisp_chain
from graded_topos import systems
from graded_topos.checks import Violation
from graded_topos.errors import MixedStructure, SchemaError
from graded_topos.frames import FrameHom, GradedFrame, chain_frame, check_frame, check_frame_hom
from graded_topos.functors import GradeSet, j_morphism, j_object, s_object
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_nonspatial_system,
    generate_random_continuous_map,
    generate_random_space,
    generate_random_system,
)
from graded_topos.grades import ONE, ZERO
from graded_topos.ranks import ranks_of
from graded_topos.serialization import load_space, load_system
from graded_topos.systems import (
    GradedSystem,
    SystemMorphism,
    check_spatial,
    check_system,
    check_system_morphism,
    compose_system_morphisms,
    system_iso_check,
)

CFG = GeneratorConfig(seed=5)
FIXTURES = Path(__file__).parent / "fixtures"


def chain_system(*grades):
    """One point over the 3-chain frame with the given satisfaction row."""
    frame = chain_frame([ZERO, F(1, 2), ONE])
    points = Universe.of("x1")
    sat = {("x1", a): g for a, g in zip(frame.carrier, grades)}
    return GradedSystem.from_table(points, frame, sat)


@pytest.mark.parametrize("seed", range(10))
def test_membership_systems_are_valid_by_both_routes(seed):
    space = generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=6)
    system = j_object(space)
    assert check_system(system) is None
    assert brute_system_violation(system) is None


def test_empty_or_partial_points_are_rejected():
    # an empty point set already fails at the universe level
    with pytest.raises(SchemaError):
        Universe(())
    frame = chain_frame([ZERO, ONE])
    with pytest.raises(SchemaError):
        # a missing satisfaction entry is structural
        GradedSystem.from_table(Universe.of("x1"), frame, {})


def test_top_grade_below_one_is_clause_2():
    bad = check_system(chain_system(ZERO, ZERO, F(1, 2)))
    assert isinstance(bad, Violation)
    assert bad.clause == "clause 2"


def test_relation_transport_failure_is_clause_1():
    # sat(x, 1) = 1 and R(1, 1/2) = 1/2 force sat(x, 1/2) >= 1/2
    bad = check_system(chain_system(ZERO, ZERO, ONE))
    assert isinstance(bad, Violation)
    assert bad.clause == "clause 1"


def test_bottom_grade_above_zero_is_clause_3():
    bad = check_system(chain_system(F(1, 2), F(1, 2), ONE))
    assert isinstance(bad, Violation)
    assert bad.clause == "clause 3"


def test_valid_chain_row_passes():
    assert check_system(chain_system(ZERO, F(1, 2), ONE)) is None
    assert brute_system_violation(chain_system(ZERO, F(1, 2), ONE)) is None


def test_a_pair_join_outside_the_carrier_is_clause_3():
    """A frame read off a join function whose pair join leaves the carrier
    (`check_frame` would refuse it at join closure): `check_system` on it
    names that join, before any point's row."""
    carrier = ("bot", "top")
    frame = GradedFrame.from_join_fn(
        carrier, "top", {(a, b): min(a, b) for a in carrier for b in carrier},
        lambda subset: max(subset, default="bot") if len(subset) < 2 else "elsewhere",
        {(a, b): ZERO if (a, b) == ("top", "bot") else ONE for a in carrier for b in carrier})
    system = GradedSystem.from_table(Universe.of("x1"), frame, {("x1", "bot"): ZERO, ("x1", "top"): ONE})
    bad = check_system(system)
    assert bad == Violation("system", "clause 3", "join of mask 11 is outside the carrier")


def test_generator_invalid_flag_breaks_clause_2():
    bad = check_system(generate_random_system(CFG, 3, invalid=True))
    assert isinstance(bad, Violation)
    assert bad.clause == "clause 2"


def test_spatiality_of_membership_systems():
    space = generate_random_space(CFG, 1, max_opens=8)
    spatial, pair = check_spatial(j_object(space))
    assert spatial and pair is None


def test_duplicate_columns_are_reported():
    system = chain_system(ZERO, ONE, ONE)
    assert check_system(system) is None
    spatial, pair = check_spatial(system)
    assert not spatial
    assert pair == (F(1, 2), ONE)


def test_single_element_carrier_is_vacuously_spatial():
    from graded_topos.frames import GradedFrame
    solo = GradedFrame.from_tables(("a",), "a", {("a", "a"): "a"},
                                   {frozenset(): "a", frozenset("a"): "a"},
                                   {("a", "a"): ONE})
    vacuous = GradedSystem.from_table(Universe.of("x1"), solo, {("x1", "a"): ONE})
    assert check_spatial(vacuous) == (True, None)


def test_identity_morphism_is_valid():
    system = j_object(generate_random_space(CFG, 2, max_opens=6))
    assert check_system_morphism(SystemMorphism.identity(system)) is None


def test_morphism_continuity_violation_carries_a_witness():
    system = j_object(generate_random_space(CFG, 4, max_opens=6))
    ident = SystemMorphism.identity(system)
    # perturb one satisfaction entry on a copy of the target
    sat = dict(system.sat)
    x = system.points.elements[0]
    a = system.frame.bottom
    sat[(x, a)] = ONE if sat[(x, a)] == ZERO else ZERO
    twisted = GradedSystem.from_table(system.points, system.frame, sat)
    m = SystemMorphism(system, twisted, PointMap.identity(system.points),
                       FrameHom.identity(system.frame))
    bad = check_system_morphism(m)
    assert isinstance(bad, Violation)
    assert bad.clause == "clause (iii)"


def test_morphism_endpoints_are_validated():
    s1 = j_object(generate_random_space(CFG, 5, max_opens=4))
    s2 = j_object(generate_random_space(CFG, 6, max_opens=4))
    if s1.points != s2.points or len(s1.frame.carrier) == len(s2.frame.carrier):
        with pytest.raises(MixedStructure):
            SystemMorphism(s1, s2, PointMap.identity(s1.points), FrameHom.identity(s1.frame))


def test_a_morphism_needs_its_point_map_between_the_systems_points():
    """The point map's universes must equal the systems' points, held in the
    same object or not."""
    system = j_object(generate_random_space(CFG, 2, max_opens=6))
    points, ident = system.points, FrameHom.identity(system.frame)
    twin = Universe(tuple(points.elements))
    other = Universe(tuple(points.elements) + ("extra",))
    assert twin is not points
    SystemMorphism(system, system, PointMap(twin, twin, twin.elements), ident)
    for pm in (PointMap(other, points, points.elements + points.elements[:1]),
               PointMap(points, other, points.elements)):
        with pytest.raises(MixedStructure, match="point map endpoints"):
            SystemMorphism(system, system, pm, ident)


@pytest.mark.parametrize("seed", range(5))
def test_composition_and_associativity(seed):
    f, g, first, middle, last = generate_continuous_chain(GeneratorConfig(seed=seed), 0,
                                                          max_opens=6)
    mf = j_morphism(f, first, middle)
    mg = j_morphism(g, middle, last)
    composite = compose_system_morphisms(mf, mg)
    assert check_system_morphism(composite) is None
    ident = SystemMorphism.identity(mf.source)
    left = compose_system_morphisms(ident, mf)
    assert left.point_map == mf.point_map
    assert dict(left.frame_hom.map) == dict(mf.frame_hom.map)


def test_iso_check_accepts_identity_and_rejects_collapses():
    system = j_object(generate_random_space(CFG, 7, max_opens=6))
    assert system_iso_check(SystemMorphism.identity(system))
    nonspatial = generate_nonspatial_system(CFG, 0)
    assert check_system(nonspatial) is None
    from graded_topos.functors import counit
    assert not system_iso_check(counit(nonspatial))


def test_iso_check_rejects_a_bijection_whose_inverse_is_no_morphism():
    """The crisp 3-chain maps onto the Goedel chain on {0, 1/2, 1} by a
    bijective frame hom; with one point of row (0, 1/2, 1) on each side,
    both components of the morphism are bijective and it passes its
    checker. Its inverse pair is no morphism: the chain's relation 1/2 at
    (1, 1/2) would have to shrink to the crisp 0."""
    godel, crisp = chain_frame([ZERO, F(1, 2), ONE]), crisp_chain(3)
    source = GradedSystem.from_table(Universe.of("x1"), godel, {("x1", g): g for g in godel.carrier})
    target = GradedSystem.from_table(Universe.of("x1"), crisp,
                                     {("x1", c): g for c, g in zip(crisp.carrier, godel.carrier)})
    m = SystemMorphism(source, target, PointMap(source.points, target.points, ("x1",)),
                       FrameHom(crisp, godel, dict(zip(crisp.carrier, godel.carrier))))
    assert check_system(source) is None and check_system(target) is None
    assert check_system_morphism(m) is None
    assert m.point_map.is_bijective() and m.frame_hom.is_bijective()
    assert check_frame_hom(m.frame_hom.inverse()).clause == "clause (iii)"
    assert not system_iso_check(m)


# --- the stored form: rows aligned with the frame carrier ---------------------

def test_from_table_names_the_first_missing_entry():
    frame = chain_frame([ZERO, F(1, 2), ONE])
    table = {("x1", ZERO): ZERO, ("x1", ONE): ONE}
    with pytest.raises(SchemaError, match=r"^sat: missing entry for \('x1', Fraction\(1, 2\)\)$"):
        GradedSystem.from_table(Universe.of("x1"), frame, table)


def test_sat_is_a_read_only_decoding_of_the_rows():
    frame = chain_frame([ZERO, F(1, 2), ONE])
    table = {(x, a): g for x, row in (("x1", (ZERO, F(1, 2), ONE)), ("x2", (ZERO, ZERO, ONE)))
             for a, g in zip(frame.carrier, row)}
    system = GradedSystem.from_table(Universe.of("x2", "x1"), frame, table)
    assert system.rows == ((ZERO, ZERO, ONE), (ZERO, F(1, 2), ONE))
    assert dict(system.sat) == table
    with pytest.raises(TypeError):
        system.sat[("x1", ONE)] = ZERO


@pytest.mark.parametrize("rows", [((ZERO, ONE),), ((ZERO, ONE), (ONE,)), ((ZERO, ONE), (ZERO, ONE, ONE))])
def test_rows_must_match_the_points_and_the_carrier(rows):
    with pytest.raises(SchemaError, match="^rows: "):
        GradedSystem(Universe.of("x1", "x2"), chain_frame([ZERO, ONE]), rows)


@pytest.mark.parametrize("seed", range(5))
def test_membership_rows_are_the_opens_grades_transposed(seed):
    space = generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=8)
    system = j_object(space)
    assert system.frame.carrier == space.opens
    assert system.rows == tuple(tuple(t(x) for t in space.opens) for x in space.universe.elements)


@pytest.mark.parametrize("seed", range(5))
def test_hom_system_rows_are_the_homs_values(seed):
    frame = j_object(generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=5)).frame
    system = s_object(frame, GradeSet.for_frame(frame))
    assert system.rows == tuple(p.values for p in system.points.elements)
    assert all(system.sat[(p, a)] == p(a) for p in system.points.elements for a in frame.carrier)


# --- metamorphic relations: point order and grade labels do not matter -------

def _permuted(system, rng):
    """`system` with its points in a random order, rebuilt from its table."""
    order = list(system.points.elements)
    rng.shuffle(order)
    return GradedSystem.from_table(Universe(tuple(order)), system.frame, system.sat)


def _relabelled(system, f):
    """`system` with every relation and satisfaction grade g replaced by f(g)."""
    frame = system.frame
    relation = {k: f(g) for k, g in frame.relation.items()}
    if frame.join_table is None:
        relabelled = GradedFrame.from_join_fn(frame.carrier, frame.top, frame.meet_table,
                                              frame.join_fn, relation)
    else:
        relabelled = GradedFrame.from_masks(frame.carrier, frame.top, frame.meet_table,
                                            {m: frame.carrier[j] for m, j in enumerate(frame.join_table)},
                                            relation)
    return GradedSystem.from_table(system.points, relabelled, {k: f(g) for k, g in system.sat.items()})


def _mutated(system, rng):
    """`system` with one satisfaction entry replaced by another grade."""
    rows = [list(row) for row in system.rows]
    row = rng.choice(rows)
    j = rng.randrange(len(row))
    row[j] = rng.choice([g for g in (ZERO, F(1, 4), F(1, 2), F(3, 4), ONE) if g != row[j]])
    return GradedSystem(system.points, system.frame, tuple(map(tuple, rows)))


# strictly increasing on [0, 1], fixing 0 and 1
MONOTONE = (lambda g: g * g, lambda g: g / (2 - g))


def _metamorphic_instances():
    cfg = GeneratorConfig(seed=11)
    for i in range(6):
        valid = generate_random_system(cfg, i, max_opens=8)
        rng = random.Random(i)
        yield f"generated-{i}", valid
        yield f"top-broken-{i}", generate_random_system(cfg, i, invalid=True, max_opens=8)
        yield f"mutated-{i}", _mutated(valid, rng)
        yield f"mutated-twice-{i}", _mutated(_mutated(valid, rng), rng)
    for i in range(2):
        yield f"nonspatial-{i}", generate_nonspatial_system(cfg, i)
    for path in sorted((FIXTURES / "invalid").glob("system_*.json")) + [FIXTURES / "system_membership.json"]:
        yield path.stem, load_system(path)


INSTANCES = dict(_metamorphic_instances())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_point_order_and_grade_labels_leave_every_verdict(name):
    system = INSTANCES[name]
    assert check_frame(system.frame) is None
    verdict = check_system(system)
    spatial = check_spatial(system)
    identity = check_system_morphism(SystemMorphism.identity(system))
    for seed in range(3):
        other = _permuted(system, random.Random(seed))
        assert (check_system(other) is None) == (verdict is None)
        assert check_spatial(other) == spatial
        assert (check_system_morphism(SystemMorphism.identity(other)) is None) == (identity is None)
        # the same table read through the other point order is the same system
        across = SystemMorphism(system, other, PointMap(system.points, other.points, system.points.elements),
                                FrameHom.identity(system.frame))
        assert check_system_morphism(across) is None
    for f in MONOTONE:
        other = _relabelled(system, f)
        assert check_frame(other.frame) is None
        found = check_system(other)
        assert (found is None) == (verdict is None)
        assert found is None or found.clause == verdict.clause
        assert check_spatial(other) == spatial
        assert (check_system_morphism(SystemMorphism.identity(other)) is None) == (identity is None)


def test_the_metamorphic_instances_fail_some_clause_of_each_kind():
    clauses = {name: check_system(system) for name, system in INSTANCES.items()}
    assert {bad.clause for bad in clauses.values() if bad is not None} == {
        "clause 1", "clause 2", "clause 3"}
    assert any(bad is None for bad in clauses.values())
    assert any(not check_spatial(system)[0] for system in INSTANCES.values())


# --- extents: one int of level cuts per carrier element ----------------------

OUTSIDE = (F(1, 7), F(5, 7))  # grades no generated frame relates by


def point_major(system):
    """`check_system` with both extent tests failing, so the loops over
    every point and instance decide and name the violation."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(systems, "_columns_hold", lambda *args: False)
        patch.setattr(systems, "_joins_hold", lambda *args: False)
        return check_system(system)


def oracle_clause(system):
    """The clause `check_system` names, from the brute-force oracle run at
    each point alone. The checker decides clauses 1 and 2 at every point
    before clause 3, and at a point whose top is not satisfied to 1 it
    names clause 2 where the oracle may meet a failing pair first."""
    top, later = system.frame.view.top, None
    for x, row in zip(system.points.elements, system.rows):
        clause = brute_system_violation(GradedSystem(Universe((x,)), system.frame, (row,)))
        if clause in ("clause 1", "clause 2"):
            return clause if row[top] == ONE else "clause 2"
        later = later or clause
    return later


def with_entries(system, rng, count):
    """`system` with `count` satisfaction entries of one random point
    replaced, each by another grade of the frame's or one outside them."""
    rows = [list(row) for row in system.rows]
    row = rng.choice(rows)
    pool = sorted(set(system.frame.view.grades) | {ZERO, ONE} | set(OUTSIDE))
    for j in rng.sample(range(len(row)), min(count, len(row))):
        row[j] = rng.choice([g for g in pool if g != row[j]])
    return GradedSystem(system.points, system.frame, tuple(map(tuple, rows)))


def table_frames(frame, rng):
    """`frame` rebuilt with its full join table, and, on four or more
    elements, a copy whose join of one subset of three or more members is
    another element, so that the table does not fold on its pairs."""
    items, n = frame.carrier, len(frame)
    table = [frame.join_at(m) for m in range(1 << n)]

    def built(joins):
        return GradedFrame.from_masks(items, frame.top, frame.meet_table,
                                      {m: items[j] for m, j in enumerate(joins)}, frame.relation)

    yield built(table)
    wide = [m for m in range(1 << n) if bin(m).count("1") >= 3]
    if wide:
        m = rng.choice(wide)
        broken = list(table)
        broken[m] = rng.choice([j for j in range(n) if j != table[m]])
        yield built(broken)


def _differential_instances():
    rng = random.Random(22)
    for seed in range(5):
        # up to 5 points, 4 generators and grades in quarters: frames of 2 to 10 elements
        cfg = GeneratorConfig(seed=seed, max_points=5, max_generators=4,
                              grade_pool=GradeSet(tuple(F(k, 4) for k in range(5))))
        for i in range(50):
            valid = generate_random_system(cfg, i, max_opens=3 + i % 8)
            yield valid
            yield with_entries(valid, rng, 1)
            yield with_entries(valid, rng, 2)
            yield generate_random_system(cfg, i, invalid=True, max_opens=3 + i % 8)
            if i % 10 == 0:
                frame = valid.frame
                hom = s_object(frame, GradeSet.for_frame(frame))
                yield hom
                yield with_entries(hom, rng, 1)
            if i % 5 == 0:
                for table in table_frames(valid.frame, rng):
                    on_table = GradedSystem(valid.points, table, valid.rows)
                    yield on_table
                    yield with_entries(on_table, rng, 1)
    for path in sorted((FIXTURES / "invalid").glob("system_*.json")) + [FIXTURES / "system_membership.json"]:
        yield load_system(path)


def test_the_extent_tests_agree_with_the_point_major_loops_and_the_oracle():
    clauses = collections.Counter()
    tables = collections.Counter()
    for system in _differential_instances():
        bad = check_system(system)
        assert bad == point_major(system)
        assert (bad and bad.clause) == oracle_clause(system)
        clauses[bad and bad.clause] += 1
        if system.frame.join_table is not None:
            tables[system.frame.view.folds, bad and bad.clause] += 1
    assert sum(clauses.values()) >= 1000
    assert {None, "clause 1", "clause 2", "clause 3"} <= set(clauses)
    # tables that fold are decided on their pairs, the others on every subset
    assert {(True, None), (False, "clause 3")} <= set(tables)


def test_join_violations_of_a_table_are_named_on_every_subset():
    frame = generate_random_system(GeneratorConfig(seed=3), 1, max_opens=8).frame
    rows = j_object(generate_random_space(GeneratorConfig(seed=3), 1, max_opens=8)).rows
    found = 0
    for table in table_frames(frame, random.Random(4)):
        system = GradedSystem(Universe(tuple(f"x{k + 1}" for k in range(len(rows)))), table, rows)
        bad = check_system(system)
        assert bad == point_major(system)
        if not table.view.folds:
            found += 1
            assert bad.clause == "clause 3" and "subset mask" in bad.witness
    assert found == 1


def _spaces():
    for seed in range(8):
        yield generate_random_space(GeneratorConfig(seed=seed), seed, max_opens=4 + seed)
    for name in ("space_half.json", "space_indiscrete.json"):
        yield load_space(FIXTURES / name)


@pytest.mark.parametrize("space", list(_spaces()), ids=lambda space: f"{len(space)}-opens")
def test_the_extents_of_a_space_system_are_the_extents_its_rows_give(space):
    system = j_object(space)
    built = GradedSystem(system.points, system.frame, system.rows)
    size = len(space.universe)
    columns = list(zip(*system.rows))
    for ranks, extents in (system.extents, built.extents):
        assert [tuple(map(ranks.grades.__getitem__, ranks_of(e, size))) for e in extents] == columns
    assert system.extents[0].grades == built.extents[0].grades
    assert system.extents[1] == built.extents[1]


def test_check_system_ranks_no_grade_of_a_space_system(monkeypatch):
    def refuse(values):
        raise AssertionError("a system of a space was ranked again")

    monkeypatch.setattr(systems, "GradeSet", SimpleNamespace(of=refuse))
    spaces = list(_spaces())
    for space in spaces:
        system = j_object(space)
        assert check_system(system) is None
        assert check_spatial(system) == (True, None)
        GradeSet.for_system(system)
    system = j_object(spaces[0])
    with pytest.raises(AssertionError, match="ranked again"):
        check_system(GradedSystem(system.points, system.frame, system.rows))


def test_the_grade_set_of_a_system_is_its_extents_table():
    rng = random.Random(8)
    cases = [load_system(path) for path in sorted((FIXTURES / "invalid").glob("system_*.json"))]
    cases.append(load_system(FIXTURES / "system_membership.json"))
    for seed in range(6):
        valid = generate_random_system(GeneratorConfig(seed=seed), seed, max_opens=7)
        cases += [valid, with_entries(valid, rng, 2), s_object(valid.frame, GradeSet.for_frame(valid.frame))]
    for system in cases:
        assert GradeSet.for_system(system) is system.extents[0]
        assert GradeSet.for_system(system) == GradeSet.closure(
            itertools.chain(system.frame.view.grades, *system.rows))


def first_equal_columns(system):
    """The first pair of carrier elements, in carrier order, whose
    satisfaction columns are equal: the definition."""
    items, columns = system.frame.carrier, list(zip(*system.rows))
    for later in range(len(items)):
        for earlier in range(later):
            if columns[earlier] == columns[later]:
                return False, (items[earlier], items[later])
    return True, None


def test_check_spatial_names_the_first_pair_with_equal_extents():
    membership = load_system(FIXTURES / "system_membership.json")
    assert check_spatial(membership) == (True, None)
    x1, x2 = (GradedSystem(Universe((x,)), membership.frame, (row,))
              for x, row in zip(membership.points.elements, membership.rows))
    assert check_spatial(x1) == (False, ("e1", "e2"))
    assert check_spatial(x2) == (False, ("e0", "e1"))
    spatial, (earlier, later) = check_spatial(generate_nonspatial_system(GeneratorConfig(seed=5), 2))
    u = Universe(("x1", "x2"))
    assert not spatial
    assert (earlier, later) == (FuzzySet(u, (F(1, 2), ZERO)), FuzzySet(u, (F(1, 2), ONE)))
    rng = random.Random(9)
    for system in list(INSTANCES.values()) + [x1, x2]:
        for x, row in zip(system.points.elements, system.rows):
            single = GradedSystem(Universe((x,)), system.frame, (row,))
            assert check_spatial(single) == first_equal_columns(single)
        assert check_spatial(system) == first_equal_columns(system)
        mutated = with_entries(system, rng, 2)
        assert check_spatial(mutated) == first_equal_columns(mutated)


def point_loop_clause_iii(m: SystemMorphism) -> Violation | None:
    """Clause (iii) by its definition: at each point x in order and each
    target element b, sat(x, h(b)) must equal sat(f(x), b)."""
    image = [m.source.frame.view.index[m.frame_hom.map[b]] for b in m.target.frame.carrier]
    for x, row in zip(m.source.points.elements, m.source.rows):
        target_row = m.target.rows[m.target.points.index(m.point_map(x))]
        for b, i, g in zip(m.target.frame.carrier, image, target_row):
            if row[i] != g:
                return Violation("system-morphism", "clause (iii)", f"({systems._show(x)}, {systems._show(b)})")
    return None


def test_clause_iii_names_the_point_loops_first_disagreement():
    rng = random.Random(3)
    found = collections.Counter()
    for seed in range(12):
        f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), 1)
        lifted = j_morphism(f, source, target)
        # equal grades held as other objects, and one or two entries changed
        copied = tuple(tuple(F(g.numerator, g.denominator) for g in row) for row in lifted.target.rows)
        variants = [copied]
        for _ in range(3):
            rows = [list(row) for row in copied]
            for _ in range(rng.choice((1, 2))):
                x, a = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
                rows[x][a] = rng.choice((ZERO, F(1, 3), ONE))
            variants.append(tuple(map(tuple, rows)))
        for rows in variants:
            twisted = GradedSystem(lifted.target.points, lifted.target.frame, rows)
            m = SystemMorphism(lifted.source, twisted, f, lifted.frame_hom)
            expected = point_loop_clause_iii(m)
            assert check_system_morphism(m) == expected
            found[expected is None] += 1
    assert found[True] >= 12 and found[False] >= 12
