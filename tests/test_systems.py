import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import brute_system_violation
from graded_topos.checks import Violation
from graded_topos.errors import MixedStructure, SchemaError
from graded_topos.frames import FrameHom, GradedFrame, chain_frame, check_frame
from graded_topos.functors import GradeSet, j_morphism, j_object, s_object
from graded_topos.fuzzy_sets import PointMap, Universe
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_nonspatial_system,
    generate_random_space,
    generate_random_system,
)
from graded_topos.grades import ONE, ZERO
from graded_topos.serialization import load_system
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
