from fractions import Fraction as F

import pytest

from conftest import brute_space_closed
from graded_topos.checks import Violation
from graded_topos.errors import MixedUniverse, NotContinuous, Overflow
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe, empty_set, full_set, preimage
from graded_topos.generators import GeneratorConfig, generate_random_space
from graded_topos.spaces import (
    GradedSpace,
    check_continuous,
    check_space,
    compose_continuous,
    generate_topology,
    space_iso_check,
)

U2 = Universe.of("x1", "x2")
HALF_LOW = FuzzySet(U2, (F(1, 2), F(0)))
HALF_HIGH = FuzzySet(U2, (F(1, 2), F(1)))


def indiscrete(universe=U2) -> GradedSpace:
    return generate_topology(universe, [])


def test_indiscrete_is_valid():
    result = check_space(U2, [empty_set(U2), full_set(U2)])
    assert isinstance(result, GradedSpace)
    assert len(result) == 2


def test_three_open_space_is_valid_and_brute_closed():
    result = check_space(U2, [empty_set(U2), full_set(U2), HALF_LOW])
    assert isinstance(result, GradedSpace)
    assert brute_space_closed(result)


def test_missing_bottom_is_clause_1():
    result = check_space(U2, [full_set(U2)])
    assert isinstance(result, Violation)
    assert result.clause == "clause 1"


def test_missing_union_is_clause_2():
    other = FuzzySet(U2, (F(0), F(1, 2)))
    result = check_space(U2, [empty_set(U2), full_set(U2), HALF_LOW, other])
    assert isinstance(result, Violation)
    assert result.clause == "clause 2"
    assert result.witness == "union of {'x1': '1/2', 'x2': '0'} and {'x1': '0', 'x2': '1/2'} is not an open"


def test_missing_intersection_is_clause_3():
    a = FuzzySet(U2, (F(1, 2), F(1)))
    b = FuzzySet(U2, (F(1), F(1, 2)))
    result = check_space(U2, [empty_set(U2), full_set(U2), a, b])
    assert isinstance(result, Violation)
    assert result.clause == "clause 3"
    assert result.witness == "intersection of {'x1': '1/2', 'x2': '1'} and {'x1': '1', 'x2': '1/2'} is not an open"


def test_duplicates_are_rejected():
    result = check_space(U2, [empty_set(U2), full_set(U2), HALF_LOW, HALF_LOW])
    assert isinstance(result, Violation)
    assert result.clause == "distinct opens"
    assert result.witness == "duplicate open {'x1': '1/2', 'x2': '0'}"


def test_mixed_universe_raises():
    with pytest.raises(MixedUniverse):
        check_space(U2, [empty_set(Universe.of("y1"))])


def test_generate_topology_examples():
    assert len(generate_topology(U2, [])) == 2
    single = generate_topology(U2, [HALF_LOW])
    assert len(single) == 3 and HALF_LOW in single
    both = generate_topology(U2, [HALF_LOW, HALF_HIGH])
    assert HALF_LOW in both and HALF_HIGH in both
    from graded_topos.fuzzy_sets import intersection, union
    assert union([HALF_LOW, HALF_HIGH]) in both
    assert intersection(HALF_LOW, HALF_HIGH) in both


def test_generate_topology_overflow():
    u = Universe.of("x1", "x2", "x3")
    gens = [FuzzySet(u, (F(1, 4), F(1, 2), F(0))), FuzzySet(u, (F(3, 4), F(0), F(1, 2))),
            FuzzySet(u, (F(0), F(3, 4), F(1, 4)))]
    with pytest.raises(Overflow):
        generate_topology(u, gens, max_opens=4)


@pytest.mark.parametrize("seed", range(12))
def test_generated_spaces_pass_both_routes(seed):
    space = generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=8)
    assert isinstance(check_space(space.universe, list(space.opens)), GradedSpace)
    assert brute_space_closed(space)


def test_identity_is_continuous():
    space = generate_topology(U2, [HALF_LOW])
    assert check_continuous(PointMap.identity(U2), space, space) is None


def test_everything_is_continuous_into_indiscrete():
    rich = generate_topology(U2, [HALF_LOW, HALF_HIGH])
    assert check_continuous(PointMap.identity(U2), rich, indiscrete()) is None


def test_discontinuity_returns_the_offending_open():
    poor = indiscrete()
    rich = generate_topology(U2, [HALF_LOW])
    bad = check_continuous(PointMap.identity(U2), poor, rich)
    assert isinstance(bad, Violation)
    assert "1/2" in bad.witness
    assert bad.witness == "preimage of {'x1': '1/2', 'x2': '0'} is not an open of the source"


def test_compose_continuous_identity_laws():
    space = generate_topology(U2, [HALF_LOW])
    ident = PointMap.identity(U2)
    assert compose_continuous(ident, ident, space, space, space) == ident


def test_compose_continuous_rejects_discontinuous_legs():
    poor, rich = indiscrete(), generate_topology(U2, [HALF_LOW])
    ident = PointMap.identity(U2)
    with pytest.raises(NotContinuous):
        compose_continuous(ident, ident, poor, rich, rich)


@pytest.mark.parametrize("seed", range(6))
def test_composites_of_continuous_maps_are_continuous(seed):
    from graded_topos.generators import generate_continuous_chain
    f, g, first, middle, last = generate_continuous_chain(GeneratorConfig(seed=seed), 0)
    composite = compose_continuous(f, g, first, middle, last)
    assert check_continuous(composite, first, last) is None
    assert composite(first.universe.elements[0]) == g(f(first.universe.elements[0]))


def test_space_iso_identity_true():
    space = generate_topology(U2, [HALF_LOW])
    assert space_iso_check(PointMap.identity(U2), space, space)


def test_space_iso_rejects_non_injective_maps():
    space = indiscrete()
    point = indiscrete(Universe.of("y"))
    collapse = PointMap(U2, Universe.of("y"), ("y", "y"))
    assert not space_iso_check(collapse, space, point)


def test_space_iso_needs_a_continuous_inverse():
    rich = generate_topology(U2, [HALF_LOW])
    poor = indiscrete()
    ident = PointMap.identity(U2)
    # rich -> poor is continuous and bijective, but the inverse is not continuous
    assert check_continuous(ident, rich, poor) is None
    assert not space_iso_check(ident, rich, poor)


def test_iso_respects_open_renaming():
    v = Universe.of("y1", "y2")
    swap = PointMap(U2, v, ("y2", "y1"))
    source = generate_topology(U2, [HALF_LOW])
    target = generate_topology(v, [preimage(swap.inverse(), HALF_LOW)])
    assert space_iso_check(swap, source, target)
