from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_generate_topology, brute_space_closed, counted_fraction_hashes, fuzzy_sets_over, universes
from graded_topos import generators, spaces
from graded_topos.checks import Violation
from graded_topos.errors import MixedUniverse, NotContinuous, Overflow
from graded_topos.functors import GradeSet
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe, empty_set, full_set, preimage
from graded_topos.ranks import cuts_of
from graded_topos.generators import (
    GeneratorConfig,
    generate_random_continuous_map,
    generate_random_space,
)
from graded_topos.spaces import (
    GradedSpace,
    check_continuous,
    check_space,
    compose_continuous,
    generate_topology,
    pull_opens,
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


def test_missing_top_is_clause_1():
    result = check_space(U2, [empty_set(U2), HALF_LOW])
    assert isinstance(result, Violation)
    assert (result.clause, result.witness) == ("clause 1", "the constant-1 open is missing")


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


@st.composite
def spaces_and_maps(draw):
    """A generated space on up to 4 points and a random map into it from up
    to 4 points: injective or not, surjective or not."""
    target = draw(universes(4, "y"))
    space = generate_topology(target, draw(st.lists(fuzzy_sets_over(target), max_size=3)))
    source = draw(universes(4, "x"))
    images = draw(st.lists(st.sampled_from(target.elements), min_size=len(source),
                           max_size=len(source)))
    return space, PointMap(source, target, tuple(images))


@given(spaces_and_maps())
@settings(max_examples=150, deadline=None)
def test_built_fuzzy_sets_equal_and_hash_as_constructed_ones(case):
    # preimage and generate_topology read grades and their hashes by
    # position; the public constructor hashes the grades themselves
    space, f = case
    built = [(t, t.grades) for t in space.opens]
    built += [(preimage(f, t), tuple(t(y) for y in f.images)) for t in space.opens]
    for t, grades in built:
        plain = FuzzySet(t.universe, grades)
        assert t == plain and t.grades == grades
        assert hash(t) == hash(plain) == hash((t.universe, grades))
        assert t._hashes == plain._hashes


def test_preimage_hashes_no_grade():
    for seed in range(4):
        f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), 1)
        with counted_fraction_hashes() as calls:
            pulled = {preimage(f, t) for t in target.opens}
            assert check_continuous(f, source, target) is None
        assert calls[0] == 0
        assert pulled <= set(source.opens)


def test_generate_topology_hashes_grades_only_for_its_rank_table():
    u4 = Universe.of("x1", "x2", "x3", "x4")
    quarters = [F(k, 4) for k in range(4)]
    for order in ((0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1)):
        # three rotations of one vector of 0, 1/4, 1/2, 3/4: 20 opens
        generators = [FuzzySet(u4, tuple(quarters[(r + k) % 4] for r in order)) for k in range(3)]
        with counted_fraction_hashes() as calls:
            closed = generate_topology(u4, generators)
        ranks, _ = closed.ranked
        # each generator grade is hashed into the table and again when coded,
        # each table grade into its index and once for the opens' hashes,
        # and 0 and 1 once: fewer than one per grade of the opens
        assert calls[0] <= 2 * 12 + 2 * len(ranks.grades) + 2 < len(closed) * len(u4)
        assert [hash(t) for t in closed.opens] == [hash((u4, t.grades)) for t in closed.opens]


def test_equal_grades_held_in_distinct_objects_rank_as_one_grade():
    u3 = Universe.of("x1", "x2", "x3")
    half, again, quarters = F(1, 2), F(1, 2), F(2, 4)
    assert len({id(half), id(again), id(quarters)}) == 3
    generators = [FuzzySet(u3, (half, F(0), F(1, 3))), FuzzySet(u3, (F(1), again, quarters)),
                  FuzzySet(u3, (quarters, F(1, 3), half))]
    closed = generate_topology(u3, generators)
    assert closed == brute_generate_topology(u3, generators)
    ranks, rows = closed.ranked
    assert ranks.grades == (0, F(1, 3), F(1, 2), 1)
    assert rows == [cuts_of(ranks.code(t.grades), ranks.top) for t in closed.opens]


def test_a_random_space_decodes_only_the_closure_it_returns(monkeypatch):
    pool = GradeSet(tuple(F(k, 4) for k in range(5)))
    cfg = GeneratorConfig(seed=0, max_points=5, max_generators=4, grade_pool=pool)
    closures, decodes = [0], [0]

    def counted(calls, original):
        def call(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(generators, "close_cuts", counted(closures, generators.close_cuts))
    monkeypatch.setattr(spaces, "ranks_of", counted(decodes, spaces.ranks_of))
    # index 4 keeps its 7th attempt; index 2 rejects all 24 and falls back
    # to the indiscrete space, which `generate_topology` closes
    for index, attempts, kept in ((4, 7, 7), (2, 24, 2)):
        closures[0] = decodes[0] = 0
        with counted_fraction_hashes() as calls:
            space = generate_random_space(cfg, index, max_opens=7, min_opens=7)
        ranks, _ = space.ranked
        assert (closures[0], len(space)) == (attempts, kept)
        # one rank per open of the one closure decoded
        assert decodes[0] == len(space)
        # 0 and 1 and each table grade into its set, its index and the opens'
        # hashes: no grade of a rejected attempt is hashed
        assert calls[0] <= 3 * len(ranks.grades) + 2


def test_random_closures_stop_at_max_opens(monkeypatch):
    """Each attempt of a random space or continuous map is closed with
    max_opens as its cap, so a closure past it stops there and is rejected
    (and a closure past 4,096 opens no longer raises Overflow)."""
    caps = []

    def capped(close):
        def call(*args):
            caps.append(args[-1])
            return close(*args)
        return call

    monkeypatch.setattr(generators, "close_cuts", capped(spaces.close_cuts))
    monkeypatch.setattr(generators, "close_generators", capped(spaces.close_generators))
    pool = GradeSet(tuple(F(k, 4) for k in range(5)))
    cfg = GeneratorConfig(seed=0, max_points=5, max_generators=4, grade_pool=pool)
    # index 2 rejects all 24 attempts (see the test above)
    generate_random_space(cfg, 2, max_opens=7, min_opens=7)
    assert caps == [7] * 24
    caps.clear()
    for index in range(12):
        f, source, target = generate_random_continuous_map(cfg, index, max_opens=8)
        assert len(source) <= 8 and check_continuous(f, source, target) is None
    # the maps' attempts at 8 opens, one of them rejected, and their targets' at 4
    assert set(caps) == {8, 4} and caps.count(8) == 13


def test_pull_opens_maps_each_target_open_to_the_source_open_itself():
    for seed in range(6):
        f, source, target = generate_random_continuous_map(GeneratorConfig(seed=seed), 1)
        pulled = pull_opens(f, source, target)
        assert list(pulled) == list(target.opens)
        mine = {id(t) for t in source.opens}
        assert all(id(back) in mine and back == preimage(f, t) for t, back in pulled.items())
    poor, rich = indiscrete(), generate_topology(U2, [HALF_LOW])
    assert pull_opens(PointMap.identity(U2), poor, rich) == check_continuous(
        PointMap.identity(U2), poor, rich)


def brute_space_iso(f, source, target) -> bool:
    """The definition: a bijection, continuous both ways, whose preimage is
    a bijection between the open families."""
    if len(source.universe) != len(target.universe) or not f.is_bijective():
        return False
    if (check_continuous(f, source, target) is not None
            or check_continuous(f.inverse(), target, source) is not None):
        return False
    pulled = {preimage(f, t) for t in target.opens}
    return len(pulled) == len(target.opens) and pulled == set(source.opens)


@given(spaces_and_maps(), st.data())
@settings(max_examples=150, deadline=None)
def test_space_iso_check_agrees_with_its_definition(case, data):
    target, f = case
    source_gens = data.draw(st.lists(fuzzy_sets_over(f.source), max_size=3))
    pulled = [preimage(f, t) for t in target.opens]
    for source in (generate_topology(f.source, source_gens), generate_topology(f.source, pulled),
                   generate_topology(f.source, pulled + source_gens)):
        assert space_iso_check(f, source, target) == brute_space_iso(f, source, target)
