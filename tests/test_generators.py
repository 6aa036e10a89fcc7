from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_generate_random_space, brute_space_closed
from graded_topos.checks import Violation
from graded_topos.errors import SchemaError
from graded_topos.functors import GradeSet
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_formula_pool,
    generate_nonspatial_system,
    generate_random_continuous_map,
    generate_random_interpretation,
    generate_random_space,
    generate_random_system,
)
from graded_topos.logic.parser import parse_formula
from graded_topos.logic.syntax import format_formula
from graded_topos.spaces import GradedSpace, check_continuous, check_space
from graded_topos.systems import check_spatial, check_system

CFG = GeneratorConfig(seed=123)


def test_config_bounds_are_validated():
    with pytest.raises(SchemaError):
        GeneratorConfig(max_points=0)
    with pytest.raises(SchemaError):
        GeneratorConfig(max_generators=-1)


def test_same_seed_means_same_instance():
    a = generate_random_space(CFG, 5)
    b = generate_random_space(GeneratorConfig(seed=123), 5)
    assert a == b
    assert generate_random_interpretation(CFG, 9) == generate_random_interpretation(CFG, 9)
    assert generate_formula_pool(CFG, 4, generate_random_interpretation(CFG, 4)) == \
        generate_formula_pool(CFG, 4, generate_random_interpretation(CFG, 4))


@st.composite
def generator_configs(draw) -> GeneratorConfig:
    """Any seed, 1-5 points, 0-4 generators and a pool of 2-6 grades."""
    inner = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12)
                          .filter(lambda g: 0 < g < 1), max_size=4, unique=True))
    return GeneratorConfig(seed=draw(st.integers(0, 2 ** 64)), max_points=draw(st.integers(1, 5)),
                           max_generators=draw(st.integers(0, 4)),
                           grade_pool=GradeSet.closure(map(Fraction, inner)))


@given(generator_configs(), st.integers(0, 1000), st.data())
@settings(max_examples=200, deadline=None)
def test_random_spaces_are_the_retry_loop_on_fuzzy_sets(cfg, index, data):
    # windows of one exact size, as the benchmark asks, and ranges
    lo = data.draw(st.integers(1, 16))
    hi = data.draw(st.one_of(st.just(lo), st.integers(lo, 24)))
    space = generate_random_space(cfg, index, max_opens=hi, min_opens=lo)
    oracle = brute_generate_random_space(cfg, index, max_opens=hi, min_opens=lo)
    assert (space.universe, space.opens) == (oracle.universe, oracle.opens)
    (ranks, rows), (oracle_ranks, oracle_rows) = space.ranked, oracle.ranked
    assert (ranks.grades, rows) == (oracle_ranks.grades, oracle_rows)


def test_indices_vary_the_instances():
    spaces = {generate_random_space(CFG, i) for i in range(10)}
    assert len(spaces) > 1


@pytest.mark.parametrize("index", range(8))
def test_generated_spaces_are_valid(index):
    space = generate_random_space(CFG, index)
    assert isinstance(check_space(space.universe, list(space.opens)), GradedSpace)
    if len(space) <= 8:
        assert brute_space_closed(space)


@pytest.mark.parametrize("index", range(6))
def test_generated_systems_are_valid(index):
    assert check_system(generate_random_system(CFG, index)) is None


def test_invalid_flag_is_detected():
    bad = check_system(generate_random_system(CFG, 2, invalid=True))
    assert isinstance(bad, Violation)
    assert bad.clause == "clause 2"


@pytest.mark.parametrize("index", range(5))
def test_nonspatial_systems_are_valid_but_not_spatial(index):
    system = generate_nonspatial_system(CFG, index)
    assert check_system(system) is None
    spatial, pair = check_spatial(system)
    assert not spatial and pair is not None


@pytest.mark.parametrize("index", range(6))
def test_generated_maps_are_continuous(index):
    f, source, target = generate_random_continuous_map(CFG, index)
    assert check_continuous(f, source, target) is None


@pytest.mark.parametrize("index", range(4))
def test_generated_chains_compose(index):
    f, g, first, middle, last = generate_continuous_chain(CFG, index)
    assert check_continuous(f, first, middle) is None
    assert check_continuous(g, middle, last) is None


@pytest.mark.parametrize("index", range(6))
def test_generated_pools_round_trip_through_the_grammar(index):
    interp = generate_random_interpretation(CFG, index)
    sig = interp.signature()
    for formula in generate_formula_pool(CFG, index, interp):
        assert parse_formula(format_formula(formula), sig) == formula
