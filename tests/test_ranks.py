"""The rank kernel and the space-to-frame path that runs on it.

`generate_topology` and `frame_from_space` compute on rank vectors; the
`Fraction` versions they replaced live on in conftest as oracles. A
strictly monotone relabelling of grades that fixes 0 and 1 must leave
every rank table unchanged. The bridge from fuzzy geometric logic to
topology is checked with the recursive oracle: a formula's extent is a
fuzzy set over the assignments, and graded consequence is graded inclusion
of extents.
"""

import itertools
from fractions import Fraction as F

import pytest

from conftest import (
    brute_frame_from_space,
    brute_generate_topology,
    brute_inclusion,
    brute_sat_grade,
)
from graded_topos.errors import Overflow
from graded_topos.frames import check_frame, frame_from_space
from graded_topos.functors import GradeSet
from graded_topos.fuzzy_sets import FuzzySet, Universe, graded_inclusion
from graded_topos.generators import (
    GeneratorConfig,
    derived_rng,
    generate_formula_pool,
    generate_random_interpretation,
)
from graded_topos.grades import ONE, ZERO
from graded_topos.logic.semantics import Assignment, sequent_grade
from graded_topos.logic.syntax import BOTTOM, TOP, free_variables
from graded_topos.ranks import Ranks, join, meet
from graded_topos.spaces import GradedSpace, check_space, generate_topology

GRADES = GradeSet((ZERO, F(1, 4), F(1, 2), F(3, 4), ONE))


def test_rank_table_and_operations():
    ranks = Ranks([F(1, 2), F(1, 3), F(1, 2)])
    assert ranks.grades == (ZERO, F(1, 3), F(1, 2), ONE) and ranks.top == 3
    assert ranks.code([ONE, F(1, 3), ZERO]) == (3, 1, 0)
    assert ranks.decode((2, 0)) == (F(1, 2), ZERO)
    assert meet((3, 1, 0), (2, 2, 2)) == (2, 1, 0)
    assert join((3, 1, 0), (2, 2, 2)) == (3, 2, 2)
    assert join((1, 0, 2), (0, 2, 1), (0, 0, 0)) == (1, 2, 2)
    assert join((1, 0)) == (1, 0)
    assert ranks.inclusion((1, 2, 0), (2, 1, 3)) == 1
    assert ranks.inclusion((0, 1), (0, 1)) == ranks.top
    assert ranks.inclusion((), ()) == ranks.top


def random_generators(rng, points: int, count: int):
    universe = Universe(tuple(f"x{i}" for i in range(points)))
    return universe, [FuzzySet(universe, tuple(rng.choice(GRADES.grades) for _ in range(points)))
                      for _ in range(count)]


def spaces_by_size():
    """Two closures of random generators over 1 to 4 points for each number
    of opens from 3 to 16."""
    rng = derived_rng(GeneratorConfig(seed=0), 13)
    found = {size: [] for size in range(3, 17)}
    while any(len(spaces) < 2 for spaces in found.values()):
        universe, gens = random_generators(rng, rng.randint(1, 4), rng.randint(1, 4))
        try:
            space = generate_topology(universe, gens, 16)
        except Overflow:
            continue
        if len(space) in found and len(found[len(space)]) < 2:
            found[len(space)].append(space)
    return found


SPACES = spaces_by_size()


def assert_same_frame(space):
    frame, oracle = frame_from_space(space), brute_frame_from_space(space)
    assert frame.carrier == oracle.carrier and frame.top == oracle.top
    assert frame.meet_table == oracle.meet_table
    assert frame.relation == oracle.relation
    carrier = frame.carrier
    for subset in itertools.chain([()], itertools.combinations_with_replacement(carrier, 2)):
        assert frame.join_fn(frozenset(subset)) == oracle.join_fn(frozenset(subset))
    # the view filled from rank tables equals the one built from the Fraction tables
    assert frame.view == oracle.view
    return frame


@pytest.mark.parametrize("size", range(3, 17))
def test_frame_from_space_matches_the_fraction_oracle(size):
    for space in SPACES[size]:
        assert_same_frame(space)


@pytest.mark.parametrize("seed", range(8))
def test_generate_topology_matches_the_fraction_oracle(seed):
    for points, count in ((1, 2), (2, 3), (3, 3), (4, 2), (3, 4)):
        universe, gens = random_generators(derived_rng(GeneratorConfig(seed=seed), 11), points, count)
        oracle = brute_generate_topology(universe, gens)
        space = generate_topology(universe, gens)
        assert space.universe == oracle.universe and space.opens == oracle.opens
        # the coding kept from the closure is the one the opens give
        (ranks, rows), (fresh, fresh_rows) = space.ranked, GradedSpace(universe, space.opens).ranked
        assert (ranks.grades, rows) == (fresh.grades, fresh_rows)
        for cap in range(1, len(oracle) + 2):
            try:
                brute_generate_topology(universe, gens, cap)
            except Overflow:
                with pytest.raises(Overflow):
                    generate_topology(universe, gens, cap)
            else:
                assert generate_topology(universe, gens, cap).opens == oracle.opens


def relabel(t: FuzzySet) -> FuzzySet:
    """g -> g^2: strictly monotone on [0, 1], fixing 0 and 1."""
    return FuzzySet(t.universe, tuple(g * g for g in t.grades))


@pytest.mark.parametrize("size", [3, 6, 9, 12, 16])
def test_relabelling_grades_leaves_the_rank_tables_unchanged(size):
    for space in SPACES[size]:
        view = frame_from_space(space).view
        moved = frame_from_space(GradedSpace(space.universe, tuple(map(relabel, space.opens)))).view
        assert (moved.meet, moved.rel, moved.joins) == (view.meet, view.rel, view.joins)
        assert moved.grades == tuple(g * g for g in view.grades)
        closed = generate_topology(space.universe, [relabel(t) for t in space.opens])
        assert closed.opens == tuple(map(relabel, space.opens))


def extent(interp, variables, phi) -> FuzzySet:
    """The grade of phi at every assignment to `variables`, as a fuzzy set
    over those assignments (recursive oracle)."""
    combos = tuple(itertools.product(interp.domain, repeat=len(variables)))
    return FuzzySet(Universe(combos), tuple(
        brute_sat_grade(interp, Assignment(dict(zip(variables, combo))), phi) for combo in combos))


@pytest.mark.parametrize("seed", range(8))
def test_graded_consequence_is_graded_inclusion_of_extents(seed):
    cfg = GeneratorConfig(seed=seed, grade_pool=GRADES)
    for index in range(3):
        interp = generate_random_interpretation(cfg, index)
        pool = generate_formula_pool(cfg, index, interp, size=4, depth=3) + [TOP, BOTTOM]
        variables = sorted(set().union(*(free_variables(f) for f in pool)))
        extents = [extent(interp, variables, f) for f in pool]
        for (f, a), (g, b) in itertools.product(zip(pool, extents), repeat=2):
            assert sequent_grade(interp, f, g) == graded_inclusion(a, b) == brute_inclusion(a, b)
        space = generate_topology(extents[0].universe, extents)
        assert check_space(space.universe, list(space.opens)) == space
        assert check_frame(assert_same_frame(space)) is None
