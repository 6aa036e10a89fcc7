"""The rank kernel and the space-to-frame path that runs on it.

The kernel holds a rank vector as one int of level cuts; the tuple kernel
it replaced lives on in conftest as the oracle it is checked against.
`generate_topology` and `frame_from_space` compute on level cuts; the
`Fraction` versions they replaced live on in conftest as oracles. A
strictly monotone relabelling of grades that fixes 0 and 1 must leave
every rank table unchanged, and a permutation of the universe's points,
the carrier's bit order, must permute the opens and nothing else. The
bridge from fuzzy geometric logic to topology is checked with the
recursive oracle: a formula's extent is a fuzzy set over the assignments,
and graded consequence is graded inclusion of extents.
"""

import copy
import functools
import itertools
import operator
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_frame_from_space,
    brute_generate_topology,
    brute_inclusion,
    brute_sat_grade,
    level_cuts,
    object_rank_table,
    position_ranks,
    small_grades,
    tuple_exists,
    tuple_inclusion,
    tuple_join,
    tuple_meet,
    value_set_closure,
)
from graded_topos import ranks as kernel
from graded_topos.errors import Overflow, SchemaError
from graded_topos.frames import check_frame, frame_from_space
from graded_topos.functors import GradeSet
from graded_topos.fuzzy_sets import FuzzySet, Universe, graded_inclusion, union
from graded_topos.generators import (
    GeneratorConfig,
    derived_rng,
    generate_formula_pool,
    generate_random_interpretation,
)
from graded_topos.grades import ONE, ZERO
from graded_topos.logic.semantics import Assignment, sequent_grade
from graded_topos.logic.syntax import BOTTOM, TOP, free_variables
from graded_topos.ranks import cuts_of, inclusion, ranks_of
from graded_topos.spaces import GradedSpace, check_space, generate_topology

GRADES = GradeSet((ZERO, F(1, 4), F(1, 2), F(3, 4), ONE))


def test_rank_table_and_operations():
    ranks = GradeSet.of([F(1, 2), F(1, 3), F(1, 2)])
    assert ranks.grades == (ZERO, F(1, 3), F(1, 2), ONE) and ranks.top == 3
    assert ranks.code([ONE, F(1, 3), ZERO]) == [3, 1, 0]
    assert tuple(map(ranks.grades.__getitem__, (2, 0))) == (F(1, 2), ZERO)
    # cut r holds the positions of rank >= r, bit i for position i, and
    # cut r of a vector over s positions is bits (r - 1) * s to r * s - 1
    assert ranks.cuts([ONE, F(1, 3), ZERO], 3) == [0b001_001_011]
    assert ranks_of(0b001_001_011, 3) == (3, 1, 0)

    def c(*vector):
        return cuts_of(vector, ranks.top)

    assert c(3, 1, 0) & c(2, 2, 2) == c(2, 1, 0)
    assert c(3, 1, 0) | c(2, 2, 2) == c(3, 2, 2)
    assert c(1, 0, 2) | c(0, 2, 1) | c(0, 0, 0) == c(1, 2, 2)
    assert inclusion(c(1, 2, 0), c(2, 1, 3), 3, ranks.top) == 1
    assert inclusion(c(0, 1), c(0, 1), 2, ranks.top) == ranks.top
    assert inclusion(c(), c(), 0, ranks.top) == ranks.top


def _twin(g: F) -> F:
    """An equal grade in a distinct object."""
    return F(g.numerator, g.denominator)


@st.composite
def grade_draws(draw, low: int = 0, high: int = 1) -> list:
    """Grades between `low` and `high`, some repeated as one object and some
    as equal grades in distinct objects; one draw in four holds more than
    256 distinct grades, so the level cuts take the second path of
    `cuts_of`."""
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(256, 300))
        pool = [F(k, n) for k in range(1, n)]
    else:
        pool = draw(st.lists(st.fractions(low, high, max_denominator=8), min_size=1, max_size=10))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=30))
    values = pool + [_twin(g) if twin else g for g, twin in picks]
    return draw(st.permutations(values))


@settings(max_examples=60, deadline=None)
@given(grade_draws(), st.integers(1, 7))
def test_one_table_is_both_closures_it_replaced_and_codes_as_they_did(values, size):
    """`GradeSet.of` is the object-deduping rank table and `closure` the
    value-set closure; `code` ranks by position, as a new table of the
    same grades does, in and out of the table, and `cuts` codes each
    vector of `size` grades as its own level cuts."""
    table = GradeSet.of(values)
    grades, top = object_rank_table(values)
    assert table.grades == grades and table.top == top == len(table) - 1
    assert GradeSet.closure(values) == table and table.grades == value_set_closure(values)
    assert table._placed == {id(g): r for r, g in enumerate(table.grades)}
    others = [F(1, 997), _twin(table.grades[top // 2]), F(996, 997)] + values[:3]
    codes = position_ranks(grades, values + others)
    assert table.code(values + others) == codes == GradeSet(table.grades).code(values + others)
    codes = codes[:len(values)]
    vectors = [codes[k:k + size] for k in range(0, len(codes), size)]
    assert table.cuts(values, size) == [level_cuts(v, top) for v in vectors] == [cuts_of(v, top) for v in vectors]


@given(grade_draws(-1, 2))
def test_the_unchecked_table_takes_any_grades_as_the_rank_table_did(values):
    table = GradeSet.of(values)
    assert (table.grades, table.top) == object_rank_table(values)
    assert table.code(values) == position_ranks(table.grades, values)


def _refusal(build, values):
    try:
        return build(values)
    except (SchemaError, TypeError) as refusal:
        return type(refusal), str(refusal) if isinstance(refusal, SchemaError) else None


@given(st.lists(st.one_of(small_grades(4), st.fractions(-1, 2, max_denominator=4), st.integers(-1, 2),
                          st.sampled_from(["1/2", None, [ONE]])), max_size=6))
def test_the_grade_set_refuses_what_it_refused(values):
    """`closure` refuses, with the same message, what the value-set closure
    refused, and the constructor what its two checks refused."""
    assert _refusal(lambda v: GradeSet.closure(v).grades, values) == _refusal(value_set_closure, values)
    grades = tuple(values)
    expected = _refusal(lambda g: GradeSet(g).grades, grades)
    try:
        if tuple(sorted(set(grades))) != grades:
            assert expected == (SchemaError, "grades: must be sorted and duplicate-free")
        elif not grades or grades[0] != ZERO or grades[-1] != ONE:
            assert expected == (SchemaError, "grades: must contain 0 and 1")
        else:
            assert expected == grades
    except TypeError:
        assert expected == (TypeError, None)


@given(grade_draws())
def test_a_copied_or_unpickled_table_indexes_its_own_objects(values):
    table = GradeSet.of(values)
    for other in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table)),
                  GradeSet.closure(values), GradeSet(table.grades)):
        assert other == table and hash(other) == hash(table) and repr(other) == repr(table)
        assert other.top == table.top
        assert other._placed == {id(g): r for r, g in enumerate(other.grades)}
        assert other.code(other.grades) == list(range(len(other)))
    assert repr(table) == f"GradeSet(grades={table.grades!r})"


def random_vector(rng, size: int, top: int) -> tuple[int, ...]:
    """Ranks 0..top, all of one rank at times, so the inclusion is often
    the top or 0."""
    if rng.random() < 0.2:
        return (rng.randint(0, top),) * size
    return tuple(rng.randint(0, top) for _ in range(size))


def test_the_cut_kernel_matches_the_tuple_kernel():
    """meet, n-ary join, inclusion, coding and decoding on random vectors of
    1 to 4096 entries and 2 to 6 ranks; on sizes n^k, also ∃ over up to
    two coordinates and the sup over the slowest one."""
    rng = random.Random(11)
    for trial in range(300):
        top = rng.randint(1, 5)
        n, k = rng.choice([(1, 1), (2, 1), (3, 1), (3, 3), (2, 12), (4, 6), (16, 3), (64, 2)])
        size = n ** k if trial % 2 else rng.choice([1, 2, 27, rng.randint(1, 4096)])
        vectors = [random_vector(rng, size, top) for _ in range(rng.randint(1, 4))]
        u, v = vectors[0], vectors[-1]
        if trial % 3 == 0:  # u below v at every position but at most one
            v = tuple(max(a, b) for a, b in zip(u, v))
            i = rng.randrange(size)
            v = v[:i] + (rng.randint(0, top),) + v[i + 1:]
        cu, cv = level_cuts(u, top), level_cuts(v, top)
        assert cuts_of(u, top) == cu and ranks_of(cu, size) == u
        assert cu & cv == level_cuts(tuple_meet(u, v), top)
        assert functools.reduce(operator.or_, (level_cuts(w, top) for w in vectors)) == level_cuts(
            tuple_join(*vectors), top)
        assert inclusion(cu, cv, size, top) == tuple_inclusion(u, v, top)
        if size != n ** k:
            continue
        strides = [n ** j for j in range(k)]
        for p in rng.sample(strides, min(k, 2)):
            base = kernel.spread(kernel.fibre_bases(size, p, n), size, top)
            assert kernel.exists(cu, p, n, base) == level_cuts(tuple_exists(u, p, n), top)
        inner = size // n
        assert kernel.sup_out(cu, inner, n, top) == level_cuts(
            [max(u[d * inner + i] for d in range(n)) for i in range(inner)], top)


def test_shifts_never_carry_bits_across_levels():
    """A right shift carries bits of one level into the one below, but
    only to positions off the fibre bases: masking the whole int with the
    bases at every level keeps what masking each level alone keeps. The
    sup over the slowest coordinate keeps none of them either."""
    rng = random.Random(15)
    for n, k in [(2, 1), (2, 5), (3, 3), (5, 2), (7, 2), (9, 2), (40, 2)]:
        size = n ** k
        for top in (2, 3, 6):
            u = level_cuts(random_vector(rng, size, top), top)
            levels = [u >> r * size & (1 << size) - 1 for r in range(top)]
            for p in (n ** j for j in range(k)):
                base = kernel.fibre_bases(size, p, n)
                whole = kernel._smear(u, p, n, operator.rshift) & kernel.spread(base, size, top)
                assert whole == sum((kernel._smear(c, p, n, operator.rshift) & base) << r * size
                                    for r, c in enumerate(levels))
            # only the top level set: nothing reaches the levels below
            high = ((1 << size) - 1) << (top - 1) * size
            for p in (n ** j for j in range(k)):
                base = kernel.spread(kernel.fibre_bases(size, p, n), size, top)
                kept = kernel._smear(high, p, n, operator.rshift) & base
                assert kept and kept & (1 << (top - 1) * size) - 1 == 0
            inner = size // n
            assert kernel.sup_out(high, inner, n, top) == ((1 << inner) - 1) << (top - 1) * inner


def test_cuts_of_codes_any_number_of_ranks():
    """Up to 255 ranks are coded a byte per position, more by grouping the
    positions; both must give the cuts bit by bit, from any iterable."""
    rng = random.Random(14)
    for top in (1, 2, 5, 254, 255, 256, 257, 700):
        for size in (1, 2, 63, 64, 65, rng.randint(1, 600)):
            u = random_vector(rng, size, top)
            cu = level_cuts(u, top)
            assert cuts_of(u, top) == cuts_of(iter(u), top) == cu
            assert ranks_of(cu, size) == u


def test_exists_matches_the_index_tables():
    """∃ over each coordinate, on vectors over n^k assignments of up to 4096
    entries; bases up to 40 take every shape of the doubling windows."""
    rng = random.Random(12)
    cases = [(1, 3), (2, 1), (2, 5), (2, 12), (3, 3), (3, 7), (4, 6), (5, 2), (7, 4),
             (8, 2), (9, 2), (16, 3), (17, 2), (40, 2)]
    for n, k in cases:
        size = n ** k
        for _ in range(3):
            top = rng.randint(1, 5)
            u = random_vector(rng, size, top)
            cu = level_cuts(u, top)
            for p in (n ** j for j in range(k)):
                base = kernel.fibre_bases(size, p, n)
                assert base == sum(1 << i for i in range(size) if i // p % n == 0)
                base = kernel.spread(base, size, top)
                assert kernel.exists(cu, p, n, base) == level_cuts(tuple_exists(u, p, n), top)
            # the sup over the slowest coordinate, onto the list without it
            inner = size // n
            assert kernel.sup_out(cu, inner, n, top) == level_cuts(
                [max(u[d * inner + i] for d in range(n)) for i in range(inner)], top)


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
    for table in (frame.meet_table, frame.relation):
        with pytest.raises(TypeError):
            table[(frame.top, frame.top)] = frame.top
    # the join of every subset, up to 10 opens, is the union of its opens
    if len(frame) <= 10:
        for k in range(len(frame) + 1):
            for subset in itertools.combinations(frame.carrier, k):
                assert frame.join_fn(frozenset(subset)) == union(list(subset), space.universe)
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
        # the cuts kept are those of the opens, in the canonical order
        assert [tuple(map(ranks.grades.__getitem__, ranks_of(row, points))) for row in rows] == [
            t.grades for t in oracle.opens]
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


def permute_points(t: FuzzySet, universe: Universe) -> FuzzySet:
    """The same membership function over a reordering of its points."""
    return FuzzySet(universe, tuple(t(x) for x in universe.elements))


@pytest.mark.parametrize("seed", range(6))
def test_permuting_the_points_permutes_the_opens_and_nothing_else(seed):
    rng = derived_rng(GeneratorConfig(seed=seed), 17)
    for points, count in ((2, 2), (3, 3), (4, 2), (5, 3), (5, 2)):
        universe, gens = random_generators(rng, points, count)
        try:
            space = generate_topology(universe, gens, 64)
        except Overflow:
            continue
        moved_universe = Universe(tuple(rng.sample(universe.elements, points)))
        moved = generate_topology(moved_universe, [permute_points(t, moved_universe) for t in gens])
        assert set(moved.opens) == {permute_points(t, moved_universe) for t in space.opens}
        assert list(moved.opens) == sorted(moved.opens, key=lambda t: t.grades)
        # the induced bijection of opens carries meet, relation and pair joins
        sigma = [moved.opens.index(permute_points(t, moved_universe)) for t in space.opens]
        view, moved_view = frame_from_space(space).view, frame_from_space(moved).view
        assert moved_view.grades == view.grades
        for a, b in itertools.product(range(len(space)), repeat=2):
            assert moved_view.meet[sigma[a]][sigma[b]] == sigma[view.meet[a][b]]
            assert moved_view.rel[sigma[a]][sigma[b]] == view.rel[a][b]
        moved_joins = dict(zip(moved_view.walk.masks, moved_view.joins))
        for mask, j in zip(view.walk.masks, view.joins):
            image = sum(1 << sigma[i] for i in range(len(space)) if mask >> i & 1)
            assert moved_joins[image] == sigma[j]
