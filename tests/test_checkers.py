"""The frame and system checkers against their definitions, at 20 to 128
elements.

`check_frame` and `check_system` decide their pair and triple laws on
bitmasks and run the loops over every pair and triple only to name a
violation. Each law has one planted violation here, with its witness
pinned. The differential tests mutate one entry of a meet, relation or
satisfaction table: the clause must be the one the brute-force oracles
find, and the witness the one the loops alone give (the bitmask tests
forced to fail, so the loops run on every frame).
"""

import collections
import itertools
import random
from fractions import Fraction as F
from functools import cache

import pytest

from conftest import brute_frame_violation, brute_system_violation
from graded_topos import frames, systems
from graded_topos.frames import GradedFrame, chain_frame, check_frame, frame_from_space
from graded_topos.functors import GradeSet, enumerate_point_homs
from graded_topos.fuzzy_sets import Universe
from graded_topos.generators import GeneratorConfig, generate_random_space
from graded_topos.grades import ONE, ZERO, godel_arrow
from graded_topos.systems import GradedSystem, check_system


def tables(frame):
    """An in-memory frame's carrier, top, meet and relation tables, and join function."""
    items = frame.carrier

    def join_fn(subset):
        return items[frame.join_at(sum(1 << frame.view.index[a] for a in subset))]

    return items, frame.top, dict(frame.meet_table), dict(frame.relation), join_fn


@cache
def chain(n):
    """The chain frame on the grades i / (n - 1)."""
    return chain_frame(F(i, n - 1) for i in range(n))


@cache
def square(k):
    """The frame of every fuzzy set on two points with grades i / (k - 1),
    k^2 elements labelled "a{i}b{j}": meet and join are pointwise min and
    max, and the relation is graded inclusion."""
    grades = [F(i, k - 1) for i in range(k)]
    pairs = list(itertools.product(range(k), repeat=2))
    label = {p: f"a{p[0]}b{p[1]}" for p in pairs}
    at = {v: p for p, v in label.items()}
    meet = {(label[p], label[q]): label[min(p[0], q[0]), min(p[1], q[1])] for p in pairs for q in pairs}
    relation = {(label[p], label[q]): min(godel_arrow(grades[p[0]], grades[q[0]]),
                                          godel_arrow(grades[p[1]], grades[q[1]]))
                for p in pairs for q in pairs}

    def join_fn(subset):
        return label[max((at[a][0] for a in subset), default=0), max((at[a][1] for a in subset), default=0)]

    return GradedFrame.from_join_fn(list(label.values()), label[k - 1, k - 1], meet, join_fn, relation)


def crisp_lattice(order, elements):
    """The frame of a finite lattice given by its order, relation 1 on
    x <= y and 0 elsewhere; meets and joins are the glbs and lubs."""
    def bound(xs, below):
        common = [z for z in elements if all(order(z, x) if below else order(x, z) for x in xs)]
        return next(z for z in common if all(order(w, z) if below else order(z, w) for w in common))

    top = bound(elements, below=False)
    return GradedFrame.from_join_fn(
        elements, top, {(x, y): bound([x, y], below=True) for x in elements for y in elements},
        lambda subset: bound(list(subset), below=False),
        {(x, y): ONE if order(x, y) else ZERO for x in elements for y in elements})


def rebuilt(frame, meet=None, relation=None, join_fn=None):
    items, top, meets, rel, joins = tables(frame)
    return GradedFrame.from_join_fn(items, top, meet or meets, join_fn or joins, relation or rel)


def by_loops(check, *args):
    """`check` run with every bitmask test failing, so the checkers run
    the loops over every instance on every frame and point."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((frames, "_is_semilattice"), (frames, "_pair_axioms_hold"),
                             (frames, "_axiom_8_holds"), (frames, "_distributive"),
                             (systems, "_columns_hold"), (systems, "_joins_hold")):
            patch.setattr(module, name, lambda *args: False)
        return check(*args)


def system(frame, rows):
    """Points p0, p1, ... with the satisfaction rows `rows`, maps from the carrier."""
    points = Universe(tuple(f"p{i}" for i in range(len(rows))))
    return GradedSystem.from_table(points, frame, {(x, a): row[a] for x, row in zip(points.elements, rows)
                                                   for a in frame.carrier})


def step(n, i):
    return F(i, n - 1)


def with_entry(table, key, value):
    table = dict(table)
    table[key] = value
    return table


def meet_changed(frame, key, value):
    return rebuilt(frame, meet=with_entry(tables(frame)[2], key, value))


def relation_changed(frame, key, value):
    return rebuilt(frame, relation=with_entry(tables(frame)[3], key, value))


def join_changed(frame, pair, value):
    joins = tables(frame)[4]
    return rebuilt(frame, join_fn=lambda subset: value if subset == frozenset(pair) else joins(subset))


def chain_plus_diamond(m, pentagon=False):
    """The crisp lattice of the chain c00 < ... < c(m-1) below the diamond
    p, q, r < t, or with `pentagon` below the pentagon p < r < t, q < t:
    m + 4 elements, a lattice, but not distributive."""
    def order(x, y):
        if x == y or y == "t" or pentagon and (x, y) == ("p", "r"):
            return True
        if x[0] == "c" == y[0]:
            return x <= y
        return x[0] == "c"

    return crisp_lattice(order, [f"c{i:02d}" for i in range(m)] + ["p", "q", "r", "t"])


PLANTED_FRAMES = {
    "idempotence": (lambda: meet_changed(chain(20), (step(20, 5), step(20, 5)), step(20, 4)),
                    "meet-semilattice", "meet(Fraction(5, 19), same) is not idempotent"),
    "commutativity": (lambda: meet_changed(chain(20), (step(20, 7), step(20, 3)), step(20, 2)),
                      "meet-semilattice", "meet not commutative at (Fraction(3, 19), Fraction(7, 19))"),
    "associativity": (lambda: rebuilt(chain(128), meet=with_entry(with_entry(
        tables(chain(128))[2], (step(128, 10), step(128, 12)), step(128, 2)),
        (step(128, 12), step(128, 10)), step(128, 2))),
        "meet-semilattice",
        "meet not associative at (Fraction(3, 127), Fraction(10, 127), Fraction(12, 127))"),
    "axiom 1": (lambda: relation_changed(square(8), ("a2b5", "a2b5"), F(3, 7)),
                "axiom 1", "relation('a2b5', same) != 1"),
    "axiom 2": (lambda: relation_changed(chain(20), (step(20, 4), step(20, 3)), ONE),
                "axiom 2", "Fraction(3, 19) and Fraction(4, 19) are distinct but related by 1 both ways"),
    "axiom 3": (lambda: relation_changed(chain(64), (step(64, 40), step(64, 50)), ZERO),
                "axiom 3", "transitivity fails at (Fraction(40, 63), Fraction(1, 63), Fraction(50, 63))"),
    # meet the pointwise max: a semilattice, but not below its arguments
    "axiom 4": (lambda: rebuilt(square(5), meet={(a, b): square(5).join_fn({a, b})
                                                 for a in square(5).carrier for b in square(5).carrier}),
                "axiom 4", "meet of ('a0b0', 'a0b1') is not below both"),
    "axiom 5": (lambda: relation_changed(square(8), ("a6b1", "a7b7"), F(6, 7)),
                "axiom 5", "relation('a6b1', top) != 1"),
    "axiom 6": (lambda: relation_changed(square(5), ("a1b2", "a3b3"), F(1, 4)),
                "axiom 6", "meet distribution fails at ('a1b2', 'a1b2', 'a3b3')"),
    "join closure": (lambda: join_changed(chain(64), (step(64, 60), step(64, 61)), "nowhere"),
                     "join closure", f"join of mask {3 << 60:b} is outside the carrier"),
    "axiom 7": (lambda: join_changed(chain(20), (step(20, 3), step(20, 5)), step(20, 4)),
                "axiom 7", "Fraction(5, 19) is not below the join of its subset"),
    "axiom 8": (lambda: join_changed(square(8), ("a1b3", "a2b0"), "a3b3"),
                "axiom 8", f"target 'a2b3', subset mask {1 << 16 | 1 << 11:b}"),
    "axiom 9": (lambda: chain_plus_diamond(36), "axiom 9", f"'p', subset mask {3 << 37:b}"),
    # the one pair whose join-irreducibles are not those of its members is p, q
    "axiom 9 on a pentagon": (lambda: chain_plus_diamond(60, pentagon=True), "axiom 9",
                              f"'r', subset mask {3 << 60:b}"),
}


@pytest.mark.parametrize("law", PLANTED_FRAMES)
def test_a_planted_violation_of_each_frame_law_is_named(law):
    build, clause, witness = PLANTED_FRAMES[law]
    frame = build()
    assert 20 <= len(frame) <= 128
    bad = check_frame(frame)
    assert (bad.clause, bad.witness) == (clause, witness)
    assert by_loops(check_frame, frame) == bad


def test_the_planted_frames_are_valid_before_planting():
    for frame in (chain(20), chain(64), square(5), square(8)):
        assert check_frame(frame) is None and by_loops(check_frame, frame) is None
    assert check_frame(chain(128)) is None


def projections(k):
    """The two projection points of `square(k)`, valid points of it."""
    return [{a: F(int(a[1 + 2 * c]), k - 1) for a in square(k).carrier} for c in (0, 1)]


IDENTITY_20 = {a: a for a in chain(20).carrier}

PLANTED_SYSTEMS = {
    "clause 1": (lambda: system(chain(20), [IDENTITY_20, with_entry(IDENTITY_20, step(20, 9), step(20, 4))]),
                 "clause 1", "('p1', Fraction(5, 19), Fraction(9, 19))"),
    "clause 1 on a square": (lambda: system(square(5), [projections(5)[0],
                                                        with_entry(projections(5)[1], "a2b3", F(1, 4))]),
                             "clause 1", "('p1', 'a0b2', 'a2b3')"),
    "clause 2": (lambda: system(square(5), [projections(5)[0], with_entry(projections(5)[1], "a2b3", ONE)]),
                 "clause 2", "('p1', 'a0b4', 'a2b3')"),
    "clause 2 at the top": (lambda: system(chain(20), [IDENTITY_20, with_entry(IDENTITY_20, ONE, F(1, 2))]),
                            "clause 2", "satisfaction of the top at 'p1' is 1/2, not 1 (empty meet)"),
    "clause 3": (lambda: system(chain(20), [IDENTITY_20, with_entry(IDENTITY_20, ZERO, step(20, 1))]),
                 "clause 3", "('p1', empty subset)"),
}


@pytest.mark.parametrize("law", PLANTED_SYSTEMS)
def test_a_planted_violation_of_each_system_clause_is_named(law):
    build, clause, witness = PLANTED_SYSTEMS[law]
    sys_ = build()
    assert check_frame(sys_.frame) is None
    bad = check_system(sys_)
    assert (bad.clause, bad.witness) == (clause, witness)
    assert by_loops(check_system, sys_) == bad
    # the point left as it was is a point of the frame
    assert check_system(system(sys_.frame, [{a: sys_.sat[("p0", a)] for a in sys_.frame.carrier}])) is None


def is_semilattice(frame):
    """The meet laws, instance by instance."""
    m, items = frame.meet_table, frame.carrier
    return (all(m[a, a] == a for a in items)
            and all(m[a, b] == m[b, a] for a in items for b in items)
            and all(m[m[a, b], c] == m[a, m[b, c]] for a in items for b in items for c in items))


def small_frames():
    """Frames of 2 to 9 elements: chains, squares, frames of generated
    spaces, and the diamond lattice below a chain (not distributive)."""
    yield from (chain(n) for n in (2, 3, 5, 8))
    yield from (square(2), square(3), chain_plus_diamond(2))
    for seed in range(4):
        for index in range(3):
            yield frame_from_space(generate_random_space(GeneratorConfig(seed=seed), index, max_opens=8))


def mutated(frame, rng):
    """The frame with one meet or relation entry overwritten at random."""
    items = frame.carrier
    key = (rng.choice(items), rng.choice(items))
    if rng.random() < 0.5:
        return meet_changed(frame, key, rng.choice(items))
    grades = sorted(set(frame.view.grades) | {ZERO, F(1, 3), F(1, 2), ONE})
    return relation_changed(frame, key, rng.choice(grades))


def test_single_entry_mutations_match_the_oracles_and_the_loops():
    rng = random.Random(23)
    clauses = collections.Counter()
    for base in small_frames():
        for _ in range(25):
            frame = mutated(base, rng)
            bad = check_frame(frame)
            assert by_loops(check_frame, frame) == bad
            expected = brute_frame_violation(frame) if is_semilattice(frame) else "meet-semilattice"
            assert (bad and bad.clause) == expected
            clauses[expected] += 1
    assert {"meet-semilattice", "axiom 1", "axiom 2", "axiom 3", "axiom 5", "axiom 6",
            None} <= set(clauses)


def test_single_entry_mutations_of_satisfaction_match_the_oracle_and_the_loops():
    rng = random.Random(29)
    clauses = collections.Counter()
    for frame in small_frames():
        if check_frame(frame) is not None:
            continue
        values = GradeSet.for_frame(frame)
        homs = enumerate_point_homs(frame, values)[:3]
        for _ in range(20):
            rows = [dict(zip(frame.carrier, p.values)) for p in homs]
            row = rng.choice(rows)
            row[rng.choice(frame.carrier)] = rng.choice(values.grades)
            sys_ = system(frame, rows)
            bad = check_system(sys_)
            assert by_loops(check_system, sys_) == bad
            # the checker tests the top first, the oracle its pairs first
            if row[frame.top] == ONE:
                assert (bad and bad.clause) == brute_system_violation(sys_)
            else:
                assert bad.clause == "clause 2" and brute_system_violation(sys_) is not None
            clauses[bad and bad.clause] += 1
    assert {"clause 1", "clause 2", "clause 3", None} <= set(clauses)


@pytest.mark.parametrize("base, points", [(chain(20), [IDENTITY_20]), (square(5), projections(5))],
                         ids=["chain20", "square25"])
def test_single_entry_mutations_at_scale_match_the_loops(base, points):
    rng = random.Random(31)
    clauses = collections.Counter()
    for _ in range(20):
        frame = mutated(base, rng)
        bad = check_frame(frame)
        assert by_loops(check_frame, frame) == bad
        clauses[bad and bad.clause] += 1
        rows = [dict(row) for row in points]
        row = rng.choice(rows)
        row[rng.choice(base.carrier)] = rng.choice(base.view.grades)
        sys_ = system(base, rows)
        assert by_loops(check_system, sys_) == check_system(sys_)
        clauses[check_system(sys_) and check_system(sys_).clause] += 1
    assert len(clauses) >= 4


def every_small_change():
    """Every symmetric change of one meet entry of four- and five-element
    lattices, and every change of two relation entries of the three-chain
    to grades among 0, 1/3, 1/2, 2/3 and 1."""
    for base in (chain(4), square(2), chain_plus_diamond(1)):
        items, _, meet, _, _ = tables(base)
        for a, b in itertools.combinations_with_replacement(items, 2):
            for c in items:
                yield rebuilt(base, meet=with_entry(with_entry(meet, (a, b), c), (b, a), c))
    grades = (ZERO, F(1, 3), F(1, 2), F(2, 3), ONE)
    relation = tables(chain(3))[3]
    for (k1, g1), (k2, g2) in itertools.combinations(itertools.product(relation, grades), 2):
        yield rebuilt(chain(3), relation=with_entry(with_entry(relation, k1, g1), k2, g2))


def test_every_small_change_of_meet_or_relation_is_named_as_the_loops_name_it():
    clauses = collections.Counter()
    for frame in every_small_change():
        bad = check_frame(frame)
        assert by_loops(check_frame, frame) == bad
        clauses[bad and bad.clause] += 1
    assert clauses["meet-semilattice"] > 50 and clauses["axiom 3"] > 50 and clauses[None] > 10


def test_every_small_change_of_satisfaction_is_named_as_the_loops_name_it():
    grades = (ZERO, F(1, 3), F(1, 2), F(2, 3), ONE)
    clauses = collections.Counter()
    for base in (chain(3), chain(4), square(2)):
        values = GradeSet.for_frame(base)
        for p in enumerate_point_homs(base, values):
            point = dict(zip(base.carrier, p.values))
            for (a, g), (b, h) in itertools.combinations(itertools.product(base.carrier, grades), 2):
                sys_ = system(base, [with_entry(with_entry(point, a, g), b, h)])
                bad = check_system(sys_)
                assert by_loops(check_system, sys_) == bad
                clauses[bad and bad.clause] += 1
    assert {"clause 1", "clause 2", "clause 3", None} <= set(clauses)
