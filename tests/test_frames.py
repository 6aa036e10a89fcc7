import itertools
from fractions import Fraction as F

import pytest

from conftest import (
    UNCLOSED,
    brute_frame_violation,
    brute_frame_hom_ok,
    brute_join_table,
    space_with_opens,
    unclosed_space,
)
from graded_topos.checks import Violation
from graded_topos.errors import MixedCarrier, SchemaError
from graded_topos.frames import (
    FrameHom,
    GradedFrame,
    chain_frame,
    check_frame,
    check_frame_hom,
    compose_frame_hom,
    finite_meet,
    frame_from_space,
)
from graded_topos.functors import GradeSet, enumerate_point_homs, j_morphism
from graded_topos.fuzzy_sets import FuzzySet, Universe, empty_set, full_set
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_random_space,
)
from graded_topos.grades import ONE, ZERO, godel_arrow
from graded_topos.serialization import dumps_canonical, frame_from_json, frame_to_json
from graded_topos.spaces import GradedSpace, generate_topology
from graded_topos.systems import GradedSystem, check_system


def two_chain(relation_override=None):
    """The two-element frame 0 < 1 with the arrow as relation."""
    carrier = ("0", "1")
    meets = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    relation = {("0", "0"): ONE, ("0", "1"): ONE, ("1", "0"): ZERO, ("1", "1"): ONE}
    relation.update(relation_override or {})
    joins = {frozenset(): "0", frozenset("0"): "0", frozenset("1"): "1",
             frozenset(("0", "1")): "1"}
    return GradedFrame.from_tables(carrier, "1", meets, joins, relation)


def test_two_chain_is_valid_by_both_routes():
    frame = two_chain()
    assert check_frame(frame) is None
    assert brute_frame_violation(frame) is None
    assert frame.bottom == "0"


def test_broken_reflexivity_is_axiom_1():
    bad = check_frame(two_chain({("0", "0"): F(1, 2)}))
    assert isinstance(bad, Violation)
    assert bad.clause == "axiom 1"


def test_broken_antisymmetry_is_axiom_2():
    bad = check_frame(two_chain({("1", "0"): ONE}))
    assert isinstance(bad, Violation)
    assert bad.clause == "axiom 2"


def test_meet_must_be_a_semilattice():
    meets = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    relation = {(x, y): ONE for x in "ab" for y in "ab"}
    joins = {frozenset(): "a", frozenset("a"): "a", frozenset("b"): "b",
             frozenset(("a", "b")): "b"}
    frame = GradedFrame.from_tables(("a", "b"), "b", meets, joins, relation)
    bad = check_frame(frame)
    assert isinstance(bad, Violation)
    assert bad.clause == "meet-semilattice"


def test_empty_join_must_be_the_bottom():
    carrier = ("0", "1")
    meets = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    relation = {("0", "0"): ONE, ("0", "1"): ONE, ("1", "0"): ZERO, ("1", "1"): ONE}
    joins = {frozenset(): "1", frozenset("0"): "0", frozenset("1"): "1",
             frozenset(("0", "1")): "1"}
    frame = GradedFrame.from_tables(carrier, "1", meets, joins, relation)
    bad = check_frame(frame)
    assert isinstance(bad, Violation)
    assert bad.clause == "axiom 8"
    assert str(bad) == "frame: axiom 8 violated at target '0', empty subset (bottom not below it)"


def test_structural_validation_of_tables():
    with pytest.raises(SchemaError):
        GradedFrame.from_tables(("a",), "b", {("a", "a"): "a"},
                                {frozenset(): "a", frozenset("a"): "a"}, {("a", "a"): ONE})
    with pytest.raises(SchemaError):  # join table not total
        GradedFrame.from_tables(("a",), "a", {("a", "a"): "a"},
                                {frozenset(): "a"}, {("a", "a"): ONE})
    with pytest.raises(SchemaError, match="not a subset of the carrier"):
        GradedFrame.from_tables(("a",), "a", {("a", "a"): "a"},
                                {frozenset(): "a", frozenset("b"): "a"}, {("a", "a"): ONE})


def test_chain_frame_is_valid():
    frame = chain_frame([ZERO, F(1, 2), ONE])
    assert check_frame(frame) is None
    assert brute_frame_violation(frame) is None
    assert frame.bottom == ZERO
    with pytest.raises(SchemaError):
        chain_frame([F(1, 2), ONE])  # missing 0


@pytest.mark.parametrize("seed", range(10))
def test_space_frames_are_valid_by_both_routes(seed):
    space = generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=6)
    frame = frame_from_space(space)
    assert check_frame(frame) is None
    assert brute_frame_violation(frame) is None
    assert len(frame.carrier) == len(space.opens)


def test_indiscrete_space_frame_relation():
    u = Universe.of("x1", "x2")
    frame = frame_from_space(generate_topology(u, []))
    bottom, top = empty_set(u), full_set(u)
    assert frame.relation[(bottom, top)] == ONE
    assert frame.relation[(top, bottom)] == ZERO
    assert frame.top == top
    assert frame.bottom == bottom


def test_finite_meet_folds():
    frame = two_chain()
    assert finite_meet(frame, []) == "1"
    assert finite_meet(frame, ["0"]) == "0"
    assert finite_meet(frame, ["0", "1"]) == "0"


def test_identity_hom_is_valid():
    frame = two_chain()
    hom = FrameHom.identity(frame)
    assert check_frame_hom(hom) is None
    assert brute_frame_hom_ok(hom)


def test_a_frame_hom_applies_as_its_map():
    """h(a) is h.map[a], for a hom built from a map and for one built from
    target positions, whose map is decoded on its first read."""
    chain = chain_frame([ZERO, F(1, 2), ONE])
    for hom in (FrameHom(chain, chain, {ZERO: ZERO, F(1, 2): ONE, ONE: ONE}), FrameHom.identity(chain)):
        assert [hom(a) for a in chain.carrier] == [hom.map[a] for a in chain.carrier]
    assert [hom(a) for a in chain.carrier] == list(chain.carrier)


def test_top_preservation_is_required():
    frame = two_chain()
    hom = FrameHom(frame, frame, {"0": "0", "1": "0"})
    bad = check_frame_hom(hom)
    assert isinstance(bad, Violation)
    assert bad.clause == "top preservation"


def test_hom_map_must_be_total():
    frame = two_chain()
    with pytest.raises(SchemaError):
        FrameHom(frame, frame, {"0": "0"})


def test_hom_map_keys_must_be_in_the_source_carrier():
    # the identity on the carrier, with a stray key that the checks never
    # read but that `is_bijective` and `inverse` would count
    chain = chain_frame([ZERO, ONE])
    with pytest.raises(SchemaError, match="map: 'stray' is outside the source carrier"):
        FrameHom(chain, chain, {ZERO: ZERO, ONE: ONE, "stray": ZERO})
    exact = FrameHom(chain, chain, {ZERO: ZERO, ONE: ONE})
    assert check_frame_hom(exact) is None and exact.is_bijective()
    assert exact.inverse().map == exact.map


@pytest.mark.parametrize("seed", range(6))
def test_preimage_homs_pass_both_routes(seed):
    f, g, first, middle, last = generate_continuous_chain(GeneratorConfig(seed=seed), 0, max_opens=6)
    hf = j_morphism(f, first, middle).frame_hom
    hg = j_morphism(g, middle, last).frame_hom
    for hom in (hf, hg):
        assert check_frame_hom(hom) is None
        assert brute_frame_hom_ok(hom)
    composite = compose_frame_hom(hg, hf)
    assert check_frame_hom(composite) is None
    assert brute_frame_hom_ok(composite)


def test_compose_identity_laws():
    frame = two_chain()
    ident = FrameHom.identity(frame)
    swap_free = FrameHom(frame, frame, {"0": "0", "1": "1"})
    assert compose_frame_hom(ident, swap_free).map == swap_free.map
    assert compose_frame_hom(swap_free, ident).map == swap_free.map


def test_compose_requires_matching_endpoints():
    chain2 = two_chain()
    chain3 = chain_frame([ZERO, F(1, 2), ONE])
    with pytest.raises(MixedCarrier):
        compose_frame_hom(FrameHom.identity(chain2), FrameHom.identity(chain3))
    # equal tables match; a single differing join entry does not
    compose_frame_hom(FrameHom.identity(chain2), FrameHom.identity(two_chain()))
    joins = {frozenset(): "0", frozenset("0"): "0", frozenset("1"): "1",
             frozenset(("0", "1")): "0"}
    other = GradedFrame.from_tables(chain2.carrier, chain2.top, chain2.meet_table, joins,
                                    chain2.relation)
    with pytest.raises(MixedCarrier):
        compose_frame_hom(FrameHom.identity(chain2), FrameHom.identity(other))


def test_relation_shrinking_is_detected():
    # the hom 3-chain -> 2-chain collapsing 1/2 downward shrinks R(1/2, 1)? no:
    # collapsing upward breaks clause (iii) at (1, 1/2) instead
    chain3 = chain_frame([ZERO, F(1, 2), ONE])
    chain2 = chain_frame([ZERO, ONE])
    down = FrameHom(chain3, chain2, {ZERO: ZERO, F(1, 2): ZERO, ONE: ONE})
    up = FrameHom(chain3, chain2, {ZERO: ZERO, F(1, 2): ONE, ONE: ONE})
    bad_down = check_frame_hom(down)
    assert isinstance(bad_down, Violation) and bad_down.clause == "clause (iii)"
    assert check_frame_hom(up) is None and brute_frame_hom_ok(up)


def test_join_preservation_into_a_table_target_that_does_not_fold():
    # the chain 0 < 1/3 < 2/3 < 1 in memory, mapped label by label onto the
    # same chain as a table whose join of {g1, g2, g3} is g1: every pair join
    # is preserved, so the source's pair masks alone would pass the map
    grades = (ZERO, F(1, 3), F(2, 3), ONE)
    source = chain_frame(grades)
    label = {g: f"g{i}" for i, g in enumerate(grades)}
    subsets = [s for k in range(5) for s in itertools.combinations(grades, k)]
    joins = {frozenset(label[g] for g in s): label[max(s, default=ZERO)] for s in subsets}
    joins[frozenset(("g1", "g2", "g3"))] = "g1"
    target = GradedFrame.from_tables(
        label.values(), "g3",
        {(label[a], label[b]): label[min(a, b)] for a in grades for b in grades},
        joins,
        {(label[a], label[b]): godel_arrow(a, b) for a in grades for b in grades})
    check_frame(target)
    assert "folds" not in vars(target.view)  # the fold pass waits for its first reader
    assert source.view.folds and not target.view.folds
    hom = FrameHom(source, target, label)
    bad = check_frame_hom(hom)
    assert not brute_frame_hom_ok(hom)
    assert str(bad) == "frame-hom: clause (ii) violated at join of subset mask 1110 is not preserved"


def test_a_source_join_outside_the_carrier_is_a_join_closure_violation():
    chain = chain_frame([ZERO, F(1, 2), ONE])
    bad = GradedFrame.from_join_fn(chain.carrier, chain.top, chain.meet_table,
                                   lambda s: F(3, 4) if len(s) == 2 else max(s, default=ZERO),
                                   chain.relation)
    assert check_frame(bad).clause == "join closure"
    found = check_frame_hom(FrameHom(bad, chain, {g: g for g in chain.carrier}))
    assert found == Violation("frame-hom", "join closure",
                              "join of subset mask 11 is outside the source carrier")


def pair_masks(n):
    return sorted({0} | {1 << i | 1 << j for i in range(n) for j in range(n)})


@pytest.mark.parametrize("opens", range(2, 15))
def test_a_frame_file_holds_the_brute_force_join_table_and_is_read_on_its_pairs(opens):
    # written from the in-memory frame's pair joins, the table equals the
    # join of every subset; read back, it passes the lowest-member fold
    space = space_with_opens(opens)
    payload = frame_to_json(frame_from_space(space))
    assert dumps_canonical(payload) == dumps_canonical({**payload, "join": brute_join_table(space)})
    table = frame_from_json(payload)
    assert table.view.masks == pair_masks(opens)
    assert check_frame(table) is None
    assert frame_to_json(table) == payload


def _planted(opens, key, value):
    """The table of the frame of `space_with_opens(opens)`, read from its
    file, with the join at `key` replaced by `value` (a label, or "top")."""
    payload = frame_to_json(frame_from_space(space_with_opens(opens)))
    payload["join"][",".join(sorted(key.split(",")))] = payload["top"] if value == "top" else value
    return frame_from_json(payload)


def _first_row_seeing(frame, key):
    """The first map into {0, 1/2, 1} that is a hom of the unplanted frame
    and tells the planted join from the join of `key`'s members."""
    source = frame_from_space(space_with_opens(len(frame)))
    for p in enumerate_point_homs(source, GradeSet((ZERO, F(1, 2), ONE))):
        row = dict(zip(frame.carrier, p.values))
        if row[frame.join_fn(frozenset(key.split(",")))] != max(row[a] for a in key.split(",")):
            return row
    raise AssertionError("no row sees the planted join")


# opens, planted key and value; the witnesses of check_frame, of check_system
# on a one-point system, and of check_frame_hom of that row into the chain
PLANTED = {
    8: ("e1,e3,e4", "top", "frame: axiom 8 violated at target 'e3', subset mask 11010",
        "system: clause 3 violated at ('p', subset mask 11010)",
        "frame-hom: clause (ii) violated at join of subset mask 11010 is not preserved"),
    10: ("e2,e5,e6,e8", "e0", "frame: axiom 7 violated at 'e2' is not below the join of its subset",
         "system: clause 3 violated at ('p', subset mask 101100100)",
         "frame-hom: clause (ii) violated at join of subset mask 101100100 is not preserved"),
    12: ("e3,e4,e7", "top", "frame: axiom 8 violated at target 'e8', subset mask 10011000",
         "system: clause 3 violated at ('p', subset mask 10011000)",
         "frame-hom: clause (ii) violated at join of subset mask 10011000 is not preserved"),
    14: ("e5,e6,e9,e11", "top", "frame: axiom 8 violated at target 'e12', subset mask 101001100000",
         "system: clause 3 violated at ('p', subset mask 101001100000)",
         "frame-hom: clause (ii) violated at join of subset mask 101001100000 is not preserved"),
}


@pytest.mark.parametrize("opens", sorted(PLANTED))
def test_planted_joins_of_three_or_more_elements_are_named_on_every_subset(opens):
    # every pair instance holds; one larger join is wrong, so the table
    # fails the lowest-member fold and is checked on every subset
    key, value, frame_witness, system_witness, hom_witness = PLANTED[opens]
    frame = _planted(opens, key, value)
    assert frame.view.masks == list(range(1 << opens))
    assert str(check_frame(frame)) == frame_witness
    row = _first_row_seeing(frame, key)
    system = GradedSystem.from_table(Universe.of("p"), frame, {("p", a): g for a, g in row.items()})
    assert str(check_system(system)) == system_witness
    chain = chain_frame((ZERO, F(1, 2), ONE))
    assert str(check_frame_hom(FrameHom(frame, chain, row))) == hom_witness


def test_a_violation_on_the_pairs_of_a_folding_table_is_named_on_every_subset():
    # the join of {e1, e6} is e7, and every larger join is refolded on its
    # lowest member, so the table passes the lowest-member fold and is read
    # on its pairs; each checker's pair run finds a violation, and the run
    # over every subset names an earlier one
    payload = frame_to_json(frame_from_space(space_with_opens(8)))
    joins = payload["join"]
    joins["e1,e6"] = "e7"
    for size in range(3, 9):
        for combo in itertools.combinations(range(8), size):
            rest = joins[",".join(f"e{i}" for i in combo[1:])]
            joins[",".join(f"e{i}" for i in combo)] = joins[",".join(sorted({f"e{combo[0]}", rest}))]
    frame = frame_from_json(payload)
    assert frame.view.masks == pair_masks(8)
    assert str(check_frame(frame)) == "frame: axiom 8 violated at target 'e6', subset mask 101010"
    row = dict(zip(frame.carrier, (ZERO, ZERO, F(1, 2), F(1, 2), ONE, F(1, 2), F(1, 2), ONE)))
    system = GradedSystem.from_table(Universe.of("p"), frame, {("p", a): g for a, g in row.items()})
    assert str(check_system(system)) == "system: clause 3 violated at ('p', subset mask 101010)"
    chain = chain_frame((ZERO, F(1, 2), ONE))
    assert (str(check_frame_hom(FrameHom(frame, chain, row)))
            == "frame-hom: clause (ii) violated at join of subset mask 101010 is not preserved")


@pytest.mark.parametrize("lacking", ["top", "intersection", "empty open"])
def test_frame_from_space_refuses_a_space_that_is_not_closed(lacking):
    with pytest.raises(SchemaError) as refused:
        frame_from_space(unclosed_space(lacking))
    assert str(refused.value) == UNCLOSED[lacking][1]


def test_a_space_without_a_pairwise_union_fails_join_closure():
    frame = frame_from_space(unclosed_space("union"))
    assert str(check_frame(frame)) == "frame: join closure violated at join of mask 110 is outside the carrier"


def test_a_violation_on_opens_names_each_open_by_its_grades():
    u = Universe.of("x1", "x2")
    half = FuzzySet(u, (F(1, 2), ZERO))
    frame = frame_from_space(generate_topology(u, [half]))
    relation = dict(frame.relation)
    relation[(half, half)] = F(1, 2)
    bad = GradedFrame.from_join_fn(frame.carrier, frame.top, frame.meet_table, frame.join_fn, relation)
    assert str(check_frame(bad)) == "frame: axiom 1 violated at relation({'x1': '1/2', 'x2': '0'}, same) != 1"
    meet = dict(frame.meet_table)
    meet[(half, frame.top)] = frame.top
    bad = GradedFrame.from_join_fn(frame.carrier, frame.top, meet, frame.join_fn, frame.relation)
    assert str(check_frame(bad)) == ("frame: meet-semilattice violated at meet not commutative at "
                                     "({'x1': '1/2', 'x2': '0'}, {'x1': '1', 'x2': '1'})")


def view_fields(frame):
    v = frame.view
    return v.meet, v.grades, v.rel, v.top, v.bottom, v.masks, v.joins


def test_a_frame_and_its_file_have_the_same_view():
    # the second grade of the middle open, 1/2, is no inclusion degree: the
    # in-memory view must rank the relation in its own grades, as a file's is
    u = Universe.of("x1", "x2")
    spaces = [GradedSpace(u, (empty_set(u), FuzzySet(u, (F(1, 4), F(1, 2))), full_set(u)))]
    spaces += [generate_random_space(GeneratorConfig(seed=seed), i, max_opens=12)
               for seed in range(6) for i in range(2)]
    for space in spaces:
        frame = frame_from_space(space)
        assert view_fields(frame_from_json(frame_to_json(frame))) == view_fields(frame)
    assert frame_from_space(spaces[0]).view.grades == (ZERO, F(1, 4), ONE)


def test_the_chain_frame_is_the_table_frame_of_its_chain():
    grades = (ZERO, F(1, 4), F(1, 2), F(3, 4), ONE)
    subsets = [s for k in range(len(grades) + 1) for s in itertools.combinations(grades, k)]
    chain = chain_frame(grades)
    table = GradedFrame.from_tables(grades, ONE, {(a, b): min(a, b) for a in grades for b in grades},
                                    {frozenset(s): max(s, default=ZERO) for s in subsets},
                                    {(a, b): godel_arrow(a, b) for a in grades for b in grades})
    assert view_fields(chain) == view_fields(table) and chain.view.index == table.view.index
    assert chain.join_table is None and table.join_table is not None
    for s in subsets:
        assert chain.join_fn(frozenset(s)) == max(s, default=ZERO)


def test_a_join_list_builds_the_view_a_join_map_builds():
    # the list the frame reader hands over, and the same values keyed by mask
    for seed in range(4):
        space = generate_random_space(GeneratorConfig(seed=seed, max_points=4), 0, max_opens=10)
        frame = frame_from_json(frame_to_json(frame_from_space(space)))
        by_mask = [frame.carrier[j] for j in frame.join_table]
        views = [GradedFrame.from_masks(frame.carrier, frame.top, frame.meet_table, table,
                                        frame.relation).view
                 for table in (by_mask, dict(enumerate(by_mask)))]
        assert views[0] == views[1] == frame.view
