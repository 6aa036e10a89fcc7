import itertools
from fractions import Fraction as F

import pytest

from conftest import brute_frame_violation, brute_frame_hom_ok
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
from graded_topos.functors import j_morphism
from graded_topos.fuzzy_sets import Universe, empty_set, full_set
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_random_space,
)
from graded_topos.grades import ONE, ZERO, godel_arrow
from graded_topos.spaces import generate_topology


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
    other = GradedFrame.from_tables(chain2.carrier, chain2.top, chain2.meet_table,
                                    {**chain2.join_table, frozenset(("0", "1")): "0"},
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
    bad = GradedFrame(chain.carrier, chain.top, chain.meet_table, chain.relation,
                      lambda s: F(3, 4) if len(s) == 2 else max(s, default=ZERO))
    assert check_frame(bad).clause == "join closure"
    found = check_frame_hom(FrameHom(bad, chain, {g: g for g in chain.carrier}))
    assert found == Violation("frame-hom", "join closure",
                              "join of subset mask 11 is outside the source carrier")
