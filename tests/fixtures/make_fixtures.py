"""Regenerate the fixture corpus. Run from the repository root:

    python tests/fixtures/make_fixtures.py

Valid fixtures are written through the canonical serializers so the
byte-identity round-trip tests hold by construction. Invalid fixtures are
either structurally broken JSON documents (schema errors at load) or
loadable structures that a checker must reject with the clause recorded in
manifest.json.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from itertools import chain, combinations
from pathlib import Path

from graded_topos.frames import GradedFrame, frame_from_space
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe
from graded_topos.functors import j_object
from graded_topos.logic.parser import parse_formula
from graded_topos.logic.semantics import Interpretation
from graded_topos.serialization import (
    dumps_canonical,
    frame_to_json,
    save_formulas,
    save_frame,
    save_fuzzy_set,
    save_interpretation,
    save_point_map,
    save_space,
    save_system,
)
from graded_topos.spaces import generate_topology
from graded_topos.systems import GradedSystem

HERE = Path(__file__).parent


def subsets(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def frame_from_order(carrier, top, meets, joins, relation):
    join_table = {frozenset(s): joins(frozenset(s)) for s in subsets(carrier)}
    return GradedFrame.from_tables(carrier, top, meets, join_table, relation)


def two_chain(relation_override=None, join_empty="bot"):
    carrier = ("bot", "top")
    meets = {("bot", "bot"): "bot", ("bot", "top"): "bot",
             ("top", "bot"): "bot", ("top", "top"): "top"}
    relation = {("bot", "bot"): F(1), ("bot", "top"): F(1),
                ("top", "bot"): F(0), ("top", "top"): F(1)}
    relation.update(relation_override or {})
    joins = lambda s: "top" if "top" in s else ("bot" if s else join_empty)
    return frame_from_order(carrier, "top", meets, joins, relation)


def three_chain(sat=None):
    carrier = ("g0", "g1", "g2")  # 0 < 1/2 < 1
    rank = {c: i for i, c in enumerate(carrier)}
    meets = {(a, b): (a if rank[a] <= rank[b] else b) for a in carrier for b in carrier}
    arrow = lambda a, b: F(1) if rank[a] <= rank[b] else (F(0) if b == "g0" else F(1, 2))
    relation = {(a, b): arrow(a, b) for a in carrier for b in carrier}
    joins = lambda s: carrier[max((rank[c] for c in s), default=0)]
    return frame_from_order(carrier, "g2", meets, joins, relation)


def space_with_opens(count):
    """The first three-point space over grades {0, 1/2, 1}, generated by two
    or three fuzzy sets in lexicographic order, with exactly `count` opens."""
    u = Universe.of("x1", "x2", "x3")
    grades = (F(0), F(1, 2), F(1))
    sets = [FuzzySet(u, (a, b, c)) for a in grades for b in grades for c in grades]
    for size in (2, 3):
        for generators in combinations(sets, size):
            space = generate_topology(u, list(generators))
            if len(space) == count:
                return space
    raise ValueError(f"no space with {count} opens")


def main(out: Path = HERE) -> None:
    """Write the corpus into `out`, the invalid fixtures into `out / "invalid"`."""
    invalid_dir = out / "invalid"
    invalid_dir.mkdir(parents=True, exist_ok=True)

    u = Universe.of("x1", "x2")
    t1 = FuzzySet(u, (F(1, 2), F(0)))
    t2 = FuzzySet(u, (F(1, 2), F(1)))
    space = generate_topology(u, [t1, t2])
    save_space(space, out / "space_half.json")
    save_space(generate_topology(u, []), out / "space_indiscrete.json")

    save_fuzzy_set(t2, out / "fuzzy_set_half.json")
    save_point_map(PointMap(u, Universe.of("y1"), ("y1", "y1")), out / "point_map_collapse.json")

    save_frame(two_chain(), out / "frame_two_chain.json")
    save_frame(three_chain(), out / "frame_three_chain.json")

    save_system(j_object(space), out / "system_membership.json")

    # a table frame of 16384 subsets, and a copy with one wrong join of three
    # elements (kept out of invalid/, whose files the benchmark lists by name)
    fourteen = frame_from_space(space_with_opens(14))
    save_frame(fourteen, out / "frame_fourteen_opens.json")
    payload = frame_to_json(fourteen)
    if payload["join"]["e4,e7,e9"] == payload["top"]:
        raise ValueError("the planted join must differ from the true one")
    payload["join"]["e4,e7,e9"] = payload["top"]
    (out / "frame_fourteen_opens_wrong_join.json").write_text(dumps_canonical(payload))

    interp = Interpretation(
        ("d1", "d2"),
        {1: "d1"},
        {"f": {("d1",): "d2", ("d2",): "d2"}},
        {"p": {("d1",): F(3, 10), ("d2",): F(1, 2)},
         "q": {("d1",): F(0), ("d2",): F(1)}},
    )
    save_interpretation(interp, out / "interp_basic.json")
    pool = [parse_formula(text) for text in
            ["p(x1)", "q(x1)", "(p(x1) & q(x2))", "E x2. q(x2)", "(p(x1) | (x1 = c1))"]]
    save_formulas(pool, out / "pool_basic.json")

    manifest = {}

    def invalid(name, kind, clause, payload=None, saver=None, value=None):
        path = invalid_dir / name
        if payload is not None:
            path.write_text(dumps_canonical(payload))
        else:
            saver(value, path)
        manifest[name] = {"kind": kind, "clause": clause}

    # --- checker-level rejects (load fine, checker names the clause)
    full = {"x1": "1/1", "x2": "1/1"}
    bot = {"x1": "0/1", "x2": "0/1"}
    invalid("space_missing_bottom.json", "space", "clause 1",
            payload={"universe": ["x1", "x2"], "opens": [full]})
    invalid("space_missing_union.json", "space", "clause 2",
            payload={"universe": ["x1", "x2"],
                     "opens": [bot, full,
                               {"x1": "1/2", "x2": "0/1"}, {"x1": "0/1", "x2": "1/2"}]})
    invalid("space_missing_intersection.json", "space", "clause 3",
            payload={"universe": ["x1", "x2"],
                     "opens": [bot, full,
                               {"x1": "1/2", "x2": "1/1"}, {"x1": "1/1", "x2": "1/2"}]})

    invalid("frame_reflexivity.json", "frame", "axiom 1",
            saver=save_frame, value=two_chain({("bot", "bot"): F(1, 2)}))
    invalid("frame_antisymmetry.json", "frame", "axiom 2",
            saver=save_frame, value=two_chain({("top", "bot"): F(1)}))
    good3 = three_chain()
    rel = dict(good3.relation)
    rel[("g2", "g0")] = F(1, 2)  # above the arrow, breaks the chain through g0
    rel[("g2", "g1")] = F(0)
    bad3 = GradedFrame.from_masks(good3.carrier, good3.top, good3.meet_table,
                                  {m: good3.carrier[j] for m, j in enumerate(good3.join_table)}, rel)
    invalid("frame_transitivity.json", "frame", "axiom 3", saver=save_frame, value=bad3)

    diamond_carrier = ("bot", "a", "b", "top")
    order = {c: {"bot": {"bot"}, "a": {"bot", "a"}, "b": {"bot", "b"},
                 "top": set(diamond_carrier)}[c] for c in diamond_carrier}
    def dmeet(x, y):
        lower = order[x] & order[y]
        return max(lower, key=lambda c: len(order[c]))
    meets = {(x, y): dmeet(x, y) for x in diamond_carrier for y in diamond_carrier}
    def djoin(s):
        if "top" in s or {"a", "b"} <= set(s):
            return "top"
        if "a" in s:
            return "a"
        if "b" in s:
            return "b"
        return "bot"
    relation = {(x, y): (F(1) if x in order[y] else F(0))
                for x in diamond_carrier for y in diamond_carrier}
    relation[("top", "a")] = relation[("top", "b")] = F(1, 2)
    relation[("a", "b")] = relation[("b", "a")] = F(1, 2)
    diamond = frame_from_order(diamond_carrier, "top", meets, djoin, relation)
    invalid("frame_meet_distribution.json", "frame", "axiom 6",
            saver=save_frame, value=diamond)

    bad_meet = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    rel2 = {("a", "a"): F(1), ("a", "b"): F(1), ("b", "a"): F(0), ("b", "b"): F(1)}
    noncomm = GradedFrame.from_tables(
        ("a", "b"), "b", bad_meet,
        {frozenset(): "a", frozenset(["a"]): "a", frozenset(["b"]): "b",
         frozenset(["a", "b"]): "b"}, rel2)
    invalid("frame_meet_semilattice.json", "frame", "meet-semilattice",
            saver=save_frame, value=noncomm)

    invalid("frame_empty_join.json", "frame", "axiom 8",
            saver=save_frame, value=two_chain(join_empty="top"))

    points = Universe.of("x1")
    invalid("system_top_grade.json", "system", "clause 2",
            saver=save_system,
            value=GradedSystem.from_table(points, two_chain(),
                                          {("x1", "bot"): F(0), ("x1", "top"): F(1, 2)}))
    invalid("system_modus_ponens.json", "system", "clause 1",
            saver=save_system,
            value=GradedSystem.from_table(points, three_chain(),
                                          {("x1", "g0"): F(0), ("x1", "g1"): F(0), ("x1", "g2"): F(1)}))
    invalid("system_empty_join.json", "system", "clause 3",
            saver=save_system,
            value=GradedSystem.from_table(points, two_chain(),
                                          {("x1", "bot"): F(1, 2), ("x1", "top"): F(1)}))

    # --- schema-level rejects (loading raises)
    invalid("fuzzy_set_grade_range.json", "fuzzy_set", "schema",
            payload={"universe": ["x1"], "membership": {"x1": "3/2"}})
    chain2 = json.loads(dumps_canonical(json.loads((out / "frame_two_chain.json").read_text())))
    del chain2["meet"]["bot,top"]
    invalid("frame_nontotal_meet.json", "frame", "schema", payload=chain2)
    invalid("interp_nontotal_predicate.json", "interpretation", "schema",
            payload={"domain": ["d1", "d2"], "constants": {},
                     "functions": {}, "predicates": {"p": {"d1": "1/2"}}})

    (invalid_dir / "manifest.json").write_text(dumps_canonical(manifest))
    print(f"wrote {len(manifest)} invalid fixtures and the valid corpus")


if __name__ == "__main__":
    main()
