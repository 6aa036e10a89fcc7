import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scan_join_keys, space_with_opens
from graded_topos import serialization
from graded_topos.checks import Violation
from graded_topos.errors import ParseError, SchemaError
from graded_topos.frames import GradedFrame, check_frame, frame_from_space, same_frame
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe
from graded_topos.functors import GradeSet, ext_object, j_object, s_object
from graded_topos.generators import GeneratorConfig, generate_random_space
from graded_topos.serialization import (
    dumps_canonical,
    frame_from_json,
    frame_to_json,
    load_formulas,
    load_frame,
    load_fuzzy_set,
    load_interpretation,
    load_point_map,
    load_space,
    load_system,
    save_formulas,
    save_frame,
    save_fuzzy_set,
    save_interpretation,
    save_point_map,
    save_space,
    save_system,
    system_from_json,
    system_to_json,
)
from graded_topos.grades import ONE
from graded_topos.spaces import check_space, generate_topology
from graded_topos.systems import check_system

FIXTURES = Path(__file__).parent / "fixtures"
INVALID = FIXTURES / "invalid"

LOADERS = {
    "space": load_space,
    "frame": load_frame,
    "system": load_system,
    "interp": load_interpretation,
    "pool": load_formulas,
    "fuzzy": load_fuzzy_set,
    "point": load_point_map,
}

SAVERS = {
    "space": save_space,
    "frame": save_frame,
    "system": save_system,
    "interp": save_interpretation,
    "pool": save_formulas,
    "fuzzy": save_fuzzy_set,
    "point": save_point_map,
}


def _kind_of(path: Path) -> str:
    return path.name.split("_")[0]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_round_trip_is_byte_identical(path, tmp_path):
    kind = _kind_of(path)
    value = LOADERS[kind](path)
    out = tmp_path / path.name
    SAVERS[kind](value, out)
    assert out.read_bytes() == path.read_bytes()


def test_canonical_dump_shape():
    text = dumps_canonical({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# --- the canonical writer and the corpus ------------------------------------------

def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.json")), ids=lambda p: p.name)
def test_the_writer_emits_the_bytes_of_json_dumps_on_every_fixture(path):
    value = json.loads(path.read_text())
    assert dumps_canonical(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [
    'say "hi"', "back\\slash\\", "\x00\x01\b\f\n\r\t\x1f\x7f", "grade ½ – é ü ∧",
    "astral \U0001F600 \U00010000 \U0010FFFF", "",
    {'"key"': "\\", "é": "\U0001F600", "": "", "\n": "\x00"},
    {}, [], {"a": {}, "b": []}, [{}, []],
    [{"b": "1", "a": "2"}, {"c": [{"d": "e"}]}],
    [0, -7, 10 ** 30, True, False, None], {"t": True, "f": False, "n": None, "i": 3},
    0, True, None, "x", ("a", ("b", 1), {"c": ()}),
])
def test_the_writer_emits_the_bytes_of_json_dumps_on_edge_values(value):
    assert dumps_canonical(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: {}}, [{"a": {2.5: []}}]])
def test_the_writer_refuses_an_object_key_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@given(_JSON_VALUES)
def test_the_writer_emits_the_bytes_of_json_dumps_on_any_json_value(value):
    assert dumps_canonical(value) == _json_dumps(value)


def test_the_fixture_corpus_regenerates_byte_for_byte(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    make_fixtures.main(tmp_path)
    committed = sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.json"))
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json")) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_loaded_fixtures_pass_their_checkers():
    space = load_space(FIXTURES / "space_half.json")
    assert not isinstance(check_space(space.universe, list(space.opens)), Violation)
    frame = load_frame(FIXTURES / "frame_two_chain.json")
    assert check_frame(frame) is None
    system = load_system(FIXTURES / "system_membership.json")
    assert check_system(system) is None


def test_parse_error_on_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_space(path)
    with pytest.raises(ParseError):
        load_space(tmp_path / "does_not_exist.json")


def test_manifest_covers_at_least_ten_invalid_fixtures():
    manifest = json.loads((INVALID / "manifest.json").read_text())
    assert len(manifest) >= 10
    checker_level = [n for n, info in manifest.items() if info["clause"] != "schema"]
    assert len(checker_level) >= 10


def _reject(path: Path, kind: str):
    if kind == "space":
        space = load_space(path)
        return check_space(space.universe, list(space.opens))
    if kind == "frame":
        return check_frame(load_frame(path))
    if kind == "system":
        return check_system(load_system(path))
    if kind == "fuzzy_set":
        return load_fuzzy_set(path)
    return load_interpretation(path)


@pytest.mark.parametrize(
    "name", sorted(json.loads((INVALID / "manifest.json").read_text())),
    ids=lambda n: n)
def test_invalid_fixtures_are_rejected_with_the_named_clause(name):
    info = json.loads((INVALID / "manifest.json").read_text())[name]
    if info["clause"] == "schema":
        with pytest.raises(SchemaError):
            _reject(INVALID / name, info["kind"])
    else:
        outcome = _reject(INVALID / name, info["kind"])
        assert isinstance(outcome, Violation)
        assert outcome.clause == info["clause"]


def test_grade_out_of_range_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical({"universe": ["x1"], "membership": {"x1": "3/2"}}))
    with pytest.raises(SchemaError):
        load_fuzzy_set(path)


def test_identifiers_must_avoid_commas(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical({"universe": ["x,1"], "membership": {"x,1": "1/2"}}))
    with pytest.raises(SchemaError):
        load_fuzzy_set(path)


def test_computed_frames_serialize_with_positional_names():
    space = generate_random_space(GeneratorConfig(seed=2), 0, max_opens=5)
    frame = frame_from_space(space)  # carrier elements are fuzzy sets
    payload = frame_to_json(frame)
    assert all(isinstance(name, str) for name in payload["carrier"])
    loaded = frame_from_json(payload)
    assert check_frame(loaded) is None
    assert len(loaded.carrier) == len(frame.carrier)
    assert same_frame(loaded, frame_from_json(payload))


def test_hom_system_serializes_and_revalidates():
    space = generate_random_space(GeneratorConfig(seed=3), 0, max_opens=4)
    system = s_object(frame_from_space(space), GradeSet.for_system(j_object(space)))
    loaded = system_from_json(system_to_json(system))
    assert check_system(loaded) is None
    assert len(loaded.points) == len(system.points)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("system_*.json")) + sorted(INVALID.glob("system_*.json")),
                         ids=lambda p: p.name)
def test_system_fixtures_round_trip_byte_identically(path):
    system = load_system(path)
    assert dumps_canonical(system_to_json(system)) == path.read_text()
    assert system_from_json(system_to_json(system)).rows == system.rows


@pytest.mark.parametrize("seed", range(3))
def test_computed_systems_round_trip_byte_identically(seed):
    space = generate_random_space(GeneratorConfig(seed=seed), 0, max_opens=5)
    membership = j_object(space)
    for system in (membership, s_object(membership.frame, GradeSet.for_system(membership))):
        text = dumps_canonical(system_to_json(system))
        assert dumps_canonical(system_to_json(system_from_json(json.loads(text)))) == text


def test_a_space_over_enumerated_homs_is_saved_with_positional_point_names(tmp_path):
    space = generate_random_space(GeneratorConfig(seed=3), 0, max_opens=4)
    hom_system = s_object(frame_from_space(space), GradeSet.for_system(j_object(space)))
    extent = ext_object(hom_system)  # its points are the enumerated homs
    save_space(extent, tmp_path / "extent.json")
    loaded = load_space(tmp_path / "extent.json")
    assert loaded.universe.elements == tuple(f"p{i}" for i in range(len(hom_system.points)))
    assert [t.grades for t in loaded.opens] == [t.grades for t in extent.opens]


@pytest.mark.parametrize("table, message", [
    ({"a": "x", "b": "zz"}, "image 'zz' is not in the target universe"),
    ({"a": 7, "b": "zz"}, "image 7 is not in the target universe"),
    ({"a": "x"}, "missing image for 'b'"),
])
def test_a_point_map_file_with_an_image_outside_its_target_is_refused(table, message, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"source": ["a", "b"], "target": ["x", "y"], "map": table}))
    with pytest.raises(SchemaError) as refused:
        load_point_map(path)
    assert (refused.value.field, str(refused.value)) == ("map", f"map: {message}")


@pytest.mark.parametrize("names", [("a,b", "c"), ("", "x"), ("x", 2), ("x", ("y",))])
def test_names_the_reader_refuses_are_written_positionally(names, tmp_path):
    u = Universe(names)
    point_map = PointMap(u, u, tuple(reversed(names)))
    save_point_map(point_map, tmp_path / "map.json")
    assert load_point_map(tmp_path / "map.json").images == ("p1", "p0")
    save_fuzzy_set(FuzzySet(u, (ONE, Fraction(1, 2))), tmp_path / "set.json")
    assert load_fuzzy_set(tmp_path / "set.json").grades == (ONE, Fraction(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="ab,", max_size=2), min_size=1, max_size=3, unique=True),
       st.lists(st.tuples(*[st.sampled_from((0, Fraction(1, 2), 1))] * 3), max_size=2))
@example(["a,b", "c"], [(Fraction(1, 2), 0, 0)])
@example(["", "x"], [(1, 0, 0)])
def test_every_written_structure_reads_back(tmp_path_factory, names, generators):
    """load(save(x)) succeeds and saves the same bytes again, for spaces,
    systems, frames, point maps and fuzzy sets over any names, over opens,
    and over enumerated homs (the extent space of a hom-system); an element
    keeps its own name when every name in its list is one the reader takes."""
    u = Universe(tuple(names))
    space = generate_topology(u, [FuzzySet(u, row[:len(u)]) for row in generators])
    system = j_object(space)
    hom_system = s_object(system.frame, GradeSet.for_system(system))
    extent = ext_object(hom_system)
    path = tmp_path_factory.mktemp("round-trip") / "x.json"
    for kind, x in (("space", space), ("space", extent), ("system", system), ("system", hom_system),
                    ("frame", system.frame), ("frame", j_object(extent).frame),
                    ("point", PointMap.identity(extent.universe)), ("fuzzy", extent.opens[-1])):
        SAVERS[kind](x, path)
        text = path.read_text()
        SAVERS[kind](LOADERS[kind](path), path)
        assert path.read_text() == text, kind
    SAVERS["space"](space, path)
    kept = all(name and "," not in name for name in names)
    assert (load_space(path).universe == u) == kept
    assert [t.grades for t in load_space(path).opens] == [t.grades for t in space.opens]


def test_system_sat_totality_is_enforced():
    payload = json.loads((FIXTURES / "system_membership.json").read_text())
    key = sorted(payload["sat"])[0]
    del payload["sat"][key]
    with pytest.raises(SchemaError):
        system_from_json(payload)


def test_pool_loads_against_a_signature():
    interp = load_interpretation(FIXTURES / "interp_basic.json")
    pool = load_formulas(FIXTURES / "pool_basic.json", interp.signature())
    assert len(pool) == 5


# --- join keys ------------------------------------------------------------------

def _renamed(payload: dict, rename: dict) -> dict:
    def key(text):
        return ",".join(rename[a] for a in text.split(",") if a)

    return {"carrier": [rename[a] for a in payload["carrier"]], "top": rename[payload["top"]],
            "meet": {key(k): rename[v] for k, v in payload["meet"].items()},
            "join": {key(k): rename[v] for k, v in payload["join"].items()},
            "relation": {key(k): g for k, g in payload["relation"].items()}}


def _assert_scan_keys(frame):
    payload = frame_to_json(frame)
    assert dumps_canonical(payload) == dumps_canonical({**payload, "join": scan_join_keys(frame)})


def test_join_keys_equal_the_label_scan_on_fourteen_opens():
    fixture = json.loads((FIXTURES / "frame_fourteen_opens.json").read_text())
    _assert_scan_keys(frame_from_json(fixture))
    # the same table with names that sort in the reverse of carrier order
    rename = {a: chr(ord("z") - i) * 2 for i, a in enumerate(fixture["carrier"])}
    frame = frame_from_json(_renamed(fixture, rename))
    assert frame.join_table is not None
    assert sorted(frame.carrier) == list(reversed(frame.carrier))
    _assert_scan_keys(frame)


def _chain_space(opens: int):
    u = Universe(("x1",))
    return generate_topology(u, [FuzzySet(u, (Fraction(k, opens - 1),)) for k in range(1, opens)])


@pytest.mark.parametrize("opens", range(1, 17))
def test_join_keys_equal_the_label_scan_on_in_memory_frames(opens):
    if opens == 1:
        frames = [GradedFrame.from_tables(("a",), "a", {("a", "a"): "a"},
                                          {frozenset(): "a", frozenset({"a"}): "a"},
                                          {("a", "a"): ONE})]
    else:
        # positional names e0, e1, ...: from 11 opens on, e10 sorts before e2
        frames = [frame_from_space(_chain_space(opens))]
        if opens < 15:
            frames.append(frame_from_space(space_with_opens(opens)))
    for frame in frames:
        assert len(frame.carrier) == opens
        _assert_scan_keys(frame)


def _three_chain() -> dict:
    """The crisp chain a < b < c as a frame file."""
    carrier = ("a", "b", "c")
    return frame_to_json(GradedFrame.from_join_fn(
        carrier, "c", {(x, y): min(x, y) for x in carrier for y in carrier},
        lambda subset: max(subset, default="a"),
        {(x, y): ONE if x <= y else Fraction(0) for x in carrier for y in carrier}))


def _assert_written_joins_are_the_frames(frame) -> None:
    loaded = frame_from_json(frame_to_json(frame))
    masks = range(1 << len(frame))
    assert [loaded.join_at(m) for m in masks] == [frame.join_at(m) for m in masks]
    found, again = check_frame(frame), check_frame(loaded)
    assert (found and found.clause) == (again and again.clause)


def test_a_written_join_table_holds_the_frames_own_singleton_and_pair_joins():
    # the chain 0 < 1 whose join of {0, 1} is 0: the join of {1} is still 1
    carrier = ("0", "1")
    frame = GradedFrame.from_join_fn(
        carrier, "1", {(a, b): min(a, b) for a in carrier for b in carrier},
        lambda subset: "0" if len(subset) == 2 else max(subset, default="0"),
        {(a, b): ONE if a <= b else Fraction(0) for a in carrier for b in carrier})
    assert frame_to_json(frame)["join"] == {"": "0", "0": "0", "1": "1", "0,1": "0"}
    _assert_written_joins_are_the_frames(frame)


def test_a_written_join_table_equals_join_at_on_frames_with_planted_pair_joins():
    # the frame of five opens with some joins of at most two opens replaced
    base = frame_from_space(space_with_opens(5))
    rng = random.Random(0)
    for _ in range(200):
        pairs = map(frozenset, itertools.combinations(base.carrier, 2))
        planted = {pair: rng.choice(base.carrier) for pair in pairs if rng.random() < 0.3}
        frame = GradedFrame.from_join_fn(base.carrier, base.top, base.meet_table,
                                         lambda subset: planted.get(subset, base.join_fn(subset)),
                                         base.relation)
        _assert_written_joins_are_the_frames(frame)


def _with_join_key(payload: dict, old: str, new: str) -> dict:
    """The payload with the join key `old` written as `new`, in its place."""
    join = {(new if key == old else key): value for key, value in payload["join"].items()}
    return {**payload, "join": join}


@pytest.mark.parametrize("key", ["b,a", "a,,b", ",a,b,", "b,a,"])
def test_a_join_key_in_any_order_or_with_empty_labels_names_the_same_subset(key):
    payload = _three_chain()
    frame = frame_from_json(_with_join_key(payload, "a,b", key))
    assert frame.join_table == frame_from_json(payload).join_table
    assert frame_to_json(frame) == payload


@pytest.mark.parametrize("old, new, message", [
    # a key naming the subset of another key, read before or after it
    ("c", "b,a", "key 'b,a' repeats an element or another key"),
    ("", "c,b", "key 'b,c' repeats an element or another key"),
    # a label twice in one key
    ("a,b", "a,a", "key 'a,a' repeats an element or another key"),
    ("a,b,c", "c,a,c,b", "key 'c,a,c,b' repeats an element or another key"),
    ("a,b", "a,d", "join table key is not a subset of the carrier"),
])
def test_a_join_key_that_repeats_a_subset_or_a_label_is_refused(old, new, message):
    payload = _with_join_key(_three_chain(), old, new)
    with pytest.raises(SchemaError, match=message):
        frame_from_json(payload)


# A full 2^14 join table with one thing changed: a table its writer would
# not write is read key by key, to the same frame or the same refusal.
FOURTEEN = FIXTURES / "frame_fourteen_opens.json"


@pytest.mark.parametrize("key, new_key", [
    # e2 comes before e10 in the carrier and after it by name
    ("e10,e2", "e2,e10"),
    ("e0,e10,e11,e2,e3", "e3,e2,e11,e10,e0"),
])
def test_a_full_join_table_with_a_key_in_another_order_reads_the_same_frame(key, new_key):
    read = frame_from_json(_with_join_key(json.loads(FOURTEEN.read_text()), key, new_key))
    written = load_frame(FOURTEEN)
    masks = range(1 << len(written.carrier))
    assert [read.join_at(m) for m in masks] == [written.join_at(m) for m in masks]


@pytest.mark.parametrize("key, new_key, value, message", [
    ("e3,e5", "e0,e0", "e5", "key 'e0,e0' repeats an element or another key"),
    ("e4,e7,e9", "e4,e7,e9", None, "identifiers must be non-empty strings"),
    ("e4,e7,e9", "e4,e7,e9", 3, "identifiers must be non-empty strings"),
    ("e4,e7,e9", "e4,e7,e9", "", "identifiers must be non-empty strings"),
    ("e4,e7,e9", "e4,e7,e9", "zz", "join value 'zz' is outside the carrier"),
])
def test_a_full_join_table_with_one_bad_entry_is_refused_as_key_by_key(key, new_key, value, message):
    payload = _with_join_key(json.loads(FOURTEEN.read_text()), key, new_key)
    payload["join"][new_key] = value
    with pytest.raises(SchemaError) as refused:
        frame_from_json(payload)
    assert (refused.value.field, str(refused.value)) == ("join", f"join: {message}")


def test_a_full_join_table_over_a_carrier_that_repeats_a_label_is_read_by_its_labels():
    # two subsets share each written key; the meet and relation tables
    # count n^2 keys, so reading gets as far as the join table
    pairs = ["a,a", "a,x", "x,a", "x,x"]
    payload = {"carrier": ["a", "a"], "top": "a", "meet": dict.fromkeys(pairs, "a"),
               "relation": dict.fromkeys(pairs, "1"), "join": {"": "a", "a": "a", "a,a": "a", "x": "a"}}
    with pytest.raises(SchemaError) as refused:
        frame_from_json(payload)
    assert str(refused.value) == "join: key 'a,a' repeats an element or another key"


# --- the key table cache ---------------------------------------------------------

def test_each_carriers_join_keys_are_built_once_in_a_bounded_cache(tmp_path):
    keys = serialization._subset_keys
    assert keys.cache_info().maxsize is not None
    assert isinstance(keys(("b", "a")), tuple)
    assert keys(("b", "a")) == ("", "b", "a", "a,b")
    fixture = FOURTEEN
    payload = json.loads(fixture.read_text())
    rename = {a: chr(ord("z") - i) * 2 for i, a in enumerate(payload["carrier"])}
    renamed = tmp_path / "renamed.json"
    save_frame(frame_from_json(_renamed(payload, rename)), renamed)
    # each file keeps its bytes with the two carriers' tables read and
    # written in turn, and the second round builds no table
    for round_ in range(2):
        before = keys.cache_info()
        for path in (fixture, renamed, fixture, renamed):
            out = tmp_path / f"out-{path.name}"
            save_frame(load_frame(path), out)
            assert out.read_bytes() == path.read_bytes()
        after = keys.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 8
        if round_:
            assert after.misses == before.misses


# --- grade literals -------------------------------------------------------------

def test_each_grade_literal_is_parsed_once_in_a_bounded_cache(tmp_path):
    cache = serialization._cached_grade
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"universe": ["x1", "x2"],
                                "opens": [{"x1": "0/1", "x2": "0/1"}, {"x1": "1/3", "x2": "0/1"},
                                          {"x1": "1/1", "x2": "1/1"}]}))
    load_space(path)
    before = cache.cache_info()
    load_space(path)
    after = cache.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (6, 0)
    # distinct literals never hold more than the cache's size
    for k in range(1, 3 * cache.cache_info().maxsize):
        assert serialization._grade(f"1/{k}", "grade") == Fraction(1, k)
    assert cache.cache_info().currsize == cache.cache_info().maxsize
    # a literal longer than any accepted one (here by padding) bypasses it
    before = cache.cache_info()
    assert serialization._grade(" " * 3000 + "1/3", "grade") == Fraction(1, 3)
    assert cache.cache_info() == before


@pytest.mark.parametrize("literal", ["1e-5000", "3/2", "1" * 1001, "nan"])
def test_a_refused_grade_literal_is_refused_alike_every_time(literal, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"universe": ["x1"], "opens": [{"x1": "0"}, {"x1": literal}, {"x1": "1"}]}))
    messages = set()
    for _ in range(3):
        with pytest.raises(SchemaError) as refused:
            load_space(path)
        messages.add(str(refused.value))
    assert len(messages) == 1
    # never stored, so never a hit
    hits = serialization._cached_grade.cache_info().hits
    for _ in range(2):
        with pytest.raises(SchemaError):
            serialization._grade(literal, "grade")
    assert serialization._cached_grade.cache_info().hits == hits
