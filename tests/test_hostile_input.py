"""Seeded hostile input for every verb: mutated space, frame, system,
interpretation and pool files, and hostile arguments, keep the exit-code
contract. Each request exits 0 (pass), 1 (a violation, reported on stdout)
or 2 (input error), and nothing prints a traceback.

The mutated files are written into the test's own directory from fixed
seeds; the invalid fixture corpus is left as it is.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from graded_topos.cli import main
from graded_topos.errors import SchemaError
from graded_topos.serialization import load_point_map

FIXTURES = Path(__file__).parent / "fixtures"
INTERP = str(FIXTURES / "interp_basic.json")
POOL = str(FIXTURES / "pool_basic.json")

# file kind: the fixture it starts from, and the requests that read it
# ("{file}" is the mutated file, "{out}" an output path)
KINDS = {
    "space": ("space_half.json", [
        ["check", "space", "{file}"],
        ["functor", "j", "--in", "{file}", "--out", "{out}"],
        ["adjunction-test", "j-ext", "--in", "{file}"],
    ]),
    "frame": ("frame_three_chain.json", [
        ["check", "frame", "{file}"],
        ["functor", "s", "--in", "{file}", "--out", "{out}"],
        ["functor", "s", "--in", "{file}", "--grades", "0,1/3,1/2,1", "--out", "{out}"],
        ["adjunction-test", "fm-s", "--in", "{file}"],
    ]),
    "system": ("system_membership.json", [
        ["check", "system", "{file}"],
        ["spatiality", "{file}"],
        ["functor", "ext", "--in", "{file}", "--out", "{out}"],
        ["functor", "fm", "--in", "{file}", "--out", "{out}"],
    ]),
    "interpretation": ("interp_basic.json", [
        ["eval", "--interp", "{file}", "--formula", "E x2. (p(x1) & q(f(x2)))", "--assign", "x1=d1"],
        ["consequence", "--interp", "{file}", "--lhs", "p(x1)", "--rhs", "(q(x1) | (x1 = c1))"],
        ["theorem2", "--interp", "{file}", "--pool", POOL],
    ]),
    "pool": ("pool_basic.json", [
        ["theorem2", "--interp", INTERP, "--pool", "{file}"],
    ]),
}

HOSTILE_VALUES = [0, 1.5, -1, None, True, [], {}, ["e0"], {"e0": "e0"}, "", ",", "zz"]
HOSTILE_NAMES = ["zz", "", ",", "e0,e0", "e0,zz", "x1,x1,x1", "c", "c01", "c\u00b2", "c" + "1" * 5000,
                 "d1,zz"]
HOSTILE_GRADES = ["1" + "0" * 5000, "1e-999999", "1/" + "9" * 1500, "1e-997", "2/1", "-1/2",
                  "1/0", "nan", "inf", " 1/2 ", "0.5", "1_0/2_0", "0x1", "½", " " * 3000 + "1"]
HOSTILE_STRINGS = ["(" * 3000 + "T" + ")" * 3000, "E x1. " * 600 + "T",
                   "".join(f"E x{v}. " for v in range(1, 31)) + "T", "p(", "zz(x1)", "p(c9)",
                   "p(x" + "9" * 5000 + ")", "E x" + "1" * 5000 + ". T", "p(c" + "1" * 5000 + ")"]
GRADE = re.compile(r"^\d+/\d+$")
DEEP = "__deep__"


def _paths(node, path=()):
    """Every (path, value) below the root, depth first."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _wrong_type(rng, doc):
    _set(doc, rng.choice([p for p, _ in _paths(doc)]), rng.choice(HOSTILE_VALUES))


def _missing_key(rng, doc):
    path = rng.choice([()] + [p for p, v in _paths(doc) if isinstance(v, dict) and v])
    target = doc
    for key in path:
        target = target[key]
    del target[rng.choice(sorted(target))]


def _extra_key(rng, doc):
    objects = [doc] + [v for _, v in _paths(doc) if isinstance(v, dict)]
    rng.choice(objects)[rng.choice(HOSTILE_NAMES)] = rng.choice(["1/2", "e0", "zz", [], 0])


def _out_of_carrier(rng, doc):
    """Rename a key or replace a string value with a name nothing declares."""
    strings = [p for p, v in _paths(doc) if isinstance(v, str)]
    keyed = [p for p, _ in _paths(doc) if isinstance(p[-1], str)]
    if rng.random() < 0.5 and strings:
        _set(doc, rng.choice(strings), rng.choice(HOSTILE_NAMES))
        return
    path = rng.choice(keyed)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[rng.choice(HOSTILE_NAMES)] = parent.pop(path[-1])


def _grade_literal(rng, doc):
    strings = [p for p, v in _paths(doc) if isinstance(v, str)]
    _set(doc, rng.choice(strings), rng.choice(HOSTILE_GRADES))


def _repeated_grades(rng, doc):
    """One literal, accepted or refused, in place of every grade."""
    literal = rng.choice(["1/3", "1e-997", "1e-5000", "3/2", "0.25", "1" + "0" * 2000])
    for path, value in list(_paths(doc)):
        if isinstance(value, str) and GRADE.match(value):
            _set(doc, path, literal)


def _hostile_string(rng, doc):
    strings = [p for p, v in _paths(doc) if isinstance(v, str)]
    _set(doc, rng.choice(strings), rng.choice(HOSTILE_STRINGS))


def _deep_nesting(rng, doc):
    _set(doc, rng.choice([p for p, _ in _paths(doc)]), DEEP)


MUTATIONS = {
    "wrong-type": _wrong_type,
    "missing-key": _missing_key,
    "extra-key": _extra_key,
    "out-of-carrier": _out_of_carrier,
    "grade-literal": _grade_literal,
    "repeated-grades": _repeated_grades,
    "hostile-string": _hostile_string,
    "deep-nesting": _deep_nesting,
}
VARIANTS = 5


def _mutated_text(kind: str, mutation: str, variant: int) -> str:
    rng = random.Random(f"{kind}/{mutation}/{variant}")
    doc = json.loads((FIXTURES / KINDS[kind][0]).read_text())
    MUTATIONS[mutation](rng, doc)
    text = json.dumps(doc)
    depth = rng.choice([40, 100_000])
    return text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)


def _request(argv, capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses bad arguments this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:  # only a violation, and it is reported
        assert any(json.loads(line)["status"] == "fail" for line in out.splitlines()), argv
    if code == 2:
        assert err.strip() and out == "", (argv, out, err)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mutated_files_keep_the_exit_code_contract(kind, mutation, tmp_path, capsys):
    path, out = tmp_path / f"{kind}.json", str(tmp_path / "out.json")
    for variant in range(VARIANTS):
        path.write_text(_mutated_text(kind, mutation, variant))
        for template in KINDS[kind][1]:
            argv = [arg.format(file=path, out=out) for arg in template]
            _assert_contract(argv, *_request(argv, capsys))


FRAME = str(FIXTURES / "frame_three_chain.json")
SPACE = str(FIXTURES / "space_half.json")

# hostile option values on valid files, one row per verb
HOSTILE_ARGUMENTS = {
    "check": [["check", "pool", SPACE], ["check", "space"], ["check", "space", "/nonexistent"]],
    "functor": [["functor", "s", "--in", FRAME, "--grades", grades, "--out", "{out}"]
                for grades in ("0,2", "1/2", "x", "0,1e-5000,1", ",", "1,0", "0," + "9" * 3000)],
    "adjunction-test": [["adjunction-test", "fm-s", "--in", FRAME, "--grades", "0,1/7"],
                        ["adjunction-test", "j-ext", "--in", FRAME],
                        ["adjunction-test", "fm-s", "--in", SPACE]],
    "spatiality": [["spatiality", FRAME], ["spatiality", SPACE]],
    "eval": [["eval", "--interp", INTERP, "--formula", "p(x1)", "--assign", assign]
             for assign in ("x1", "x1=", "y1=d1", "x1=d9", "x\u00b2=d1", "x" + "9" * 5000 + "=d1")],
    "consequence": [["consequence", "--interp", INTERP, "--lhs", "p(x1)", "--rhs", text]
                    for text in HOSTILE_STRINGS],
    "theorem2": [["theorem2", "--interp", POOL, "--pool", POOL],
                 ["theorem2", "--interp", INTERP, "--pool", INTERP]],
    "suite": [["suite", "props", "--instances", "0"], ["suite", "nope"],
              ["suite", "props", "--seed", "x"], ["suite", "props", "--instances", "-1"]],
}


@pytest.mark.parametrize("verb", sorted(HOSTILE_ARGUMENTS))
def test_hostile_arguments_keep_the_exit_code_contract(verb, tmp_path, capsys):
    for template in HOSTILE_ARGUMENTS[verb]:
        argv = [arg.format(out=tmp_path / "out.json") for arg in template]
        _assert_contract(argv, *_request(argv, capsys))


@pytest.mark.parametrize("table, image", [
    ({"a": [1], "b": "x"}, "[1]"),
    ({"a": "x", "b": {"y": 1}}, "{'y': 1}"),
    ({"a": "zz", "b": [1]}, "'zz'"),
    ({"a": None, "b": ["x"]}, "None"),
])
def test_a_point_map_file_with_a_non_string_image_is_a_schema_error(table, image, tmp_path):
    # the first image outside the target is named, whatever the later ones are
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"source": ["a", "b"], "target": ["x", "y"], "map": table}))
    with pytest.raises(SchemaError) as refused:
        load_point_map(path)
    assert (refused.value.field, str(refused.value)) == (
        "map", f"map: image {image} is not in the target universe")
