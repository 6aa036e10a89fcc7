import argparse
import itertools
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import graded_topos.cli as cli
from conftest import UNCLOSED, crisp_chain, unclosed_space
from graded_topos.cli import main
from graded_topos.frames import GradedFrame, check_frame
from graded_topos.functors import HOM_SEARCH_CAP, GradeSet, s_object
from graded_topos.grades import ONE, ZERO
from graded_topos.logic.semantics import MAX_STEPS
from graded_topos.serialization import load_frame, save_frame, save_space, save_system

FIXTURES = Path(__file__).parent / "fixtures"
INVALID = FIXTURES / "invalid"


def test_check_space_passes(capsys):
    assert main(["check", "space", str(FIXTURES / "space_half.json")]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["status"] == "pass"


def test_check_frame_violation_exits_1(capsys):
    assert main(["check", "frame", str(INVALID / "frame_reflexivity.json")]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["status"] == "fail"
    assert line["witnesses"][0][0] == "axiom 1"


def test_check_system_violation_names_the_clause(capsys):
    assert main(["check", "system", str(INVALID / "system_top_grade.json")]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["witnesses"][0][0] == "clause 2"


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["check", "space", str(bad)]) == 2
    assert main(["check", "frame", str(INVALID / "frame_nontotal_meet.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # an array where a meet or join value belongs
    for table in ("meet", "join"):
        frame = json.loads((FIXTURES / "frame_two_chain.json").read_text())
        frame[table][next(iter(frame[table]))] = ["0"]
        bad.write_text(json.dumps(frame))
        assert main(["check", "frame", str(bad)]) == 2
        assert "identifiers must be non-empty strings" in capsys.readouterr().err
    # two join keys naming the same subset
    frame = json.loads((FIXTURES / "frame_two_chain.json").read_text())
    frame["join"]["top,bot"] = "bot"
    bad.write_text(json.dumps(frame))
    assert main(["check", "frame", str(bad)]) == 2
    assert "repeats an element or another key" in capsys.readouterr().err


def test_functor_pipeline(tmp_path, capsys):
    sysfile = tmp_path / "system.json"
    assert main(["functor", "j", "--in", str(FIXTURES / "space_half.json"),
                 "--out", str(sysfile)]) == 0
    assert main(["check", "system", str(sysfile)]) == 0
    framefile = tmp_path / "frame.json"
    assert main(["functor", "fm", "--in", str(sysfile), "--out", str(framefile)]) == 0
    assert main(["check", "frame", str(framefile)]) == 0
    homfile = tmp_path / "homs.json"
    assert main(["functor", "s", "--in", str(framefile), "--grades", "0,1/2,1",
                 "--out", str(homfile)]) == 0
    assert main(["check", "system", str(homfile)]) == 0
    spacefile = tmp_path / "space.json"
    assert main(["functor", "ext", "--in", str(sysfile), "--out", str(spacefile)]) == 0
    assert main(["check", "space", str(spacefile)]) == 0
    capsys.readouterr()


def test_adjunction_tests_pass_on_fixtures(capsys):
    assert main(["adjunction-test", "j-ext", "--in", str(FIXTURES / "space_half.json")]) == 0
    assert main(["adjunction-test", "fm-s", "--in", str(FIXTURES / "frame_two_chain.json")]) == 0
    capsys.readouterr()


def test_spatiality_verdicts(tmp_path, capsys):
    assert main(["spatiality", str(FIXTURES / "system_membership.json")]) == 0
    # an invalid system is an input error, not a spatiality verdict
    assert main(["spatiality", str(INVALID / "system_top_grade.json")]) == 2
    capsys.readouterr()


def test_adjunction_test_refuses_an_input_that_fails_its_checker(capsys):
    # the triangles of a structure that is not a space or not a frame are
    # not reported: the input's violation is, as an input error
    for pair, name, clause in (("j-ext", "space_missing_union.json", "space: clause 2 violated"),
                               ("fm-s", "frame_reflexivity.json", "frame: axiom 1 violated")):
        assert main(["adjunction-test", pair, "--in", str(INVALID / name)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(clause)


# Two chains that pass `check frame` but have no point (a hom into any
# grade set would need R(1, 0) <= (1 -> 0) = 0): the relation is 1 except at
# the pairs listed, where it is 1/2. They are written per test, not kept
# under fixtures/, whose files the CLI digest gate runs.
POINTLESS = {
    "two-chain": (["g0", "g1"], {("g1", "g0")}),
    "three-chain": (["g0", "g1", "g2"], {("g1", "g0"), ("g2", "g0"), ("g2", "g1")}),
}


def write_chain(path, carrier, halves):
    """A chain frame file: meet and join are min and max in carrier order."""
    at = carrier.index
    subsets = [c for r in range(len(carrier) + 1) for c in itertools.combinations(carrier, r)]
    path.write_text(json.dumps({
        "carrier": carrier,
        "join": {",".join(c): carrier[max(map(at, c), default=0)] for c in subsets},
        "meet": {f"{a},{b}": min(a, b, key=at) for a in carrier for b in carrier},
        "relation": {f"{a},{b}": "1/2" if (a, b) in halves else "1/1" for a in carrier for b in carrier},
        "top": carrier[-1],
    }))
    return str(path)


@pytest.mark.parametrize("name", list(POINTLESS))
def test_s_of_a_valid_frame_without_points_exits_2(name, tmp_path, capsys):
    """What the CLI does today on a frame that passes its checker but has
    no point: `functor s` and `adjunction-test fm-s` refuse it as an input
    error, naming the grades searched."""
    frame = write_chain(tmp_path / "frame.json", *POINTLESS[name])
    assert main(["check", "frame", frame]) == 0
    assert "PASS check/frame" in capsys.readouterr().err
    out = str(tmp_path / "homs.json")
    for argv, grades in ((["functor", "s", "--in", frame, "--out", out], "['0', '1/2', '1']"),
                         (["functor", "s", "--in", frame, "--grades", "0,1", "--out", out], "['0', '1']"),
                         (["adjunction-test", "fm-s", "--in", frame], "['0', '1/2', '1']"),
                         (["adjunction-test", "fm-s", "--in", frame, "--grades", "0,1"], "['0', '1']")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: no homomorphisms into grades {grades}\n")
    assert not (tmp_path / "homs.json").exists()


def test_eval_golden_values(capsys):
    interp = str(FIXTURES / "interp_basic.json")
    cases = [
        ("T", "", "1/1"),
        ("F", "", "0/1"),
        ("(x1 = x1)", "x1=d1", "1/1"),
        ("(x1 = x2)", "x1=d1,x2=d2", "0/1"),
        ("p(x1)", "x1=d1", "3/10"),
        ("E x1. q(x1)", "", "1/1"),
    ]
    for formula, assign, expected in cases:
        args = ["eval", "--interp", interp, "--formula", formula]
        if assign:
            args += ["--assign", assign]
        assert main(args) == 0
        assert capsys.readouterr().out.strip() == expected


def test_eval_rejects_bad_input(capsys):
    interp = str(FIXTURES / "interp_basic.json")
    assert main(["eval", "--interp", interp, "--formula", "zz(x1)"]) == 2
    assert main(["eval", "--interp", interp, "--formula", "p(x1)", "--assign", "huh"]) == 2
    assert main(["eval", "--interp", interp, "--formula", "p(x1)", "--assign", "x1=zz"]) == 2
    assert main(["eval", "--interp", interp, "--formula", "p(x1)"]) == 2  # x1 unbound
    capsys.readouterr()


@pytest.mark.parametrize("lacking", sorted(UNCLOSED))
def test_functor_j_on_a_space_that_is_not_closed_is_an_input_error(lacking, tmp_path, capsys):
    space, system = tmp_path / "space.json", tmp_path / "system.json"
    save_space(unclosed_space(lacking), space)
    assert main(["functor", "j", "--in", str(space), "--out", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {UNCLOSED[lacking][1]}\n"
    assert not system.exists()


def test_functor_j_writes_the_join_table_of_at_most_sixteen_opens(tmp_path, capsys):
    # 17 constant opens on one point: the frame is built, but its file would
    # hold all 2^17 joins
    space, system = tmp_path / "space.json", tmp_path / "system.json"
    space.write_text(json.dumps({"universe": ["x1"], "opens": [{"x1": f"{k}/16"} for k in range(17)]}))
    assert main(["check", "space", str(space)]) == 0
    capsys.readouterr()
    assert main(["functor", "j", "--in", str(space), "--out", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: join: carrier too large to materialize the join table\n"
    assert not system.exists()


def test_consequence_golden_values(capsys):
    interp = str(FIXTURES / "interp_basic.json")
    assert main(["consequence", "--interp", interp, "--lhs", "p(x1)", "--rhs", "p(x1)"]) == 0
    assert capsys.readouterr().out.strip() == "1/1"
    assert main(["consequence", "--interp", interp, "--lhs", "p(x1)", "--rhs", "q(x1)"]) == 0
    assert capsys.readouterr().out.strip() == "0/1"
    assert main(["consequence", "--interp", interp, "--lhs", "q(x1)", "--rhs", "p(x1)"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


@pytest.mark.parametrize("literal", ["1e999999", "1e-5000", "1e-99999999"])
def test_huge_grade_literals_are_input_errors(literal, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"universe": ["x1"], "opens": [{"x1": "0"}, {"x1": literal}, {"x1": "1"}]}))
    for argv in (["check", "space", str(space)],
                 ["functor", "j", "--in", str(space), "--out", str(tmp_path / "system.json")]):
        done = subprocess.run([sys.executable, "-m", "graded_topos.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and "exponent" in done.stderr


def test_a_grade_at_the_literal_bound_is_written_and_read_back(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"universe": ["x1"], "opens": [{"x1": "0"}, {"x1": "1e-997"}, {"x1": "1"}]}))
    system = tmp_path / "system.json"
    assert main(["functor", "j", "--in", str(space), "--out", str(system)]) == 0
    assert main(["check", "system", str(system)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["eval", "consequence"])
def test_deeply_nested_formula_is_an_input_error(verb):
    deep = "(" * 3000 + "T" + ")" * 3000
    formula_args = ["--formula", deep] if verb == "eval" else ["--lhs", "T", "--rhs", deep]
    done = subprocess.run(
        [sys.executable, "-m", "graded_topos.cli", verb,
         "--interp", str(FIXTURES / "interp_basic.json"), *formula_args],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and "nested too deeply" in done.stderr


def _run_on_formula(verb, formula, interp, tmp_path):
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps({"formulas": [formula]}))
    formula_args = {"eval": ["--formula", formula],
                    "consequence": ["--lhs", "T", "--rhs", formula],
                    "theorem2": ["--pool", str(pool)]}[verb]
    return subprocess.run(
        [sys.executable, "-m", "graded_topos.cli", verb, "--interp", str(interp), *formula_args],
        capture_output=True, text=True, timeout=60)


def _binders(variables) -> str:
    return "".join(f"E x{v}. " for v in variables) + "T"


ONE_ELEMENT = {"constants": {}, "domain": ["d1"], "functions": {},
               "predicates": {"p": {"d1": "1/2"}}}

# Hostile formulas for eval, consequence and theorem2: the formula, the
# interpretation (None: interp_basic.json, two elements), and the answer.
# A repeated binder costs |domain| vector entries per node, so towers of
# `E x1.` are answered; each distinct binder multiplies the entries by
# |domain|, so towers of distinct variables are refused before evaluation.
HOSTILE = {
    "repeated-300": (_binders([1] * 300), None, "answered"),
    "repeated-450": (_binders([1] * 450), ONE_ELEMENT, "answered"),
    "distinct-20": (_binders(range(1, 21)), None, "steps"),
    # unbudgeted, theorem2 would build vectors of 2^30 entries here
    "distinct-30": (_binders(range(1, 31)), None, "steps"),
    "repeated-600": (_binders([1] * 600), ONE_ELEMENT, "nested too deeply"),
}


def _run_hostile(verb, case, tmp_path):
    formula, interp, answer = HOSTILE[case]
    if interp is not None:
        path = tmp_path / "interp.json"
        path.write_text(json.dumps(interp))
        interp = path
    start = time.perf_counter()
    done = _run_on_formula(verb, formula, interp or FIXTURES / "interp_basic.json", tmp_path)
    return done, time.perf_counter() - start, answer


@pytest.mark.parametrize("case", ["repeated-300", "repeated-450"])
@pytest.mark.parametrize("verb", ["eval", "consequence", "theorem2"])
def test_repeated_binders_are_answered(verb, case, tmp_path):
    done, _, _ = _run_hostile(verb, case, tmp_path)
    assert done.returncode == 0
    if verb == "theorem2":
        assert done.stderr.splitlines()[-1] == "9/9 subjects passed"
    else:
        assert (done.stdout, done.stderr) == ("1/1\n", "")


@pytest.mark.parametrize("verb", ["eval", "consequence", "theorem2"])
def test_deeply_nested_binders_are_an_input_error(verb, tmp_path):
    # the parser refuses this depth before anything is evaluated
    done, _, answer = _run_hostile(verb, "repeated-600", tmp_path)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and answer in done.stderr


@pytest.mark.parametrize("verb", ["eval", "consequence", "theorem2"])
def test_binders_beyond_the_step_budget_are_an_input_error(verb, tmp_path):
    # 2^20 and more vector entries over two elements: refused before evaluation
    for case in ("distinct-20", "distinct-30"):
        done, elapsed, answer = _run_hostile(verb, case, tmp_path)
        assert elapsed < 1, case
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1 and answer in done.stderr


def test_eighteen_distinct_binders_are_answered_in_little_memory(capsys):
    # 2^19 - 1 steps, within the budget; the vectors take 2^18 bits per level
    formula = _binders(range(1, 19))
    tracemalloc.start()
    try:
        code = main(["eval", "--interp", str(FIXTURES / "interp_basic.json"), "--formula", formula])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == "1/1\n"
    assert peak < 16 * 2 ** 20


def test_the_step_budget_is_exact(capsys):
    # towers of distinct binders cost 2^(k+1) - 1 steps over two elements,
    # each V[...] node one more: `within` costs MAX_STEPS, `over` one more
    towers = [18, 17, 16, 15, 13, 8, 5, 1, 0, 0]
    body = "V[" + ", ".join(_binders(range(1, k + 1)) for k in towers) + "]"
    within, over = f"V[{body}]", f"V[V[{body}]]"
    interp = str(FIXTURES / "interp_basic.json")
    assert main(["eval", "--interp", interp, "--formula", within]) == 0
    assert capsys.readouterr().out == "1/1\n"
    assert main(["eval", "--interp", interp, "--formula", over]) == 2
    assert capsys.readouterr().err == (
        f"error: formula: evaluation needs more than {MAX_STEPS} steps\n")


def test_theorem2_runs_a_pool_file(capsys):
    assert main(["theorem2", "--interp", str(FIXTURES / "interp_basic.json"),
                 "--pool", str(FIXTURES / "pool_basic.json")]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 9
    assert all(line["status"] == "pass" for line in lines)


def test_suite_command(capsys):
    assert main(["suite", "frame-laws", "--seed", "4", "--instances", "4"]) == 0
    out = capsys.readouterr().out
    assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())


@pytest.mark.parametrize("count", ["0", "-3"])
def test_suite_instances_must_be_positive(count, capsys):
    assert main(["suite", "props", "--instances", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "instances" in captured.err


def test_planted_join_violation_above_twelve_elements(tmp_path, capsys):
    # the 13-element chain c00 < ... < c12 as a table frame, with the join of
    # {c00, c01, c02} set to the top: one wrong entry among 8192 subsets
    carrier = tuple(f"c{i:02d}" for i in range(13))
    subsets = [s for k in range(14) for s in itertools.combinations(range(13), k)]
    joins = {frozenset(carrier[i] for i in s): carrier[max(s, default=0)] for s in subsets}
    joins[frozenset(carrier[:3])] = carrier[-1]
    frame = GradedFrame.from_tables(
        carrier, carrier[-1],
        {(a, b): min(a, b) for a in carrier for b in carrier},
        joins,
        {(a, b): ONE if a <= b else ZERO for a in carrier for b in carrier})
    bad = check_frame(frame)
    assert bad is not None and bad.clause == "axiom 8"
    assert bad.witness == "target 'c02', subset mask 111"
    path = tmp_path / "chain13.json"
    save_frame(frame, path)
    assert main(["check", "frame", str(path)]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["witnesses"][0][0] == "axiom 8"


# One case per file kind: the fixture, the request that reads it, and a key
# written twice in one object (the later value would silently win).
REPEATED_KEYS = {
    "space": ("space_half.json", ["check", "space"], '"x1": "1/2"', '"x1": "1/2", "x1": "1/1"'),
    "frame": ("frame_two_chain.json", ["check", "frame"],
              '"top,top": "top"', '"top,top": "top", "top,top": "bot"'),
    "system": ("system_membership.json", ["check", "system"], '"e0": "e0"', '"e0": "e0", "e0": "e1"'),
    "interpretation": ("interp_basic.json", ["eval", "--formula", "T", "--interp"],
                       '"d1": "3/10"', '"d1": "3/10", "d1": "1/10"'),
    "pool": ("pool_basic.json",
             ["theorem2", "--interp", str(FIXTURES / "interp_basic.json"), "--pool"],
             '"formulas"', '"formulas": ["p(x1)"], "formulas"'),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_KEYS))
def test_a_repeated_json_key_is_an_input_error(kind, tmp_path, capsys):
    fixture, argv, once, twice = REPEATED_KEYS[kind]
    text = (FIXTURES / fixture).read_text()
    assert text.count(once) >= 1
    path = tmp_path / fixture
    path.write_text(text.replace(once, twice, 1))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and "appears twice in one object" in captured.err


def test_a_fourteen_open_table_frame_and_a_wrong_join_of_three(capsys):
    # 16384 join entries: the valid table is decided on its pairs, and one
    # wrong join of three elements is named as the check over every subset
    # names it
    assert main(["check", "frame", str(FIXTURES / "frame_fourteen_opens.json")]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert main(["check", "frame", str(FIXTURES / "frame_fourteen_opens_wrong_join.json")]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["witnesses"] == [["axiom 8", "holds", "target 'e11', subset mask 1010010000"]]


def _request(argv, capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses bad arguments this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_an_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    def broken(frame):
        raise RuntimeError("the checker\nfell over")

    monkeypatch.setattr(cli, "violation_of", broken)
    argv = ["check", "frame", str(FIXTURES / "frame_two_chain.json")]
    line = "internal error: RuntimeError: the checker fell over\n"
    assert _request(argv, capsys) == (3, "", line)
    code, out, err = _request(["--debug", *argv], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and "in broken" in err and err.endswith(line)
    # and --debug holds for its own call only
    assert _request(argv, capsys) == (3, "", line)
    # argparse refuses bad arguments itself, with SystemExit(2)
    with pytest.raises(SystemExit) as refused:
        main(["check", "frame"])
    assert refused.value.code == 2
    capsys.readouterr()


# In-process calls in a row, each of which would answer differently if an
# option value of the call before it carried over. "{out}" is an output path.
SEQUENCE = [
    ["functor", "s", "--in", str(FIXTURES / "frame_three_chain.json"), "--grades", "0,1/4,1/2,3/4,1",
     "--out", "{out}/graded.json"],
    ["functor", "s", "--in", str(FIXTURES / "frame_three_chain.json"), "--out", "{out}/default.json"],
    ["eval", "--interp", str(FIXTURES / "interp_basic.json"), "--formula", "p(x1)", "--assign", "x1=d2"],
    ["eval", "--interp", str(FIXTURES / "interp_basic.json")],  # no --formula: exit 2
    ["eval", "--interp", str(FIXTURES / "interp_basic.json"), "--formula", "p(x1)"],
    ["consequence", "--interp", str(FIXTURES / "interp_basic.json"), "--lhs", "q(x1)", "--rhs", "p(x1)"],
]


def test_the_parser_keeps_no_state_between_requests(tmp_path, monkeypatch, capsys):
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    answers = []
    for k, template in enumerate(SEQUENCE):
        if k == 1:
            monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        answers.append(_request([arg.format(out=inproc) for arg in template], capsys))
    assert built == []
    monkeypatch.undo()
    codes = [code for code, _, _ in answers]
    assert codes == [0, 0, 0, 2, 2, 0]
    assert answers[4][2] == "error: x1 is not assigned\n"
    # without --grades, the hom functor reads the frame's own grades
    frame = load_frame(FIXTURES / "frame_three_chain.json")
    save_system(s_object(frame, GradeSet.for_frame(frame)), tmp_path / "expected.json")
    assert (inproc / "default.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    assert (inproc / "graded.json").read_bytes() != (inproc / "default.json").read_bytes()
    for template, answer in zip(SEQUENCE, answers):
        done = subprocess.run([sys.executable, "-m", "graded_topos.cli",
                               *[arg.format(out=fresh) for arg in template]],
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == answer, template
    for name in ("graded.json", "default.json"):
        assert (inproc / name).read_bytes() == (fresh / name).read_bytes()


def test_hom_enumeration_beyond_its_budget_is_an_input_error(tmp_path, capsys):
    # the homs of a crisp 10-chain into 8 grades are its monotone maps
    # fixing both ends, 6435 of them, found in 8 * 6435 tries
    path, out = tmp_path / "chain10.json", tmp_path / "homs.json"
    save_frame(crisp_chain(10), path)
    grades = ",".join(f"{k}/7" for k in range(8))
    line = f"error: hom enumeration tried more than {HOM_SEARCH_CAP} partial maps\n"
    for argv in (["functor", "s", "--in", str(path), "--grades", grades, "--out", str(out)],
                 ["adjunction-test", "fm-s", "--in", str(path), "--grades", grades]):
        assert _request(argv, capsys) == (2, "", line)
    assert not out.exists()
