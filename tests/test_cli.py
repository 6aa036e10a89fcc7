import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graded_topos.cli import main
from graded_topos.frames import GradedFrame, check_frame
from graded_topos.grades import ONE, ZERO
from graded_topos.serialization import save_frame

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


def _run_on_binders(verb, deep, interp, tmp_path):
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps({"formulas": [deep]}))
    formula_args = {"eval": ["--formula", deep],
                    "consequence": ["--lhs", "T", "--rhs", deep],
                    "theorem2": ["--pool", str(pool)]}[verb]
    return subprocess.run(
        [sys.executable, "-m", "graded_topos.cli", verb, "--interp", str(interp), *formula_args],
        capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("verb", ["eval", "consequence", "theorem2"])
def test_deeply_nested_binders_are_an_input_error(verb, tmp_path):
    # parses (two parser frames per binder), but the reference evaluator
    # needs three per binder; over one element the step budget allows it
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({"constants": {}, "domain": ["d1"], "functions": {},
                                  "predicates": {"p": {"d1": "1/2"}}}))
    done = _run_on_binders(verb, "E x1. " * 450 + "T", interp, tmp_path)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and "nested too deeply" in done.stderr


@pytest.mark.parametrize("verb", ["eval", "consequence", "theorem2"])
def test_binders_beyond_the_step_budget_are_an_input_error(verb, tmp_path):
    # 2^300 steps over the two-element domain: refused before evaluation
    start = time.perf_counter()
    done = _run_on_binders(verb, "E x1. " * 300 + "T", FIXTURES / "interp_basic.json", tmp_path)
    assert time.perf_counter() - start < 1
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and "steps" in done.stderr


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
