"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench

They take under a minute: one pass of every workload, a planted wrong
verdict, and three short runs of the command itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import graded_topos.systems  # noqa: E402

SEED = 0


def one_pass(name: str, tmp_path: Path) -> run.Pass:
    workload, _ = run.timed_setup(name, SEED, tmp_path / name, 1)
    return run.run_pass(workload)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_is_correct_and_matches_the_record(name, tmp_path):
    result = one_pass(name, tmp_path)
    assert result.failures == []
    assert run.recorded_digest(name, SEED) == result.digest[:run.DIGEST_CHARS]


def test_planted_wrong_verdict_fails_ops_and_changes_the_digest(tmp_path, monkeypatch):
    clean = one_pass("frames", tmp_path)
    # a system checker that accepts everything misses every planted violation
    monkeypatch.setattr(graded_topos.systems, "check_system", lambda system, *a, **k: None)
    planted = one_pass("frames", tmp_path)
    assert clean.failures == []
    assert planted.failures
    assert planted.digest != clean.digest


def test_counts_that_differ_between_traced_passes_fail_every_op(tmp_path):
    import layers
    from tracer import Tracer

    workload, _ = run.timed_setup("sequents", SEED, tmp_path / "sequents", 1)
    passes = [run.run_pass(workload), run.run_pass(workload)]
    expected = run.recorded_digest("sequents", SEED)
    same, other = Tracer(), Tracer()
    same.counts["frames.masks"] = other.counts["frames.masks"] = 7
    assert layers.counts_repeat([same, other])
    assert run.failures(workload, passes, expected, [same, other])[0] == 0
    other.counts["frames.masks"] += 1
    assert not layers.counts_repeat([same, other])
    assert run.failures(workload, passes, expected, [same, other])[0] == 2 * len(workload.ops)


def declared() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sequents", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == declared()[trace]
    units = {m["name"]: m["unit"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sequents", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
