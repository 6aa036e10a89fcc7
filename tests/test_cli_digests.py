"""Byte identity of the CLI: every run that `fixtures/record_cli_digests.py`
lists gives the exit code, output and written file it gave when the table
was recorded."""

import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).parent
_spec = importlib.util.spec_from_file_location(
    "record_cli_digests", HERE / "fixtures" / "record_cli_digests.py")
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def test_every_cli_run_matches_its_recorded_digest():
    recorded = json.loads(recorder.DIGESTS.read_text())
    now = recorder.record()
    assert sorted(now) == sorted(recorded)
    assert [run for run in recorded if now[run] != recorded[run]] == []


def test_the_digest_sees_the_exit_code_the_output_and_the_written_file(tmp_path):
    base = recorder.digest(["check", "frame", "frame_two_chain.json"], tmp_path)
    assert base == recorder.digest(["check", "frame", "frame_two_chain.json"], tmp_path)
    assert base != recorder.digest(["check", "space", "frame_two_chain.json"], tmp_path)
    assert base != recorder.digest(["check", "frame", "invalid/frame_reflexivity.json"], tmp_path)
    s_two = ["functor", "s", "--in", "frame_two_chain.json", "--out", "OUT"]
    s_three = ["functor", "s", "--in", "frame_three_chain.json", "--out", "OUT"]
    assert recorder.digest(s_two, tmp_path) != recorder.digest(s_three, tmp_path)
    assert not (tmp_path / "out.json").exists()
