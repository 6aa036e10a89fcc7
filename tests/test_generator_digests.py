"""Byte identity of the generators: every instance that
`fixtures/record_generator_digests.py` lists is drawn as it was when the
table was recorded, so a generator change cannot move the benchmark's op
lists or the suites' instances unseen."""

import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).parent
_spec = importlib.util.spec_from_file_location(
    "record_generator_digests", HERE / "fixtures" / "record_generator_digests.py")
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def test_every_generated_instance_matches_its_recorded_digest():
    recorded = json.loads(recorder.DIGESTS.read_text())
    now = recorder.instances()
    assert sorted(now) == sorted(recorded)
    assert [key for key in recorded if now[key] != recorded[key]] == []
