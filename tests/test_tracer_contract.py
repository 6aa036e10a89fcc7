"""The benchmark's tracer (`perfbench/tracer.py`) wraps package names from
outside: module functions, `GradedFrame.join_fn` and `checks.subset_regime`.
This runs it over one `frames` op, so a rename of a name it wraps fails
here and not only in a traced benchmark run."""

import sys
from fractions import Fraction
from pathlib import Path

from graded_topos import frames
from graded_topos.generators import GeneratorConfig, generate_random_space

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_the_tracer_wraps_one_frames_op_and_unwraps_it():
    space = generate_random_space(GeneratorConfig(seed=0), 0, max_opens=8)
    compare = Fraction.__lt__
    tracer = Tracer()
    tracer.install()
    try:
        frame = frames.frame_from_space(space)
        assert frames.check_frame(frame) is None
        assert frames.check_frame_hom(frames.FrameHom.identity(frame)) is None
    finally:
        tracer.uninstall()
    for name in ("frame_from_space", "check_frame", "check_frame_hom"):
        assert tracer.calls[f"frames.{name}"] == 1
        assert not hasattr(getattr(frames, name), "__wrapped__")
    assert tracer.counts["frames.checked"] == 1
    assert frame.join_fn(frozenset()) == frame.bottom and Fraction.__lt__ is compare
