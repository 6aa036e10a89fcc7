"""The benchmark's tracer (`perfbench/tracer.py`) wraps package names from
outside: module functions, `GradedFrame.join_fn`, `checks.subset_regime`
and the CLI's `main` per verb. This runs it over one op of the `frames`
workload, one of the `homs` workload and one CLI `functor j` request, so a
rename of a name it wraps fails here and not only in a traced benchmark
run, and a function that stops calling another through its module name
shows as a missing call."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graded_topos import cli, frames, functors, systems
from graded_topos.fuzzy_sets import PointMap
from graded_topos.generators import GeneratorConfig, generate_random_space
from graded_topos.serialization import save_space

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    """An installed tracer; uninstalled after the test, which must leave
    every name it wrapped as it was."""
    before = {module: dict(vars(module)) for module in (frames, functors, systems, cli)}
    compare = Fraction.__lt__
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    for module, names in before.items():
        assert all(getattr(module, name) is value for name, value in names.items())
    assert Fraction.__lt__ is compare


def test_the_tracer_wraps_one_frames_op_and_unwraps_it(tracer):
    # the body of a valid `frames` op (perfbench/workloads.py), then a frame hom check
    space = generate_random_space(GeneratorConfig(seed=0), 0, max_opens=8)
    frame = frames.frame_from_space(space)
    assert frames.check_frame(frame) is None
    system = functors.j_object(space)
    assert systems.check_system(system) is None
    morphism = functors.j_morphism(PointMap.identity(space.universe), space, space)
    assert systems.check_system_morphism(morphism) is None
    assert functors.ext_object(system).opens == space.opens
    assert frames.check_frame_hom(frames.FrameHom.identity(frame)) is None
    # frame_from_space is called twice (directly and by j_object) and builds
    # the frame once; j_morphism calls j_object at both ends, which read the
    # system the space keeps; the morphism check runs check_frame_hom on its
    # frame component
    assert tracer.calls["frames.frame_from_space"] == 2
    assert tracer.calls["functors.j_object"] == 3
    assert tracer.calls["frames.check_frame_hom"] == 2
    for name in ("frames.check_frame", "systems.check_system", "functors.j_morphism",
                 "systems.check_system_morphism", "functors.ext_object"):
        assert tracer.calls[name] == 1, name
    assert tracer.counts["frames.checked"] == 1
    assert frame.join_fn(frozenset()) == frame.bottom


def test_the_tracer_wraps_one_homs_op(tracer):
    # the body of a `homs` op (perfbench/workloads.py) on a small space
    space = generate_random_space(GeneratorConfig(seed=0), 0, max_opens=5)
    frame = functors.j_object(space).frame
    values = functors.GradeSet.for_frame(frame)
    points = functors.enumerate_point_homs(frame, values)
    chain = frames.chain_frame(values.grades)
    assert points and all(frames.check_frame_hom(p.as_frame_hom(frame, chain)) is None for p in points)
    laws = (functors.check_triangle_identities("fm-s", frame, values)
            + functors.check_triangle_identities("composite", space, values)
            + functors.check_naturality("fm-s", frames.FrameHom.identity(frame), values))
    assert all(law.ok for law in laws)
    assert tracer.calls["functors.check_triangle_identities"] == 2
    assert tracer.calls["functors.check_naturality"] == 1
    assert tracer.counts["functors.fm_s_triangle_checks"] == 1
    assert tracer.counts["functors.homs_found"] >= len(points)
    for name in ("functors.enumerate_point_homs", "functors.j_object", "functors.s_object",
                 "functors.s_morphism", "functors.counit", "functors.unit_system",
                 "systems.compose_system_morphisms", "frames.check_frame_hom"):
        assert tracer.calls[name] >= 1, name


def test_the_tracer_wraps_one_cli_functor_request(tracer, tmp_path, capsys):
    space = generate_random_space(GeneratorConfig(seed=0), 0, max_opens=5)
    save_space(space, tmp_path / "space.json")  # bound before the tracer was installed
    assert cli.main(["functor", "j", "--in", str(tmp_path / "space.json"),
                     "--out", str(tmp_path / "system.json")]) == 0
    for name in ("cli.functor", "serialization.load", "serialization.save", "functors.j_object",
                 "frames.frame_from_space"):
        assert tracer.calls[name] == 1, name
    assert tracer.counts["serialization.bytes_written"] == (tmp_path / "system.json").stat().st_size
