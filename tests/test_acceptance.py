"""Acceptance gate: one test per criterion, exact arithmetic throughout,
each printing its own pass/fail line (run with -s to see them live) and
asserting the stated runtime bound.

Everything here goes through seeded generators, so reruns are bit-identical.
"""

import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from graded_topos.checks import Violation, subset_regime
from graded_topos.frames import chain_frame, check_frame, check_frame_hom, frame_from_space
from graded_topos.functors import (
    GradeSet,
    check_naturality,
    check_spatial_equivalence,
    check_triangle_identities,
    counit,
    ext_column,
    ext_morphism,
    ext_object,
    fm_morphism,
    j_morphism,
    j_object,
    point_evaluation,
    s_morphism,
    s_object,
    unit_space,
)
from graded_topos.fuzzy_sets import FuzzySet, PointMap, Universe, graded_inclusion, image, preimage
from graded_topos.generators import (
    GeneratorConfig,
    derived_rng,
    generate_formula_pool,
    generate_nonspatial_system,
    generate_random_continuous_map,
    generate_random_interpretation,
    generate_random_space,
)
from graded_topos.grades import ONE, ZERO, godel_arrow, grade
from graded_topos.logic.parser import parse_formula
from graded_topos.logic.semantics import Assignment, sat_grade, sequent_grade, theorem2_suite
from graded_topos.serialization import (
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
)
from graded_topos.spaces import GradedSpace, check_continuous, check_space, space_iso_check
from graded_topos.systems import (
    check_spatial,
    check_system,
    check_system_morphism,
    system_iso_check,
)

FIXTURES = Path(__file__).parent / "fixtures"
CFG = GeneratorConfig(seed=20240607)


class _Stopwatch:
    def __init__(self, criterion: str, bound_s: float):
        self.criterion = criterion
        self.bound_s = bound_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.criterion} ({elapsed:.2f}s < {self.bound_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.bound_s, f"{self.criterion} exceeded {self.bound_s}s"
        return False


def test_criterion_01_graded_inclusion_propositions():
    with _Stopwatch("criterion 1: gt1-gt10 over 200 random spaces", 10):
        for i in range(200):
            space = generate_random_space(CFG, i, max_opens=16)
            assert len(space.universe) <= 4 and len(space) <= 16
            frame = frame_from_space(space)
            bad = check_frame(frame)  # axioms 1-9 are gt1-gt9
            assert bad is None, f"space #{i}: {bad}"
            for a in space.opens:  # gt10 pointwise
                for b in space.opens:
                    degree = frame.relation[(a, b)]
                    for x, ga in zip(space.universe.elements, a.grades):
                        assert min(ga, degree) <= b(x)


def test_criterion_02_inclusion_monotone_under_image():
    with _Stopwatch("criterion 2: image monotonicity on 500 triples", 5):
        for j in range(500):
            rng = derived_rng(CFG, 77, j)
            source = Universe(tuple(f"x{k}" for k in range(1, rng.randint(2, 6))))
            target = Universe(tuple(f"y{k}" for k in range(1, rng.randint(2, 6))))
            f = PointMap(source, target,
                         tuple(rng.choice(target.elements) for _ in source.elements))
            pool = CFG.grade_pool.grades
            t1 = FuzzySet(source, tuple(rng.choice(pool) for _ in source.elements))
            t2 = FuzzySet(source, tuple(rng.choice(pool) for _ in source.elements))
            assert graded_inclusion(t1, t2) <= graded_inclusion(image(f, t1), image(f, t2))


def test_criterion_03_frames_of_opens_exhaustive():
    with _Stopwatch("criterion 3: frame axioms for 100 spaces, exhaustive", 30):
        for i in range(100):
            space = generate_random_space(CFG, i + 1000, max_opens=12)
            frame = frame_from_space(space)
            assert subset_regime(len(frame.carrier)) == "exhaustive"
            assert check_frame(frame) is None, f"space #{i}"


def test_criterion_04_system_and_extent_construction():
    with _Stopwatch("criterion 4: membership systems and extent spaces, 100 each", 10):
        for i in range(100):
            system = j_object(generate_random_space(CFG, i + 2000, max_opens=10))
            assert check_system(system) is None, f"system #{i}"
            extent = ext_object(system)
            assert isinstance(check_space(extent.universe, list(extent.opens)), GradedSpace)


def test_criterion_05_morphism_transport():
    with _Stopwatch("criterion 5: morphism transport both directions, 100 each", 10):
        for i in range(100):
            f, source, target = generate_random_continuous_map(CFG, i + 3000, max_opens=8)
            m = j_morphism(f, source, target)
            assert check_system_morphism(m) is None, f"map #{i}"
            pm = ext_morphism(m)
            assert check_continuous(pm, ext_object(m.source), ext_object(m.target)) is None
            for b in m.target.frame.carrier:
                assert preimage(pm, ext_column(m.target, b)) \
                    == ext_column(m.source, m.frame_hom.map[b])


def test_criterion_06_j_ext_adjunction():
    with _Stopwatch("criterion 6: triangles, naturality, unit iso on 50 instances", 20):
        for i in range(50):
            space = generate_random_space(CFG, i + 4000, max_opens=8)
            for law in check_triangle_identities("j-ext", space):
                assert law.ok, f"space #{i}: {law.name}"
            assert space_iso_check(unit_space(space), space, ext_object(j_object(space)))
            f, source, target = generate_random_continuous_map(CFG, i + 4200, max_opens=8)
            for law in check_naturality("j-ext", (f, source, target)):
                assert law.ok
            for law in check_naturality("j-ext", j_morphism(f, source, target)):
                assert law.ok


def test_criterion_07_spatial_equivalence():
    with _Stopwatch("criterion 7: counit iso exactly on spatial systems", 5):
        for i in range(25):
            system = j_object(generate_random_space(CFG, i + 5000, max_opens=8))
            assert check_spatial(system)[0]
            assert system_iso_check(counit(system)), f"spatial #{i}"
            assert check_spatial_equivalence(system)
        for i in range(10):
            nonspatial = generate_nonspatial_system(CFG, i)
            assert not check_spatial(nonspatial)[0]
            assert not system_iso_check(counit(nonspatial)), f"non-spatial #{i}"
            assert check_spatial_equivalence(nonspatial)


def test_criterion_08_fm_s_adjunction():
    with _Stopwatch("criterion 8: hom-system side of the adjunction, 25 instances", 60):
        for i in range(25):
            space = generate_random_space(CFG, i + 6000, max_opens=5)
            system = j_object(space)
            frame = system.frame
            values = GradeSet.for_system(system)
            assert len(frame.carrier) <= 5 and len(values) <= 4
            hom_system = s_object(frame, values)
            assert check_system(hom_system) is None, f"frame #{i}"
            chain = chain_frame(values.grades)
            for x in system.points.elements:
                hom = point_evaluation(system, x).as_frame_hom(frame, chain)
                assert check_frame_hom(hom) is None, f"row at {x!r}"
            f, source, target = generate_random_continuous_map(CFG, i + 6200, max_opens=5)
            m = j_morphism(f, source, target)
            pooled = GradeSet.closure(set(m.source.sat.values()) | set(m.target.sat.values()))
            lifted = s_morphism(fm_morphism(m), s_object(m.source.frame, pooled),
                                s_object(m.target.frame, pooled))
            assert check_system_morphism(lifted) is None
            for law in check_triangle_identities("fm-s", frame, values):
                assert law.ok, f"frame #{i}: {law.name}"


def test_criterion_09_composite_adjunction():
    with _Stopwatch("criterion 9: composite triangles on 25 instances", 30):
        for i in range(25):
            space = generate_random_space(CFG, i + 6000, max_opens=5)
            values = GradeSet.for_system(j_object(space))
            for law in check_triangle_identities("j-ext", space):
                assert law.ok
            for law in check_triangle_identities("fm-s", frame_from_space(space), values):
                assert law.ok
            for law in check_triangle_identities("composite", space, values):
                assert law.ok, f"space #{i}: {law.name}"


def test_criterion_10_sequent_laws():
    with _Stopwatch("criterion 10: nine sequent laws over 300 interpretations", 60):
        for i in range(300):
            interp = generate_random_interpretation(CFG, i)
            assert len(interp.domain) <= 3
            pool = generate_formula_pool(CFG, i, interp, size=4, depth=3)
            for law in theorem2_suite(interp, pool):
                assert law.ok, f"instance #{i}: {law.name}: {law.detail}"


def test_criterion_11_evaluator_spot_values():
    with _Stopwatch("criterion 11: evaluator spot values against the fixtures", 1):
        interp = load_interpretation(FIXTURES / "interp_basic.json")
        sig = interp.signature()
        s = Assignment({1: "d1", 2: "d2"})
        assert sat_grade(interp, s, parse_formula("T", sig)) == ONE
        assert sat_grade(interp, s, parse_formula("F", sig)) == ZERO
        assert sat_grade(interp, s, parse_formula("(x1 = x1)", sig)) == ONE
        assert sat_grade(interp, s, parse_formula("(x1 = x2)", sig)) == ZERO
        assert sat_grade(interp, s, parse_formula("p(x1)", sig)) == F(3, 10)
        assert godel_arrow(F(1, 2), F(1, 2)) == ONE
        assert godel_arrow(F(7, 10), F(3, 10)) == F(3, 10)
        assert godel_arrow(ZERO, F(3, 10)) == ONE
        assert godel_arrow(ONE, ZERO) == ZERO
        assert sequent_grade(interp, parse_formula("p(x1)", sig),
                             parse_formula("q(x1)", sig)) == ZERO
        assert sequent_grade(interp, parse_formula("q(x1)", sig),
                             parse_formula("p(x1)", sig)) == F(1, 2)
        pool = load_formulas(FIXTURES / "pool_basic.json", sig)
        assert all(law.ok for law in theorem2_suite(interp, pool))


def test_criterion_12_round_trips_and_rejections(tmp_path):
    loaders = {"space": load_space, "frame": load_frame, "system": load_system,
               "interp": load_interpretation, "pool": load_formulas,
               "fuzzy": load_fuzzy_set, "point": load_point_map}
    savers = {"space": save_space, "frame": save_frame, "system": save_system,
              "interp": save_interpretation, "pool": save_formulas,
              "fuzzy": save_fuzzy_set, "point": save_point_map}
    with _Stopwatch("criterion 12: byte round-trips and invalid rejections", 2):
        fixtures = sorted(FIXTURES.glob("*.json"))
        assert fixtures
        for path in fixtures:
            kind = path.name.split("_")[0]
            out = tmp_path / path.name
            savers[kind](loaders[kind](path), out)
            assert out.read_bytes() == path.read_bytes(), path.name
        manifest = json.loads((FIXTURES / "invalid" / "manifest.json").read_text())
        checker_level = {n: i for n, i in manifest.items() if i["clause"] != "schema"}
        assert len(checker_level) >= 10
        schema_loaders = {"fuzzy_set": load_fuzzy_set, "frame": load_frame,
                          "interpretation": load_interpretation}
        for name, info in sorted(manifest.items()):
            path = FIXTURES / "invalid" / name
            if info["clause"] == "schema":
                from graded_topos.errors import SchemaError
                with pytest.raises(SchemaError):
                    schema_loaders[info["kind"]](path)
                continue
            if info["kind"] == "space":
                space = load_space(path)
                outcome = check_space(space.universe, list(space.opens))
            elif info["kind"] == "frame":
                outcome = check_frame(load_frame(path))
            else:
                outcome = check_system(load_system(path))
            assert isinstance(outcome, Violation), name
            assert outcome.clause == info["clause"], name
