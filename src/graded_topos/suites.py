"""Named invariant suites over generated instances.

Each suite loops deterministically seeded instances through the relevant
checkers and aggregates one Report per law, naming the clause the check
instantiates.
"""

from __future__ import annotations

import itertools
import time

from .errors import SchemaError
from .frames import (
    FrameHom,
    chain_frame,
    check_frame,
    check_frame_hom,
    compose_frame_hom,
    finite_meet,
    frame_from_space,
)
from .functors import (
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
    system_morphisms_equal,
    unit_space,
)
from .fuzzy_sets import (
    FuzzySet,
    PointMap,
    Universe,
    graded_inclusion,
    image,
    intersection,
    preimage,
    union,
)
from .generators import (
    GeneratorConfig,
    derived_rng,
    generate_continuous_chain,
    generate_formula_pool,
    generate_nonspatial_system,
    generate_random_continuous_map,
    generate_random_interpretation,
    generate_random_space,
)
from .grades import ONE, ZERO
from .logic.semantics import theorem2_suite
from .reports import Report, ReportCollector
from .spaces import GradedSpace, check_continuous, check_space, space_iso_check
from .systems import (
    SystemMorphism,
    check_spatial,
    check_system,
    check_system_morphism,
    compose_system_morphisms,
    system_iso_check,
)

SUITE_NAMES = ("props", "frame-laws", "system-laws", "functor-laws", "adjunction", "theorem2")

DEFAULT_INSTANCES = {
    "props": 200,
    "frame-laws": 100,
    "system-laws": 100,
    "functor-laws": 100,
    "adjunction": 50,
    "theorem2": 300,
}

_GT_BY_AXIOM = {f"axiom {k}": f"gt{k}" for k in range(1, 10)}


def run_suite(name: str, cfg: GeneratorConfig, instances: int | None = None) -> list[Report]:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if instances is not None and instances < 1:
        raise SchemaError("instances", "must be at least 1")
    count = DEFAULT_INSTANCES[name] if instances is None else instances
    runner = {
        "props": _run_props,
        "frame-laws": _run_frame_laws,
        "system-laws": _run_system_laws,
        "functor-laws": _run_functor_laws,
        "adjunction": _run_adjunction,
        "theorem2": _run_theorem2,
    }[name]
    start = time.perf_counter()
    collector = ReportCollector()
    runner(cfg, count, collector)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return collector.reports(elapsed_ms)


def _run_props(cfg: GeneratorConfig, count: int, rc: ReportCollector) -> None:
    for i in range(count):
        space = generate_random_space(cfg, i, max_opens=16)
        frame = frame_from_space(space)
        bad = check_frame(frame)
        for k in range(1, 10):
            subject = f"props/{_GT_BY_AXIOM[f'axiom {k}']}"
            if bad is not None and bad.clause == f"axiom {k}":
                rc.record(subject, False,
                          (f"space #{i}: {bad.witness}", "law holds", "violated"))
            else:
                rc.record(subject, True)
        if bad is not None and bad.clause not in _GT_BY_AXIOM:
            rc.record("props/space-frame structure", False,
                      (f"space #{i}", "semilattice", bad.clause))
        ok10 = True
        for a in space.opens:
            for b in space.opens:
                degree = frame.relation[(a, b)]
                for x, ga in zip(space.universe.elements, a.grades):
                    if min(ga, degree) > b(x):
                        ok10 = False
        rc.record("props/gt10", ok10,
                  (f"space #{i}", "pointwise bound", "violated"))

    for j in range(count * 5 // 2):
        rng = derived_rng(cfg, 11, j)
        source = Universe(tuple(f"x{k + 1}" for k in range(rng.randint(1, 5))))
        target = Universe(tuple(f"y{k + 1}" for k in range(rng.randint(1, 5))))
        f = PointMap(source, target,
                     tuple(rng.choice(target.elements) for _ in source.elements))
        t1 = FuzzySet(source, tuple(rng.choice(cfg.grade_pool.grades) for _ in source.elements))
        t2 = FuzzySet(source, tuple(rng.choice(cfg.grade_pool.grades) for _ in source.elements))
        ok = graded_inclusion(t1, t2) <= graded_inclusion(image(f, t1), image(f, t2))
        rc.record("props/ftres", ok,
                  (f"triple #{j}", "monotone under image", "violated"))
        b1 = FuzzySet(target, tuple(rng.choice(cfg.grade_pool.grades) for _ in target.elements))
        b2 = FuzzySet(target, tuple(rng.choice(cfg.grade_pool.grades) for _ in target.elements))
        ok_hom = (preimage(f, union([b1, b2])) == union([preimage(f, b1), preimage(f, b2)])
                  and preimage(f, intersection(b1, b2))
                  == intersection(preimage(f, b1), preimage(f, b2)))
        rc.record("props/preimage-homomorphism", ok_hom,
                  (f"triple #{j}", "preimage commutes", "violated"))


def _run_frame_laws(cfg: GeneratorConfig, count: int, rc: ReportCollector) -> None:
    for i in range(count):
        space = generate_random_space(cfg, i, max_opens=12)
        frame = frame_from_space(space)
        bad = check_frame(frame)
        rc.record("frame-laws/Lemma 3.13g (opens form a graded frame)", bad is None,
                  (f"space #{i}", "all nine axioms", str(bad)))
        bad = check_frame_hom(FrameHom.identity(frame))
        rc.record("frame-laws/Def. Grfrm identity", bad is None,
                  (f"space #{i}", "identity is a hom", str(bad)))
        ok = (finite_meet(frame, []) == frame.top
              and all(finite_meet(frame, [a]) == a for a in frame.carrier)
              and all(finite_meet(frame, [a, b]) == frame.meet(a, b)
                      for a in frame.carrier for b in frame.carrier))
        rc.record("frame-laws/Def. gftsy finite meet fold", ok,
                  (f"space #{i}", "fold of binary meet", "differs"))

    chain = chain_frame(cfg.grade_pool.grades)
    bad = check_frame(chain)
    rc.record("frame-laws/Def. 3.16g grade chain", bad is None,
              ("grade chain", "all nine axioms", str(bad)))

    for i in range(max(1, count // 4)):
        f, g, first, middle, last = generate_continuous_chain(cfg, i)
        hf = j_morphism(f, first, middle).frame_hom
        hg = j_morphism(g, middle, last).frame_hom
        composite = compose_frame_hom(hg, hf)
        bad = check_frame_hom(composite)
        rc.record("frame-laws/Prop. next (hom composition)", bad is None,
                  (f"chain #{i}", "composite is a hom", str(bad)))


def _run_system_laws(cfg: GeneratorConfig, count: int, rc: ReportCollector) -> None:
    for i in range(count):
        space = generate_random_space(cfg, i, max_opens=12)
        system = j_object(space)
        bad = check_system(system)
        rc.record("system-laws/Lemma 3.13g (membership system)", bad is None,
                  (f"space #{i}", "all three clauses", str(bad)))
        extent = ext_object(system)
        result = check_space(extent.universe, list(extent.opens))
        ok = isinstance(result, GradedSpace)
        rc.record("system-laws/Lemma 3.9g (extent space)", ok,
                  (f"space #{i}", "extents form a topology", str(result)))
        bad = check_system_morphism(SystemMorphism.identity(system))
        rc.record("system-laws/Def. Grftsy identity", bad is None,
                  (f"space #{i}", "identity morphism", str(bad)))
        spatial, pair = check_spatial(system)
        rc.record("system-laws/membership systems are spatial", spatial,
                  (f"space #{i}", "spatial", f"collision {pair}"))
        view = system.frame.view
        ok = all(row[view.top] == ONE and row[view.bottom] == ZERO for row in system.rows)
        rc.record("system-laws/Def. gftsy empty meet and join", ok,
                  (f"space #{i}", "top 1 / bottom 0", "violated"))

    for i in range(max(1, count // 5)):
        nonspatial = generate_nonspatial_system(cfg, i)
        bad = check_system(nonspatial)
        spatial, _ = check_spatial(nonspatial)
        ok = bad is None and not spatial
        rc.record("system-laws/point-restricted systems stay valid", ok,
                  (f"restricted #{i}", "valid and non-spatial", str(bad)))
        extent = ext_object(nonspatial)
        ok = len(extent.opens) < len(nonspatial.frame.carrier)
        rc.record("system-laws/Def. 3.8g extent deduplicates", ok,
                  (f"restricted #{i}", "fewer opens than carrier", "not collapsed"))

    for i in range(max(1, count // 5)):
        space = generate_random_space(cfg, i + 7000, max_opens=min(5, cfg.max_carrier))
        frame = frame_from_space(space)
        values = GradeSet.for_system(j_object(space))
        hom_system = s_object(frame, values)
        bad = check_system(hom_system)
        rc.record("system-laws/Lemma 3.17g (hom system)", bad is None,
                  (f"frame #{i}", "all three clauses", str(bad)))


def _run_functor_laws(cfg: GeneratorConfig, count: int, rc: ReportCollector) -> None:
    for i in range(count):
        f, source, target = generate_random_continuous_map(cfg, i, max_opens=10)
        m = j_morphism(f, source, target)
        bad = check_system_morphism(m)
        rc.record("functor-laws/Lemma 3.14g (lifted morphisms)", bad is None,
                  (f"map #{i}", "morphism clauses", str(bad)))
        pm = ext_morphism(m)
        source_extent = ext_object(m.source)
        target_extent = ext_object(m.target)
        cont = check_continuous(pm, source_extent, target_extent)
        rc.record("functor-laws/Lemma 3.10g (extent continuity)", cont is None,
                  (f"map #{i}", "continuous", str(cont)))
        ok = all(
            preimage(pm, ext_column(m.target, b)) == ext_column(m.source, m.frame_hom.map[b])
            for b in m.target.frame.carrier)
        rc.record("functor-laws/Lemma 3.10g (preimage identity)", ok,
                  (f"map #{i}", "preimage of extent", "differs"))

    for i in range(max(1, count // 5)):
        f, g, first, middle, last = generate_continuous_chain(cfg, i + 101)
        direct = j_morphism(PointMap(first.universe, last.universe,
                                     tuple(g(f(x)) for x in first.universe.elements)),
                            first, last)
        composed = compose_system_morphisms(j_morphism(f, first, middle),
                                            j_morphism(g, middle, last))
        ok = system_morphisms_equal(direct, composed)
        rc.record("functor-laws/Def. 3.12g composites", ok,
                  (f"chain #{i}", "lift of composite", "differs"))
        ok = (fm_morphism(composed).map == compose_frame_hom(
            fm_morphism(j_morphism(g, middle, last)),
            fm_morphism(j_morphism(f, first, middle))).map)
        rc.record("functor-laws/Def. 3.15g composites", ok,
                  (f"chain #{i}", "projected composite", "differs"))

        space = generate_random_space(cfg, i + 501, max_opens=4)
        sys_small = j_object(space)
        ident = j_morphism(PointMap.identity(space.universe), space, space)
        ok = system_morphisms_equal(ident, SystemMorphism.identity(sys_small))
        rc.record("functor-laws/Def. 3.12g identity", ok,
                  (f"space #{i}", "lift of identity", "differs"))
        values = GradeSet.for_system(sys_small)
        hom_system = s_object(sys_small.frame, values)
        lifted = s_morphism(FrameHom.identity(sys_small.frame), hom_system, hom_system)
        ok = system_morphisms_equal(lifted, SystemMorphism.identity(hom_system))
        rc.record("functor-laws/Def. 3.19g identity", ok,
                  (f"space #{i}", "hom-system identity", "differs"))


def _run_adjunction(cfg: GeneratorConfig, count: int, rc: ReportCollector) -> None:
    for i in range(count):
        space = generate_random_space(cfg, i, max_opens=8)
        for law in check_triangle_identities("j-ext", space):
            rc.record("adjunction/Lemma 3.20g triangles", law.ok,
                      (f"space #{i}: {law.name}", "identity", law.detail or "differs"))
        extent = ext_object(j_object(space))
        ok = space_iso_check(unit_space(space), space, extent)
        rc.record("adjunction/Observation o2_g (unit iso)", ok,
                  (f"space #{i}", "iso", "not an iso"))
        system = j_object(space)
        ok = check_spatial_equivalence(system)
        rc.record("adjunction/Theorem equigft (spatial instances)", ok,
                  (f"space #{i}", "spatial iff counit iso", "differs"))

        f, source, target = generate_random_continuous_map(cfg, i + 301, max_opens=8)
        for law in check_naturality("j-ext", (f, source, target)):
            rc.record("adjunction/Lemma 3.20g unit naturality", law.ok,
                      (f"map #{i}", "square commutes", law.detail or "differs"))
        m = j_morphism(f, source, target)
        for law in check_naturality("j-ext", m):
            rc.record("adjunction/Lemma 3.20g counit naturality", law.ok,
                      (f"map #{i}", "square commutes", law.detail or "differs"))

    for i in range(max(10, count // 5)):
        nonspatial = generate_nonspatial_system(cfg, i)
        iso = system_iso_check(counit(nonspatial))
        rc.record("adjunction/Observation o1_g (non-spatial counit)", not iso,
                  (f"system #{i}", "not an iso", "iso"))
        ok = check_spatial_equivalence(nonspatial)
        rc.record("adjunction/Theorem equigft (non-spatial instances)", ok,
                  (f"system #{i}", "spatial iff counit iso", "differs"))

    for i in range(max(1, count // 2)):
        space = generate_random_space(cfg, i + 900, max_opens=min(5, cfg.max_carrier))
        system = j_object(space)
        frame = system.frame
        values = GradeSet.for_system(system)
        for law in check_triangle_identities("fm-s", frame, values):
            rc.record("adjunction/Lemma 3.22g triangles", law.ok,
                      (f"frame #{i}: {law.name}", "identity", law.detail or "differs"))
        chain = chain_frame(values.grades)
        ok = all(
            check_frame_hom(point_evaluation(system, x).as_frame_hom(frame, chain)) is None
            for x in system.points.elements)
        rc.record("adjunction/Lemma 3.22g unit homs", ok,
                  (f"frame #{i}", "rows are homs", "violated"))

        f2, src2, tgt2 = generate_random_continuous_map(cfg, i + 1300, max_opens=min(5, cfg.max_carrier))
        m2 = j_morphism(f2, src2, tgt2)
        values2 = GradeSet.closure(itertools.chain(*m2.source.rows, *m2.target.rows))
        lifted = s_morphism(fm_morphism(m2), s_object(m2.source.frame, values2),
                            s_object(m2.target.frame, values2))
        bad = check_system_morphism(lifted)
        rc.record("adjunction/Lemma 3.18g (precomposition)", bad is None,
                  (f"map #{i}", "morphism clauses", str(bad)))
        for law in check_naturality("fm-s", m2, values2):
            rc.record("adjunction/Lemma 3.22g unit naturality", law.ok,
                      (f"map #{i}", "square commutes", law.detail or "differs"))
        for law in check_naturality("fm-s", fm_morphism(m2), values2):
            rc.record("adjunction/Lemma 3.22g counit naturality", law.ok,
                      (f"map #{i}", "square commutes", law.detail or "differs"))

    for i in range(max(1, count // 2)):
        space = generate_random_space(cfg, i + 2100, max_opens=min(5, cfg.max_carrier))
        values = GradeSet.for_system(j_object(space))
        for law in check_triangle_identities("composite", space, values):
            rc.record("adjunction/Theorem 3.25g composite triangles", law.ok,
                      (f"space #{i}: {law.name}", "identity", law.detail or "differs"))


def _run_theorem2(cfg: GeneratorConfig, count: int, rc: ReportCollector) -> None:
    for i in range(count):
        interp = generate_random_interpretation(cfg, i)
        pool = generate_formula_pool(cfg, i, interp)
        for law in theorem2_suite(interp, pool):
            rc.record(f"theorem2/{law.name}", law.ok,
                      (f"instance #{i}", "clause holds", law.detail))
