"""The traced run: per-layer self time and counts, and the scale points.

Untraced and traced passes alternate over the same op list until the run's
time is used up, so ``trace.overhead_ratio`` compares passes made under the
same machine conditions. Times are medians over the traced passes; counts
come from the first traced pass and must repeat on every later one, or the
run fails (see ``counts_repeat``).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from itertools import combinations

import calibration
from tracer import CLI_VERBS, LAYERS, Tracer, layer_of
from workloads import ExitMismatch

# self time (ms) of these span names is reported on its own
TIMED = (
    "logic.semantics.theorem2_suite", "logic.semantics.sequent_grade",
    "spaces.generate_topology",
    "frames.frame_from_space", "frames.check_frame", "frames.check_frame_hom",
    "systems.check_system", "systems.check_system_morphism",
    "functors.enumerate_point_homs", "functors.check_triangle_identities",
    "logic.parser.parse_formula",
    "serialization.load", "serialization.save",
) + tuple(f"cli.{verb}" for verb in CLI_VERBS)

CALLED = ("fuzzy_sets.union", "fuzzy_sets.graded_inclusion", "functors.enumerate_point_homs")

COUNTED = ("grades.compares", "logic.semantics.assignments", "spaces.opens", "frames.masks",
           "functors.hom_candidates", "functors.homs_found", "logic.parser.nodes",
           "serialization.bytes_read", "serialization.bytes_written")

SCALE_POINTS = ("scale.check_frame.n18", "scale.check_frame.n27",
                "scale.enumerate_point_homs.n11_L3")

# every per-layer metric in the order it is printed, with its unit
PER_LAYER = (
    [(f"{name}.ms", "ms") for name in TIMED]
    + [(f"{name}.calls", "count") for name in CALLED]
    + [(name, "count") for name in COUNTED]
    + [("frames.sampled_share", "ratio"), ("functors.hom_yield", "ratio"),
       ("functors.enumerations_per_triangle", "ratio"),
       ("functors.enumerate_point_homs.inclusive_share", "ratio"), ("cli.exit_mismatches", "count")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS + ("bench",)]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS + ("bench",)]
    + [(f"{point}.ms", "ms") for point in SCALE_POINTS]
    + [("trace.overhead_ratio", "ratio")]
)


def traced_passes(workload, deadline: float, run_pass):
    untraced, traced, tracers = [], [], []
    while True:
        untraced.append(run_pass(workload))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(workload, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        pair = (untraced[-1].wall_ns + traced[-1].wall_ns) / 1e9
        if time.perf_counter() + pair > deadline:
            return untraced, traced, tracers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_repeat(tracers) -> bool:
    """Whether every traced pass counted exactly the same work as the first."""
    return all(tracer.counts == tracers[0].counts for tracer in tracers[1:])


def per_layer(workload, untraced, traced, tracers) -> tuple[dict, list[str]]:
    first = tracers[0]
    values: dict[str, float] = {}
    # span times are raw; each traced pass scales them like its op latencies
    for name in TIMED:
        values[f"{name}.ms"] = statistics.median(
            t.self_ns[name] * run.speed() for t, run in zip(tracers, traced)) / 1e6
    for name in CALLED:
        values[f"{name}.calls"] = first.calls[name]
    for name in COUNTED:
        values[name] = first.counts[name]
    values["frames.sampled_share"] = _ratio(first.counts["frames.sampled"],
                                            first.counts["frames.checked"])
    values["functors.hom_yield"] = _ratio(first.counts["functors.homs_found"],
                                          first.counts["functors.hom_candidates"])
    values["functors.enumerations_per_triangle"] = _ratio(
        first.counts["functors.enumerations_in_fm_s_triangles"],
        first.counts["functors.fm_s_triangle_checks"])
    # time inside enumeration, its callees included, as a share of op time
    values["functors.enumerate_point_homs.inclusive_share"] = statistics.median(
        _ratio(sum(end - start for _, name, start, end, *_ in t.spans
                   if name == "functors.enumerate_point_homs"), sum(run.raw_ns))
        for t, run in zip(tracers, traced))
    values["cli.exit_mismatches"] = sum(
        isinstance(exc, ExitMismatch) for _, exc in traced[0].failures)

    layer_ms = {layer: [] for layer in LAYERS + ("bench",)}
    for tracer, run in zip(tracers, traced):
        per = dict.fromkeys(LAYERS, 0)
        for name, ns in tracer.self_ns.items():
            per[layer_of(name)] += ns
        per["bench"] = sum(run.raw_ns) - sum(per.values())
        for layer, ns in per.items():
            layer_ms[layer].append(ns * run.speed() / 1e6)
    total_ms = statistics.median(sum(run.latencies_ns) for run in traced) / 1e6
    for layer, samples in layer_ms.items():
        values[f"{layer}.self_ms"] = statistics.median(samples)
        values[f"{layer}.self_share"] = _ratio(statistics.median(samples), total_ms)

    values.update({f"{point}.ms": ms for point, ms in scale_points().items()})

    def rate(runs) -> float:
        return statistics.median(len(workload.ops) / (sum(r.latencies_ns) / 1e9) for r in runs)

    values["trace.overhead_ratio"] = _ratio(rate(traced), rate(untraced))

    notes = [f"traced run: {len(traced)} traced and {len(untraced)} untraced passes; "
             "times are medians over traced passes, counts from the first"]
    units = dict(PER_LAYER)
    return {name: (values[name], units[name]) for name, _ in PER_LAYER}, notes


# ---------------------------------------------------------------------------
# scale points: one call each at sizes where today's algorithms are exponential

def _product_space(grade_sets):
    """The space of all fuzzy sets taking values in grade_sets[i] at point i:
    a product of chains, with prod(len(grade_sets[i])) opens."""
    import graded_topos as gt

    universe = gt.Universe(tuple(f"x{i + 1}" for i in range(len(grade_sets))))
    generators = []
    for i, grades in enumerate(grade_sets):
        for g in grades:
            if g:
                values = [Fraction(0)] * len(grade_sets)
                values[i] = g
                generators.append(gt.FuzzySet(universe, tuple(values)))
    return gt.generate_topology(universe, generators)


def _space_with_opens(count: int):
    """The first three-point space over grades {0, 1/2, 1}, generated by two
    or three fuzzy sets in lexicographic order, with exactly `count` opens."""
    import graded_topos as gt

    half = Fraction(1, 2)
    universe = gt.Universe(("x1", "x2", "x3"))
    grades = (Fraction(0), half, Fraction(1))
    sets = [gt.FuzzySet(universe, (a, b, c)) for a in grades for b in grades for c in grades]
    for size in (2, 3):
        for generators in combinations(sets, size):
            space = gt.generate_topology(universe, list(generators))
            if len(space) == count:
                return space
    raise RuntimeError(f"no space with {count} opens")


def scale_points() -> dict[str, float]:
    import graded_topos as gt

    half = Fraction(1, 2)
    three = (Fraction(0), half, Fraction(1))
    out = {}
    for name, space in (("scale.check_frame.n18", _product_space([three, three, three[::2]])),
                        ("scale.check_frame.n27", _product_space([three, three, three]))):
        frame = gt.frame_from_space(space)
        bad, seconds = calibration.timed(gt.check_frame, frame)
        out[name] = seconds * 1000
        if bad is not None or len(frame.carrier) != int(name[-2:]):
            raise AssertionError(f"{name}: unexpected frame or verdict {bad}")
    frame = gt.frame_from_space(_space_with_opens(11))
    points, seconds = calibration.timed(gt.enumerate_point_homs, frame, gt.GradeSet(three))
    out["scale.enumerate_point_homs.n11_L3"] = seconds * 1000
    if not points:
        raise AssertionError("no homs at the 11-open scale point")
    return out
