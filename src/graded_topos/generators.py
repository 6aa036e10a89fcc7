"""Seeded random instances for the property suites.

Everything is a pure function of (config, index): a fresh Random is derived
from the seed and the salts, so the same inputs always rebuild the same
instance. Generated structures are valid by construction (topologies by
closure, of level cuts of grade-pool positions for a random space, systems
from spaces, continuous maps by pulling opens back along the map); broken
variants exist only behind explicit flags for checker self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Overflow, SchemaError
from .functors import j_object
from .fuzzy_sets import FuzzySet, PointMap, Universe, preimage
from .grades import ONE, ZERO
from .logic.semantics import Interpretation
from .logic.syntax import (
    And,
    BOTTOM,
    Const,
    Equality,
    Exists,
    Formula,
    Func,
    Or,
    Predicate,
    TOP,
    Term,
    Var,
)
from .ranks import GradeSet, cuts_of
from .spaces import GradedSpace, close_cuts, close_generators, generate_topology, space_from_cuts
from .systems import GradedSystem


def _default_pool() -> GradeSet:
    return GradeSet((ZERO, Fraction(1, 2), ONE))


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    max_points: int = 4
    max_generators: int = 3
    grade_pool: GradeSet = field(default_factory=_default_pool)
    max_carrier: int = 5

    def __post_init__(self) -> None:
        if self.max_points < 1 or self.max_generators < 0 or self.max_carrier < 1:
            raise SchemaError("config", "bounds must be positive")


def derived_rng(cfg: GeneratorConfig, *salts: int) -> random.Random:
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF
    for salt in salts:
        seed = (seed * 6364136223846793005 + salt * 1442695040888963407 + 1) & 0xFFFFFFFFFFFFFFFF
    return random.Random(seed)


def _random_universe(rng: random.Random, max_points: int, prefix: str = "x") -> Universe:
    size = rng.randint(1, max_points)
    return Universe(tuple(f"{prefix}{i + 1}" for i in range(size)))


def _random_map(rng: random.Random, max_points: int, target: Universe, prefix: str = "x") -> PointMap:
    """A map from a fresh random universe onto random points of `target`."""
    source = _random_universe(rng, max_points, prefix)
    return PointMap(source, target, tuple(rng.choice(target.elements) for _ in source.elements))


def generate_random_space(cfg: GeneratorConfig, index: int = 0, max_opens: int = 16,
                          min_opens: int = 2) -> GradedSpace:
    """Random topology: close a few random generators, drawn as grade-pool
    positions, retrying with fewer until the closure fits under max_opens
    (the indiscrete space always does); only the closure returned is decoded.
    A closure stops, and its attempt is rejected, as soon as it passes
    max_opens, so no attempt raises Overflow."""
    rng = derived_rng(cfg, 1, index)
    universe = _random_universe(rng, cfg.max_points)
    positions = range(len(cfg.grade_pool))
    for attempt in range(24):
        # start from the richest closure and shrink only on overflow
        lo = 0 if attempt >= 12 else min(1, cfg.max_generators)
        count = rng.randint(lo, max(lo, cfg.max_generators - attempt // 4))
        drawn = [[rng.choice(positions) for _ in universe.elements] for _ in range(count)]
        # the pool is sorted and holds 0 and 1: the positions used, in order, rank the grades used
        used = sorted({0, positions[-1]}.union(*drawn))
        rank, top = {p: r for r, p in enumerate(used)}, len(used) - 1
        try:
            opens = close_cuts({cuts_of([rank[p] for p in v], top) for v in drawn}, len(universe) * top, max_opens)
        except Overflow:
            continue
        if min_opens <= len(opens):
            return space_from_cuts(universe, GradeSet.of(map(cfg.grade_pool.grades.__getitem__, used)), opens)
    return generate_topology(universe, [])


def generate_random_continuous_map(
    cfg: GeneratorConfig,
    index: int = 0,
    max_opens: int = 16,
) -> tuple[PointMap, GradedSpace, GradedSpace]:
    """A continuous map built backwards: the source topology is the closure
    of the preimages of the target opens (plus sometimes an extra open), so
    continuity holds by construction. Each attempt is closed as level cuts,
    and stopped and rejected as soon as it passes max_opens; only the
    closure returned is decoded."""
    rng = derived_rng(cfg, 3, index)
    target = generate_random_space(cfg, index * 2 + 1, max_opens=max_opens // 2 or 2)
    f = _random_map(rng, cfg.max_points, target.universe)
    generators = [preimage(f, t) for t in target.opens]
    for attempt in range(8):
        extra = ([FuzzySet(f.source, tuple(rng.choice(cfg.grade_pool.grades) for _ in f.source.elements))]
                 if rng.random() < 0.5 else [])
        try:
            ranks, opens = close_generators(f.source, generators + extra, max_opens)
        except Overflow:
            continue
        return f, space_from_cuts(f.source, ranks, opens), target
    return f, generate_topology(f.source, generators), target


def generate_continuous_chain(
    cfg: GeneratorConfig,
    index: int = 0,
    max_opens: int = 12,
) -> tuple[PointMap, PointMap, GradedSpace, GradedSpace, GradedSpace]:
    """Two composable continuous maps, each built by pulling back the next
    topology."""
    rng = derived_rng(cfg, 4, index)
    last = generate_random_space(cfg, index * 3 + 2, max_opens=max_opens // 2 or 2)
    g = _random_map(rng, cfg.max_points, last.universe, prefix="y")
    middle = generate_topology(g.source, [preimage(g, t) for t in last.opens])
    f = _random_map(rng, cfg.max_points, g.source, prefix="z")
    first = generate_topology(f.source, [preimage(f, t) for t in middle.opens])
    return f, g, first, middle, last


def generate_random_system(cfg: GeneratorConfig, index: int = 0, invalid: bool = False,
                           max_opens: int = 12) -> GradedSystem:
    """A valid system carried by a random space; with invalid=True one
    satisfaction entry at the top is broken (clause 2 must then fail)."""
    space = generate_random_space(cfg, index, max_opens=max_opens)
    system = j_object(space)
    if not invalid:
        return system
    rng = derived_rng(cfg, 5, index)
    rows = [list(row) for row in system.rows]
    x = space.universe.index(rng.choice(space.universe.elements))
    rows[x][system.frame.view.top] = Fraction(1, 2)
    return GradedSystem(system.points, system.frame, tuple(map(tuple, rows)))


def generate_nonspatial_system(cfg: GeneratorConfig, index: int = 0) -> GradedSystem:
    """A valid but non-spatial system: a membership system restricted to a
    single point at which two opens agree (restriction keeps every clause,
    all of which are per-point)."""
    for attempt in range(16):
        space = generate_random_space(cfg, index * 16 + attempt, max_opens=12, min_opens=3)
        system = j_object(space)
        for x, row in zip(space.universe.elements, system.rows):
            if len(set(row)) < len(row):
                return GradedSystem(Universe((x,)), system.frame, (row,))
    # two opens agreeing at x1 by construction
    u = Universe(("x1", "x2"))
    half = Fraction(1, 2)
    space = generate_topology(u, [FuzzySet(u, (half, ZERO)), FuzzySet(u, (half, ONE))])
    system = j_object(space)
    return GradedSystem(Universe(("x1",)), system.frame, system.rows[:1])


def generate_random_interpretation(cfg: GeneratorConfig, index: int = 0) -> Interpretation:
    """Small interpretation: |D| <= 3, one or two predicates of arity <= 2,
    at most one unary function, one constant."""
    rng = derived_rng(cfg, 6, index)
    size = rng.randint(1, min(3, cfg.max_points))
    domain = tuple(f"d{i + 1}" for i in range(size))
    constants = {1: rng.choice(domain)}
    if rng.random() < 0.5:
        constants[2] = rng.choice(domain)
    functions = {}
    if rng.random() < 0.7:
        functions["f"] = {(d,): rng.choice(domain) for d in domain}
    predicates = {}
    for name in ("p", "q")[: rng.randint(1, 2)]:
        arity = rng.randint(1, 2)
        keys = [(d,) for d in domain] if arity == 1 else [(a, b) for a in domain for b in domain]
        predicates[name] = {k: rng.choice(cfg.grade_pool.grades) for k in keys}
    return Interpretation(domain, constants, functions, predicates)


def _random_term(rng: random.Random, interp: Interpretation, variables: list[int], depth: int) -> Term:
    options = ["var", "var", "const"]
    if interp.functions and depth > 0:
        options.append("func")
    kind = rng.choice(options)
    if kind == "var":
        return Var(rng.choice(variables))
    if kind == "const":
        return Const(rng.choice(sorted(interp.constants)))
    name = rng.choice(sorted(interp.functions))
    arity = len(next(iter(interp.functions[name])))
    return Func(name, tuple(_random_term(rng, interp, variables, depth - 1) for _ in range(arity)))


def _random_formula(rng: random.Random, interp: Interpretation, variables: list[int], depth: int) -> Formula:
    if depth <= 0:
        kind = rng.choice(["pred"] * 3 + ["eq", "top", "bottom"])
    else:
        kind = rng.choice(["pred", "pred", "eq", "and", "or", "exists", "top", "bottom"])
    if kind == "top":
        return TOP
    if kind == "bottom":
        return BOTTOM
    if kind == "eq":
        return Equality(_random_term(rng, interp, variables, 1),
                        _random_term(rng, interp, variables, 1))
    if kind == "pred":
        name = rng.choice(sorted(interp.predicates))
        arity = len(next(iter(interp.predicates[name])))
        return Predicate(name, tuple(_random_term(rng, interp, variables, 1)
                                     for _ in range(arity)))
    if kind == "and":
        return And(_random_formula(rng, interp, variables, depth - 1),
                   _random_formula(rng, interp, variables, depth - 1))
    if kind == "or":
        return Or(tuple(_random_formula(rng, interp, variables, depth - 1)
                        for _ in range(rng.randint(2, 3))))
    return Exists(rng.choice(variables),
                  _random_formula(rng, interp, variables, depth - 1))


def generate_formula_pool(
    cfg: GeneratorConfig,
    index: int,
    interp: Interpretation,
    size: int = 4,
    depth: int = 3,
) -> list[Formula]:
    rng = derived_rng(cfg, 7, index)
    variables = [1, 2]
    return [_random_formula(rng, interp, variables, rng.randint(1, depth)) for _ in range(size)]
