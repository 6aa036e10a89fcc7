"""Shared strategies and independent brute-force oracles.

The oracles re-state the definitions as literally as possible (full subset
enumerations, direct recursion) so the optimized library paths are checked
against something that cannot share their shortcuts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from graded_topos.checks import mask_elements
from graded_topos.errors import MixedUniverse, Overflow, SchemaError, UndeclaredSymbol
from graded_topos.frames import GradedFrame
from graded_topos.functors import PointHom
from graded_topos.fuzzy_sets import (
    FuzzySet,
    Universe,
    empty_set,
    full_set,
    graded_inclusion,
    intersection,
    union,
)
from graded_topos.grades import Grade, ONE, ZERO, godel_arrow, sup
from graded_topos.logic.semantics import Assignment, Interpretation
from graded_topos.logic.syntax import (
    And,
    Bottom,
    Const,
    Equality,
    Exists,
    Formula,
    Func,
    Or,
    Predicate,
    Term,
    Top,
    Var,
    free_variables,
)
from graded_topos.spaces import GradedSpace, canonical_opens


def small_grades(max_denominator: int = 4):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)


def universes(max_points: int = 4, prefix: str = "x"):
    return st.integers(min_value=1, max_value=max_points).map(
        lambda n: Universe(tuple(f"{prefix}{i + 1}" for i in range(n))))


@st.composite
def fuzzy_sets_over(draw, universe: Universe, max_denominator: int = 4):
    return FuzzySet(universe, tuple(
        draw(small_grades(max_denominator)) for _ in universe.elements))


@st.composite
def fuzzy_set_families(draw, count: int, max_points: int = 4):
    universe = draw(universes(max_points))
    return [draw(fuzzy_sets_over(universe)) for _ in range(count)]


# --- oracles -----------------------------------------------------------------

def brute_inclusion(a: FuzzySet, b: FuzzySet) -> Fraction:
    return min((godel_arrow(a(x), b(x)) for x in a.universe.elements), default=ONE)


def brute_space_closed(space) -> bool:
    """Clauses 1-3 by literal enumeration of every sublist union."""
    opens = set(space.opens)
    if not any(all(g == ZERO for g in t.grades) for t in opens):
        return False
    if not any(all(g == ONE for g in t.grades) for t in opens):
        return False
    items = list(space.opens)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            if union(list(combo), space.universe) not in opens:
                return False
    for a in items:
        for b in items:
            if intersection(a, b) not in opens:
                return False
    return True


def brute_generate_topology(universe: Universe, generators, max_opens: int = 4096) -> GradedSpace:
    """The closure saturated on the fuzzy sets themselves, on `Fraction`
    grades, with the library's rounds and overflow points."""
    for t in generators:
        if t.universe != universe:
            raise MixedUniverse("generator over a different universe")
    opens = {empty_set(universe), full_set(universe)}
    opens.update(generators)
    frontier = list(opens)
    while frontier:
        if len(opens) > max_opens:
            raise Overflow(f"topology closure exceeded {max_opens} opens")
        fresh = []
        current = list(opens)
        for a in frontier:
            for b in current:
                for c in (union([a, b]), intersection(a, b)):
                    if c not in opens:
                        opens.add(c)
                        fresh.append(c)
        frontier = fresh
    if len(opens) > max_opens:
        raise Overflow(f"topology closure exceeded {max_opens} opens")
    return GradedSpace(universe, canonical_opens(opens))


def brute_frame_from_space(space: GradedSpace) -> GradedFrame:
    """The frame of opens from `Fraction` intersection, union and graded
    inclusion of every pair; its view is built by `GradedFrame.view` from
    these tables."""
    opens = space.opens
    meet_table = {}
    relation = {}
    for a in opens:
        for b in opens:
            meet_table[(a, b)] = intersection(a, b)
            relation[(a, b)] = graded_inclusion(a, b)
    cache: dict[frozenset, FuzzySet] = {}

    def join_fn(subset: frozenset) -> FuzzySet:
        if subset not in cache:
            cache[subset] = union(sorted(subset, key=lambda t: t.grades), space.universe)
        return cache[subset]

    return GradedFrame(opens, full_set(space.universe), meet_table, relation, join_fn)


def brute_frame_violation(frame) -> str | None:
    """The nine axioms, restated directly over every subset (small frames only)."""
    items = list(frame.carrier)
    rel = frame.relation
    meet = frame.meet_table
    for a in items:
        if rel[(a, a)] != ONE:
            return "axiom 1"
        if rel[(a, frame.top)] != ONE:
            return "axiom 5"
    for a in items:
        for b in items:
            if a != b and rel[(a, b)] == ONE and rel[(b, a)] == ONE:
                return "axiom 2"
            if rel[(meet[(a, b)], a)] != ONE or rel[(meet[(a, b)], b)] != ONE:
                return "axiom 4"
            for c in items:
                if min(rel[(a, b)], rel[(b, c)]) > rel[(a, c)]:
                    return "axiom 3"
                if min(rel[(a, b)], rel[(a, c)]) != rel[(a, meet[(b, c)])]:
                    return "axiom 6"
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            joined = frame.join_fn(frozenset(combo))
            for a in combo:
                if rel[(a, joined)] != ONE:
                    return "axiom 7"
            for b in items:
                lower = min((rel[(a, b)] for a in combo), default=ONE)
                if lower != rel[(joined, b)]:
                    return "axiom 8"
            for a in items:
                distributed = frame.join_fn(frozenset(meet[(a, b)] for b in combo))
                if rel[(meet[(a, joined)], distributed)] != ONE:
                    return "axiom 9"
    return None


def brute_system_violation(system) -> str | None:
    """The three system clauses over every finite/arbitrary subset."""
    frame = system.frame
    items = list(frame.carrier)
    for x in system.points.elements:
        for a in items:
            for b in items:
                if min(system.sat[(x, a)], frame.relation[(a, b)]) > system.sat[(x, b)]:
                    return "clause 1"
                if system.sat[(x, frame.meet_table[(a, b)])] != min(system.sat[(x, a)], system.sat[(x, b)]):
                    return "clause 2"
        for k in range(len(items) + 1):
            for combo in itertools.combinations(items, k):
                folded = frame.top
                for a in combo:
                    folded = frame.meet_table[(folded, a)]
                expected = min((system.sat[(x, a)] for a in combo), default=ONE)
                if system.sat[(x, folded)] != expected:
                    return "clause 2"
                joined = frame.join_fn(frozenset(combo))
                expected = max((system.sat[(x, a)] for a in combo), default=ZERO)
                if system.sat[(x, joined)] != expected:
                    return "clause 3"
    return None


def brute_frame_hom_ok(hom) -> bool:
    """Homomorphism clauses with full subset enumeration plus top preservation."""
    src, tgt, f = hom.source, hom.target, hom.map
    if f[src.top] != tgt.top:
        return False
    for a in src.carrier:
        for b in src.carrier:
            if f[src.meet_table[(a, b)]] != tgt.meet_table[(f[a], f[b])]:
                return False
            if src.relation[(a, b)] > tgt.relation[(f[a], f[b])]:
                return False
    for k in range(len(src.carrier) + 1):
        for combo in itertools.combinations(src.carrier, k):
            if f[src.join_fn(frozenset(combo))] != tgt.join_fn(frozenset(f[a] for a in combo)):
                return False
    return True


def brute_point_homs(frame, values) -> list[PointHom]:
    """Every map carrier -> values, tested one by one against the hom axioms
    (the product over the free coordinates), in canonical order."""
    items = frame.carrier
    n = len(items)
    idx = {a: i for i, a in enumerate(items)}
    meet_idx = [[idx[frame.meet_table[(a, b)]] for b in items] for a in items]
    rel = [[frame.relation[(a, b)] for b in items] for a in items]
    joins = {mask: idx[frame.join_fn(frozenset(mask_elements(mask, items)))]
             for mask in range(1 << n)}
    top, bottom = idx[frame.top], idx[frame.bottom]
    if top == bottom:  # the top would need value 1 and the empty join value 0
        return []
    free = [i for i in range(n) if i != top and i != bottom]
    found = []
    for combo in itertools.product(values.grades, repeat=len(free)):
        v: list[Grade] = [ZERO] * n
        v[top], v[bottom] = ONE, ZERO
        for i, g in zip(free, combo):
            v[i] = g
        ok = True
        for i in range(n):
            vi = v[i]
            for j in range(n):
                vj = v[j]
                if v[meet_idx[i][j]] != (vi if vi <= vj else vj):
                    ok = False
                    break
                if vi > vj and rel[i][j] > vj:  # arrow(vi, vj) = vj here
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for mask, jm in joins.items():
                best = ZERO
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    g = v[low.bit_length() - 1]
                    if g > best:
                        best = g
                if v[jm] != best:
                    ok = False
                    break
        if ok:
            found.append(PointHom(items, tuple(v)))
    found.sort(key=lambda p: p.values)
    return found


def brute_eval_term(interp: Interpretation, assignment: Assignment, t: Term) -> str:
    if isinstance(t, Const):
        try:
            return interp.constants[t.index]
        except KeyError:
            raise UndeclaredSymbol(f"c{t.index}") from None
    if isinstance(t, Var):
        return assignment.get(t.index)
    if isinstance(t, Func):
        try:
            table = interp.functions[t.symbol]
        except KeyError:
            raise UndeclaredSymbol(t.symbol) from None
        return table[tuple(brute_eval_term(interp, assignment, a) for a in t.args)]
    raise TypeError(f"not a term: {t!r}")


def brute_sat_grade(interp: Interpretation, assignment: Assignment, phi: Formula) -> Grade:
    """The satisfaction grade by direct recursion over the formula at one
    assignment; stack exhaustion is a SchemaError, as in the library."""
    try:
        return _brute_sat(interp, assignment, phi)
    except RecursionError:
        raise SchemaError("formula", "the formula is nested too deeply") from None


def _brute_sat(interp: Interpretation, assignment: Assignment, phi: Formula) -> Grade:
    if isinstance(phi, Top):
        return ONE
    if isinstance(phi, Bottom):
        return ZERO
    if isinstance(phi, Predicate):
        try:
            table = interp.predicates[phi.symbol]
        except KeyError:
            raise UndeclaredSymbol(phi.symbol) from None
        return table[tuple(brute_eval_term(interp, assignment, t) for t in phi.args)]
    if isinstance(phi, Equality):
        lhs = brute_eval_term(interp, assignment, phi.lhs)
        rhs = brute_eval_term(interp, assignment, phi.rhs)
        return ONE if lhs == rhs else ZERO
    if isinstance(phi, And):
        a = _brute_sat(interp, assignment, phi.lhs)
        b = _brute_sat(interp, assignment, phi.rhs)
        return a if a <= b else b
    if isinstance(phi, Or):
        return sup(_brute_sat(interp, assignment, f) for f in phi.items)
    if isinstance(phi, Exists):
        return sup(_brute_sat(interp, assignment.updated(phi.variable, d), phi.body)
                   for d in interp.domain)
    raise TypeError(f"not a formula: {phi!r}")


def brute_assignments(interp: Interpretation, variables) -> list[Assignment]:
    """All assignments to the given variables (a single empty one if none)."""
    variables = sorted(variables)
    return [Assignment(dict(zip(variables, combo)))
            for combo in itertools.product(interp.domain, repeat=len(variables))]


def brute_sequent_grade(interp: Interpretation, lhs: Formula, rhs: Formula) -> Grade:
    """The inf over every assignment to both sides' free variables of the
    arrow between their satisfaction grades, each by direct recursion."""
    try:
        relevant = free_variables(lhs) | free_variables(rhs)
        result = ONE
        for s in brute_assignments(interp, relevant):
            a = _brute_sat(interp, s, lhs)
            b = _brute_sat(interp, s, rhs)
            if a > b and b < result:
                result = b
                if result == ZERO:
                    break
        return result
    except RecursionError:
        raise SchemaError("formula", "the formula is nested too deeply") from None
