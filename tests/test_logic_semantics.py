"""Evaluator semantics, sequent grades, and the nine sequent laws.

The library evaluates every formula through its compiled rank vectors; the
recursive evaluator in conftest (`brute_sat_grade`, `brute_sequent_grade`)
is the oracle it is checked against. `brute_sequent` re-derives grades by
enumerating assignments over a strictly larger variable set than the free
variables, which must not change anything.
"""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_assignments, brute_sat_grade, brute_sequent_grade, brute_steps, level_cuts,
                      loop_theorem2_suite)
from graded_topos import ranks
from graded_topos.errors import (
    CaptureViolation,
    FormulaSyntaxError,
    GradedToposError,
    SchemaError,
    UnboundVariable,
    UndeclaredSymbol,
)
from graded_topos.generators import (
    GeneratorConfig,
    generate_formula_pool,
    generate_random_interpretation,
)
from graded_topos.grades import ONE, ZERO, godel_arrow
from graded_topos.logic import semantics
from graded_topos.logic.parser import parse_formula
from graded_topos.logic.semantics import (
    Assignment,
    EMPTY_ASSIGNMENT,
    Interpretation,
    MAX_STEPS,
    sat_grade,
    _Vectors,
    sequent_grade,
    theorem2_suite,
    _transitive,
)
from graded_topos.logic.syntax import (
    And,
    Const,
    Equality,
    Exists,
    Func,
    Or,
    Predicate,
    TOP,
    Var,
    format_formula,
    free_variables,
    substitute,
)
from graded_topos.serialization import load_formulas, load_interpretation

FIXTURES = Path(__file__).parent / "fixtures"

INTERP = Interpretation(
    ("d1", "d2"),
    {1: "d1", 2: "d2"},
    {"f": {("d1",): "d2", ("d2",): "d2"}},
    {"p": {("d1",): F(3, 10), ("d2",): F(1, 2)},
     "q": {("d1",): F(0), ("d2",): F(1)}},
)
SIG = INTERP.signature()
S = Assignment({1: "d1", 2: "d2"})


def phi(text):
    return parse_formula(text, SIG)


def brute_sequent(interp, lhs, rhs, extra=(9, 8)):
    relevant = sorted(free_variables(lhs) | free_variables(rhs) | set(extra))
    return min(
        (godel_arrow(brute_sat_grade(interp, s, lhs), brute_sat_grade(interp, s, rhs))
         for s in brute_assignments(interp, relevant)),
        default=ONE)


def test_eval_term_cases():
    # terms are read through crisp equality and predicate arguments
    assert sat_grade(INTERP, S, phi("p(c1)")) == F(3, 10)
    assert sat_grade(INTERP, S, phi("(x2 = c2)")) == ONE
    # nested application: f(f(d1)) = f(d2) = d2
    assert sat_grade(INTERP, S, phi("(f(f(x1)) = c2)")) == ONE
    assert sat_grade(INTERP, S, phi("(f(f(x1)) = c1)")) == ZERO


def test_eval_term_errors():
    with pytest.raises(UnboundVariable):
        sat_grade(INTERP, EMPTY_ASSIGNMENT, phi("(x7 = x7)"))
    with pytest.raises(UndeclaredSymbol):
        sat_grade(INTERP, S, parse_formula("(g(x1) = x1)"))
    with pytest.raises(UndeclaredSymbol):
        sat_grade(INTERP, S, Predicate("z", (Var(1),)))


@pytest.mark.parametrize("text", ["p(x1)", "(x1 = x1)", "T"])
def test_assignments_outside_the_domain_are_schema_errors(text):
    interp = load_interpretation(FIXTURES / "interp_basic.json")
    formula = parse_formula(text, interp.signature())
    with pytest.raises(SchemaError, match="not a domain element"):
        sat_grade(interp, Assignment({1: "zz"}), formula)


def test_sat_grade_spot_values():
    assert sat_grade(INTERP, S, TOP) == ONE
    assert sat_grade(INTERP, S, phi("F")) == ZERO
    assert sat_grade(INTERP, S, phi("(x1 = x1)")) == ONE
    assert sat_grade(INTERP, S, phi("(x1 = x2)")) == ZERO
    assert sat_grade(INTERP, S, phi("p(x1)")) == F(3, 10)
    assert sat_grade(INTERP, S, phi("(p(x1) & p(x2))")) == F(3, 10)
    assert sat_grade(INTERP, S, phi("(p(x1) | p(x2))")) == F(1, 2)
    assert sat_grade(INTERP, S, phi("V[q(x1), p(x1)]")) == F(3, 10)
    assert sat_grade(INTERP, S, phi("E x1. q(x1)")) == ONE


def test_equality_is_always_crisp():
    for left in ("x1", "x2", "c1", "c2", "f(x1)"):
        for right in ("x1", "x2", "c1", "c2", "f(x2)"):
            value = sat_grade(INTERP, S, phi(f"({left} = {right})"))
            assert value in (ZERO, ONE)


def test_disjunction_is_permutation_invariant():
    items = ["p(x1)", "q(x1)", "(x1 = c1)", "T"]
    grades = set()
    for ordering in itertools.permutations(items):
        grades.add(sat_grade(INTERP, S, phi("V[" + ", ".join(ordering) + "]")))
    assert len(grades) == 1


def test_sat_ignores_irrelevant_coordinates():
    formula = phi("(p(x1) & E x2. q(x2))")
    for d in INTERP.domain:
        assert (sat_grade(INTERP, Assignment({1: "d1", 2: d, 5: d}), formula)
                == sat_grade(INTERP, Assignment({1: "d1"}), formula))


def test_sequent_spot_values():
    assert sequent_grade(INTERP, phi("p(x1)"), phi("p(x1)")) == ONE
    assert sequent_grade(INTERP, phi("p(x1)"), TOP) == ONE
    assert sequent_grade(INTERP, phi("(p(x1) & q(x1))"), phi("p(x1)")) == ONE
    # inf{3/10 -> 0, 1/2 -> 1} = inf{0, 1}
    assert sequent_grade(INTERP, phi("p(x1)"), phi("q(x1)")) == ZERO
    # inf{0 -> 3/10, 1 -> 1/2} = inf{1, 1/2}
    assert sequent_grade(INTERP, phi("q(x1)"), phi("p(x1)")) == F(1, 2)


def test_sequent_with_no_free_variables_uses_one_assignment():
    assert sequent_grade(INTERP, TOP, phi("(c1 = c1)")) == ONE
    assert sequent_grade(INTERP, TOP, phi("(c1 = c2)")) == ZERO
    assert sequent_grade(INTERP, TOP, phi("E x1. q(x1)")) == ONE


@pytest.mark.parametrize("seed", range(8))
def test_sequent_matches_brute_enumeration(seed):
    cfg = GeneratorConfig(seed=seed)
    interp = generate_random_interpretation(cfg, 0)
    pool = generate_formula_pool(cfg, 0, interp, size=3, depth=2)
    for lhs, rhs in itertools.product(pool, repeat=2):
        assert sequent_grade(interp, lhs, rhs) == brute_sequent(interp, lhs, rhs)


@pytest.mark.parametrize("seed", range(8))
def test_residuation_characterizes_full_sequents(seed):
    cfg = GeneratorConfig(seed=seed)
    interp = generate_random_interpretation(cfg, 1)
    pool = generate_formula_pool(cfg, 1, interp, size=3, depth=2)
    for lhs, rhs in itertools.product(pool, repeat=2):
        relevant = sorted(free_variables(lhs) | free_variables(rhs))
        pointwise = all(
            brute_sat_grade(interp, s, lhs) <= brute_sat_grade(interp, s, rhs)
            for s in brute_assignments(interp, relevant))
        assert (sequent_grade(interp, lhs, rhs) == ONE) == pointwise


def test_substitution_lemma():
    formula = phi("(p(x1) & q(x2))")
    replaced = substitute(formula, [(1, Var(2))])
    for s in brute_assignments(INTERP, [1, 2]):
        shifted = s.updated(1, s.get(2))
        assert sat_grade(INTERP, s, replaced) == sat_grade(INTERP, shifted, formula)


def test_quantifier_distribution_needs_the_side_condition():
    """With y free on the left the distributivity sequent genuinely fails."""
    left = And(phi("p(x1)"), Exists(1, phi("q(x1)")))
    right = Exists(1, And(phi("p(x1)"), phi("q(x1)")))
    # I(p) = (3/10, 1/2), I(q) = (0, 1):
    # at s(x1)=d1: lhs = min(3/10, 1) = 3/10; rhs = sup{min(3/10,0), min(1/2,1)} = 1/2, fine;
    # crisp variant shows failure:
    crisp = Interpretation(("d1", "d2"), {}, {}, {
        "p": {("d1",): ONE, ("d2",): ZERO},
        "q": {("d1",): ZERO, ("d2",): ONE},
    })
    sig = crisp.signature()
    left = And(parse_formula("p(x1)", sig), Exists(1, parse_formula("q(x1)", sig)))
    right = Exists(1, And(parse_formula("p(x1)", sig), parse_formula("q(x1)", sig)))
    assert sequent_grade(crisp, left, right) == ZERO
    # with a fresh bound variable the law is restored
    fresh = Exists(2, parse_formula("q(x2)", sig))
    lhs = And(parse_formula("p(x1)", sig), fresh)
    rhs = Exists(2, And(parse_formula("p(x1)", sig), parse_formula("q(x2)", sig)))
    assert sequent_grade(crisp, lhs, rhs) == ONE


@pytest.mark.parametrize("seed", range(10))
def test_the_nine_sequent_laws_hold(seed):
    cfg = GeneratorConfig(seed=seed)
    interp = generate_random_interpretation(cfg, 2)
    pool = generate_formula_pool(cfg, 2, interp, size=4, depth=3)
    reports = theorem2_suite(interp, pool)
    assert len(reports) == 9
    for report in reports:
        assert report.ok, f"{report.name}: {report.detail}"


def test_suite_agrees_with_direct_evaluation():
    """Clauses 1-3 recomputed with the recursive oracle on a fixed pool."""
    pool = [phi("p(x1)"), phi("q(x1)"), phi("(p(x1) & q(x2))"), phi("E x2. q(x2)")]
    reports = {r.name: r.ok for r in theorem2_suite(INTERP, pool)}
    grade = functools.partial(brute_sequent_grade, INTERP)
    for f in pool:
        assert grade(f, f) == ONE
    for a, b, c in itertools.product(pool, repeat=3):
        assert min(grade(a, b), grade(b, c)) <= grade(a, c)
        assert min(grade(a, b), grade(a, c)) == grade(a, And(b, c))
    assert all(reports.values())


def test_clause_8_reads_each_compiled_substitution_instance(monkeypatch):
    """With every substitution made T, p(x1) |- (q(x2) & (x2 = c1))[x1/x2]
    has grade 1 where p(x1) |- E x2. (q(x2) & (x2 = c1)) has grade 0: the
    existential bounds fail, and only they, so the suite reads the
    instance's own vector."""
    pool = [phi("p(x1)"), phi("(q(x2) & (x2 = c1))")]
    assert all(r.ok for r in theorem2_suite(INTERP, pool))
    monkeypatch.setattr(semantics, "substitute", lambda f, pairs: TOP)
    failed = [r for r in theorem2_suite(INTERP, pool) if not r.ok]
    assert [r.name for r in failed] == ["Thm2.8 existential bounds"]
    assert "8(i) (0,1,x2:=x1)" in failed[0].detail


def test_a_broken_kernel_fails_every_clause_with_its_own_detail(monkeypatch):
    """With the graded inclusion replaced by an arbitrary function of the
    two vectors, every clause fails; each detail names its first three
    failures in the clause's own order and format."""
    pool = [phi("p(x1)"), phi("(q(x2) & (x2 = c1))"), phi("E x2. (p(x2) | q(x1))"), phi("(x1 = f(x2))")]
    monkeypatch.setattr(semantics, "inclusion", lambda u, v, size, top: (u + v) % 7 % (top + 1))
    assert [(r.name, r.ok, r.detail) for r in theorem2_suite(INTERP, pool)] == [
        ("Thm2.1 identity", False, "p(x1); (q(x2) & (x2 = c1)); (x1 = f(x2))"),
        ("Thm2.2 transitivity", False, "(0,2,0); (0,2,1); (0,2,3)"),
        ("Thm2.3 conjunction", False,
         "3(i) p(x1); 3(i) (q(x2) & (x2 = c1)); 3(i) E x2. (p(x2) | q(x1))"),
        ("Thm2.4 disjunction", False, "4(i) (0,) member 0; 4(i) (1,) member 1; 4(i) (3,) member 3"),
        ("Thm2.5 frame distributivity", False, "5 (0, (0,)); 5 (0, (1,)); 5 (0, (2,))"),
        ("Thm2.6 reflexivity of equality", False, "x1; x2"),
        ("Thm2.7 substitution of equals", False, "7 (0 with [3]); 7 (1 with [3]); 7 (2 with [3])"),
        ("Thm2.8 existential bounds", False,
         "8(ii) (0,0,x1:=x2); 8(i) (0,2,x1:=x1); 8(ii) (0,3,x1:=x1)"),
        ("Thm2.9 quantifier distributivity", False, "9 (0,0,x3); 9 (0,1,x2); 9 (0,1,x3)"),
    ]


def test_pool_must_be_nonempty():
    with pytest.raises(SchemaError):
        theorem2_suite(INTERP, [])


def test_interpretation_validation():
    with pytest.raises(SchemaError):
        Interpretation((), {}, {}, {})
    with pytest.raises(SchemaError):
        Interpretation(("d1",), {1: "nope"}, {}, {})
    with pytest.raises(SchemaError):
        Interpretation(("d1", "d2"), {}, {}, {"p": {("d1",): F(1, 2)}})
    with pytest.raises(SchemaError):
        Interpretation(("d1",), {}, {"x1": {("d1",): "d1"}}, {})


def test_interpretation_tables_are_read_only_copies():
    tables = {"p": {("d1",): F(1, 2), ("d2",): ONE}}
    interp = Interpretation(("d1", "d2"), {1: "d1"}, {}, tables)
    phi = parse_formula("p(x1)", interp.signature())
    assert sequent_grade(interp, TOP, phi) == F(1, 2)
    # an edit of the caller's tables after the first evaluation is not seen
    tables["p"][("d1",)] = ZERO
    assert sequent_grade(interp, TOP, phi) == F(1, 2)
    assert interp.predicates == {"p": {("d1",): F(1, 2), ("d2",): ONE}}
    with pytest.raises(TypeError):
        interp.predicates["p"][("d1",)] = ZERO
    with pytest.raises(TypeError):
        interp.constants[2] = "d2"


def test_equal_grades_held_in_distinct_objects_rank_as_one():
    half, again, quarters, zero, one = F(1, 2), F(1, 2), F(2, 4), F(0), F(1)
    assert len({id(half), id(again), id(quarters), id(zero), id(ZERO), id(one), id(ONE)}) == 7
    domain = ("d1", "d2", "d3", "d4", "d5")
    interp = Interpretation(domain, {}, {}, {
        "p": dict(zip([(d,) for d in domain], (half, zero, again, one, quarters))),
        "q": dict(zip([(d,) for d in domain], (quarters, ONE, F(1, 3), ZERO, half)))})
    table, coded, _ = interp.ranked
    assert table.grades == (0, F(1, 3), F(1, 2), 1)
    assert coded == {"p": (1, {(0,): 2, (1,): 0, (2,): 2, (3,): 3, (4,): 2}),
                     "q": (1, {(0,): 2, (1,): 3, (2,): 1, (3,): 0, (4,): 2})}
    sig = interp.signature()
    both = And(parse_formula("p(x1)", sig), parse_formula("q(x1)", sig))
    for phi, expected in ((both, ZERO), (Exists(1, both), F(1, 2))):
        assert sequent_grade(interp, TOP, phi) == brute_sequent_grade(interp, TOP, phi) == expected


def traced_peak(evaluate):
    """The value of evaluate() and the peak of traced memory it took."""
    tracemalloc.start()
    try:
        value = evaluate()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_large_domain_is_answered_in_little_memory():
    # one variable over 10^5 elements: each column and each level of a
    # vector takes O(10^5) words or bits, not that much per element
    size = 10 ** 5
    domain = tuple(f"d{i}" for i in range(size))
    grades = (ZERO, F(1, 2), ONE)
    interp = Interpretation(
        domain, {1: "d7"},
        {"f": {(d,): domain[(i + 1) % size] for i, d in enumerate(domain)}},
        {"p": {(d,): grades[i % 3] for i, d in enumerate(domain)}})
    interp.ranked  # the coded tables, built once per interpretation
    sig = interp.signature()
    for evaluate, expected in [
        (lambda: sat_grade(interp, Assignment({1: "d4"}), parse_formula("p(x1)", sig)), F(1, 2)),
        (lambda: sat_grade(interp, EMPTY_ASSIGNMENT,
                           parse_formula("E x1. (p(x1) & (x1 = c1))", sig)), F(1, 2)),
        (lambda: sequent_grade(interp, parse_formula("(x1 = c1)", sig),
                               parse_formula("p(f(x1))", sig)), ONE),
        (lambda: sequent_grade(interp, parse_formula("p(f(x1))", sig),
                               parse_formula("p(x1)", sig)), ZERO),
    ]:
        value, peak = traced_peak(evaluate)
        assert value == expected
        assert peak < 16 * 2 ** 20


def test_many_grades_raise_the_cost_of_a_vector_entry():
    # 64 levels of a vector fill a word: with 10^4 ranks an entry costs 157
    # steps, so p(x1) over 10^4 elements needs more than MAX_STEPS
    def interp(size, grade):
        domain = tuple(f"d{i}" for i in range(size))
        return Interpretation(domain, {}, {}, {"p": {(d,): grade(i, size)
                                                     for i, d in enumerate(domain)}})

    phi = parse_formula("p(x1)")
    few, many = interp(10 ** 4, lambda i, n: F(i % 2, 2)), interp(10 ** 4, F)
    assert sat_grade(few, Assignment({1: "d1"}), phi) == F(1, 2)
    with pytest.raises(SchemaError, match=f"more than {MAX_STEPS} steps"):
        sat_grade(many, Assignment({1: "d1"}), phi)
    # 2000 ranks: 32 steps an entry, within the budget
    some = interp(2000, F)
    assert sat_grade(some, Assignment({1: "d3"}), phi) == F(3, 2000)
    assert sat_grade(some, EMPTY_ASSIGNMENT, parse_formula("E x1. p(x1)")) == F(1999, 2000)
    assert sequent_grade(some, parse_formula("E x1. p(x1)"), phi) == ZERO


# --- the step budget against its oracle ----------------------------------------

def counted_combines(monkeypatch) -> list:
    """The nodes `_Vectors._combine` is called on from now on."""
    combined = []
    combine = _Vectors._combine

    def counted(self, node, args):
        combined.append(node)
        return combine(self, node, args)

    monkeypatch.setattr(_Vectors, "_combine", counted)
    return combined


def check_budget(monkeypatch, combined, vs, phi):
    """`of(phi)` on a fresh copy of the list of `vs` is refused, before any
    node is combined, exactly when `brute_steps` exceeds the budget: the
    real one, one step fewer than the formula's, and, for a formula within
    the real one, exactly its steps. A fresh list has nothing memoised, so
    an accepted formula combines its nodes."""
    steps = brute_steps(vs, phi)
    for budget in (MAX_STEPS, steps - 1) + ((steps,) if steps <= MAX_STEPS else ()):
        monkeypatch.setattr(semantics, "MAX_STEPS", budget)
        combined.clear()
        try:
            _Vectors(vs.interp, vs.variables).of(phi)
        except SchemaError as exc:
            assert str(exc) == f"formula: evaluation needs more than {budget} steps"
            assert steps > budget and not combined
        else:
            assert steps <= budget and combined


def towers(variables, body):
    """`E x. ... body`, one binder per variable, the first outermost."""
    return functools.reduce(lambda inner, v: Exists(v, inner), reversed(variables), body)


@pytest.mark.parametrize("seed", range(6))
def test_the_budget_refuses_what_the_step_oracle_exceeds_on_generated_pools(seed, monkeypatch):
    combined = counted_combines(monkeypatch)
    cfg = GeneratorConfig(seed=seed)
    for index in range(4):
        interp = generate_random_interpretation(cfg, index)
        pool = generate_formula_pool(cfg, index, interp, size=4, depth=4)
        pool_vars = sorted(set().union(*(free_variables(f) for f in pool)))
        for variables in (pool_vars + [max(pool_vars, default=0) + 1], [7] + pool_vars):
            vs = _Vectors(interp, variables)
            for f in pool:
                check_budget(monkeypatch, combined, vs, f)


def test_the_budget_refuses_what_the_step_oracle_exceeds_on_binder_towers(monkeypatch):
    """Towers of distinct binders cross the real budget over two elements
    (2^k entries at depth k); towers of one repeated binder cost |domain|
    a level and cross only the lowered ones. The bodies apply functions."""
    combined = counted_combines(monkeypatch)
    domain = ("a", "b")
    interp = Interpretation(domain, {1: "a"},
                            {"f": {("a",): "b", ("b",): "a"},
                             "g": {(x, y): x for x in domain for y in domain}},
                            {"p": {("a",): F(1, 3), ("b",): ONE}})

    def body(v):
        return Predicate("p", (Func("g", (Func("f", (Var(v),)), Const(1))),))

    for variables in ([], [1], [2, 5]):
        vs = _Vectors(interp, variables)
        for k in (1, 2, 5, 17, 18, 19, 20, 24):
            check_budget(monkeypatch, combined, vs, towers(range(1, k + 1), body(k)))
        for k in (1, 2, 30, 450):
            check_budget(monkeypatch, combined, vs, towers([1] * k, body(1)))
        # distinct binders, each repeated below itself
        mixed = And(body(1), Equality(Var(2), Func("f", (Var(3),))))
        check_budget(monkeypatch, combined, vs, towers([1, 2, 1, 3, 2, 3] * 3, mixed))


def test_a_widened_list_at_the_budget_builds_nothing_vector_sized(monkeypatch):
    """Six distinct binders widen the empty list over ten elements to 10^6
    assignments, one step an entry: at a budget of exactly that and of one
    step less, the walk builds the list but no vector or column on it, and
    refuses the formula without combining a node."""
    combined = counted_combines(monkeypatch)
    domain = tuple(f"d{i}" for i in range(10))
    interp = Interpretation(domain, {}, {"f": {(d,): d for d in domain}},
                            {"p": {(d,): F(i % 3, 2) for i, d in enumerate(domain)}})
    phi = towers(range(1, 7), Predicate("p", (Func("f", (Var(6),)),)))
    for budget in (MAX_STEPS, MAX_STEPS - 1):
        monkeypatch.setattr(semantics, "MAX_STEPS", budget)
        vs = _Vectors(interp, [])
        with pytest.raises(SchemaError, match=f"more than {budget} steps"):
            vs.of(phi)
        widest = functools.reduce(lambda space, v: space._widened[v], range(1, 7), vs)
        assert widest.size * widest.words == MAX_STEPS
        assert not widest._columns and not widest._bases and not widest._widened
        assert not combined and brute_steps(vs, phi) > budget


def generated_lists(seeds):
    """(interp, pool, variables) for generated pools: the suite's own list,
    and one that misses the pool's bound variables."""
    for seed in seeds:
        cfg = GeneratorConfig(seed=seed)
        for index in range(4):
            interp = generate_random_interpretation(cfg, index)
            pool = generate_formula_pool(cfg, index, interp, size=4, depth=4)
            pool_vars = sorted(set().union(*(free_variables(f) for f in pool)))
            for variables in (pool_vars + [max(pool_vars, default=0) + 1], [7] + pool_vars):
                yield interp, pool, variables


def compiled(vs, phi):
    """The cuts of `phi` over the list of `vs`, or the refusal's message."""
    try:
        return vs.of(phi)
    except SchemaError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(3))
def test_a_warmed_list_refuses_exactly_where_a_fresh_list_does(seed, monkeypatch):
    """A list that has compiled every part of a formula reads them from its
    memo, counting each one's whole subtree: it refuses the formula at
    exactly the budgets where a fresh list does, with the same message,
    and combines nothing when it refuses."""
    combined = counted_combines(monkeypatch)
    for interp, pool, variables in generated_lists([seed]):
        monkeypatch.setattr(semantics, "MAX_STEPS", MAX_STEPS)
        warm = _Vectors(interp, variables)
        for f in pool:
            warm.of(f)
        fresh_variable = max(variables) + 1
        formulas = pool + [And(f, g) for f, g in itertools.product(pool, repeat=2)]
        formulas += [Or(tuple(pool)), *(Exists(fresh_variable, f) for f in pool)]
        for phi in formulas:
            steps = brute_steps(warm, phi)
            for budget in (MAX_STEPS, steps - 1, steps):
                monkeypatch.setattr(semantics, "MAX_STEPS", budget)
                expected = compiled(_Vectors(interp, variables), phi)
                combined.clear()
                assert compiled(warm, phi) == expected
                assert isinstance(expected, str) == (steps > budget)
                assert not (isinstance(expected, str) and combined)


def test_a_warmed_list_refuses_binder_towers_where_a_fresh_list_does(monkeypatch):
    """A tower of distinct binders compiled once is memoised on widened
    lists; read back inside a larger formula it still counts in full, so
    two of a tower within the budget are refused."""
    domain = ("a", "b")
    interp = Interpretation(domain, {}, {"f": {("a",): "b", ("b",): "a"}},
                            {"p": {("a",): F(1, 3), ("b",): ONE}})
    tallest = towers(range(1, 19), Predicate("p", (Var(18),)))
    for variables in ([], [1]):
        monkeypatch.setattr(semantics, "MAX_STEPS", MAX_STEPS)
        warm = _Vectors(interp, variables)
        vector = warm.of(tallest)
        for phi in (tallest, Or((tallest, tallest)), And(tallest, Exists(20, tallest))):
            steps = brute_steps(warm, phi)
            for budget in (MAX_STEPS, steps - 1, steps):
                monkeypatch.setattr(semantics, "MAX_STEPS", budget)
                assert (compiled(warm, phi) == compiled(_Vectors(interp, variables), phi)
                        == (f"formula: evaluation needs more than {budget} steps"
                            if steps > budget else vector))


def memo_words(vs) -> int:
    """The steps of the nodes held in the memos of `vs` and of every list
    widened from it, one vector or column each."""
    total, lists = 0, [vs]
    while lists:
        space = lists.pop()
        total += space.cost * len(space._memo)
        lists.extend(space._widened.values())
    return total


@pytest.mark.parametrize("budget", [40, 300, 2000])
def test_the_memo_holds_no_more_words_than_the_budget(budget, monkeypatch):
    """At a lowered budget the words a list and its widened lists hold stop
    growing at the budget, however many formulas the list compiles."""
    monkeypatch.setattr(semantics, "MAX_STEPS", budget)
    for interp, pool, variables in generated_lists(range(3)):
        vs = _Vectors(interp, variables)
        for f, g in itertools.product(pool, repeat=2):
            for phi in (f, And(f, g), Exists(max(variables) + 1, Or((f, g)))):
                compiled(vs, phi)
                assert memo_words(vs) == vs._held[0] <= budget
        assert vs._memo


# --- the rank-coded vectors against the recursive oracle ----------------------

RICH = Interpretation(
    ("d1", "d2", "d3"),
    {1: "d1", 2: "d3"},
    {"f": {("d1",): "d2", ("d2",): "d3", ("d3",): "d3"},
     "g": {(a, b): max(a, b) for a in ("d1", "d2", "d3") for b in ("d1", "d2", "d3")}},
    {"p": {("d1",): F(1, 4), ("d2",): ONE, ("d3",): F(1, 4)},
     "r": {(a, b): F(int(a[1]) * int(b[1]) % 5, 4) for a in ("d1", "d2", "d3")
           for b in ("d1", "d2", "d3")}},
)


def reference_vector(vs, phi):
    """The level cuts of rank(brute_sat_grade) at every assignment, in the
    vectors' product order."""
    rank = {g: r for r, g in enumerate(vs.ranks.grades)}
    return level_cuts([rank[brute_sat_grade(vs.interp, s, phi)]
                       for s in brute_assignments(vs.interp, vs.variables)], vs.ranks.top)


def check_vectors(interp, variables, formulas):
    vs = _Vectors(interp, variables)
    assert list(vs.ranks.grades) == sorted(set(vs.ranks.grades))
    vectors = [vs.of(f) for f in formulas]
    for f, vector in zip(formulas, vectors):
        assert vector == reference_vector(vs, f), format_formula(f)
        for y in vs.variables:
            assert vs.exists(vector, y) == reference_vector(vs, Exists(y, f))
            for x in vs.variables:
                try:
                    replaced = substitute(f, [(y, Var(x))])
                except CaptureViolation:
                    continue
                assert vs.of(replaced) == reference_vector(vs, replaced)
    for (f, u), (g, v) in itertools.product(zip(formulas, vectors), repeat=2):
        assert u & v == reference_vector(vs, And(f, g))
        assert u | v | u == reference_vector(vs, Or((f, g, f)))
        grade = vs.ranks.grades[ranks.inclusion(u, v, vs.size, vs.ranks.top)]
        assert grade == brute_sequent_grade(interp, f, g)


@pytest.mark.parametrize("variables, texts", [
    # bound variables outside the list: widened, then projected out
    ([1], ["E x5. p(x5)", "(p(x1) & E x7. E x8. r(x7, x8))",
           "E x3. (r(x1, x3) & E x3. p(x3))", "E x4. V[r(x4, x1), E x1. p(x1), F]"]),
    ([], ["E x1. p(x1)", "p(c1)", "(c1 = c2)", "E x2. (x2 = f(x2))", "T", "F"]),
    # binders inside the list; constants, nested function terms, equality
    ([1, 2], ["E x1. E x1. p(x1)", "r(c1, f(x2))", "(g(x1, c2) = f(f(x2)))",
              "(x1 = x2)", "(c1 = c1)", "F", "T", "p(g(f(x1), x2))"]),
    # nested and many-way disjunctions
    ([1, 2, 3], ["V[p(x1), r(x1, x2), F, (x1 = c2), E x9. p(x9)]",
                 "((p(x1) | F) | V[V[p(x2), T], r(x2, x3)])",
                 "V[V[V[p(x3)]], (r(x3, x1) & p(x2))]"]),
])
def test_vectors_match_the_reference_evaluator_on_hand_made_formulas(variables, texts):
    check_vectors(RICH, variables, [parse_formula(t, RICH.signature()) for t in texts])


@pytest.mark.parametrize("seed", range(12))
def test_vectors_match_the_reference_evaluator_on_generated_pools(seed):
    cfg = GeneratorConfig(seed=seed)
    for index in range(4):
        interp = generate_random_interpretation(cfg, index)
        pool = generate_formula_pool(cfg, index, interp, size=4, depth=4)
        pool_vars = sorted(set().union(*(free_variables(f) for f in pool)))
        # the suite's own list, and one that misses the pool's bound variables
        check_vectors(interp, pool_vars + [max(pool_vars, default=0) + 1], pool)
        check_vectors(interp, [7] + pool_vars, pool)


@pytest.mark.parametrize("seed", range(6))
def test_warmed_vectors_match_fresh_lists_and_the_reference_evaluator(seed):
    """A list that has compiled the pool, its conjunctions and its
    substitution instances gives every vector a fresh list gives, and the
    recursive evaluator's."""
    for interp, pool, variables in generated_lists([seed]):
        warm = _Vectors(interp, variables)
        formulas = pool + [And(f, g) for f, g in itertools.product(pool, repeat=2)]
        for f, y, x in itertools.product(pool, variables, variables):
            try:
                formulas.append(substitute(f, [(y, Var(x))]))
            except CaptureViolation:
                pass
        for phi in formulas:
            warm.of(phi)
        for phi in formulas:
            vector = warm.of(phi)
            assert vector == _Vectors(interp, variables).of(phi), format_formula(phi)
            assert vector == reference_vector(warm, phi), format_formula(phi)


def outcome(evaluate, *args):
    """The value, or the type of the package error raised."""
    try:
        return evaluate(*args)
    except GradedToposError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(12))
def test_library_evaluators_match_the_recursive_oracle(seed):
    cfg = GeneratorConfig(seed=seed)
    for index in range(4):
        interp = generate_random_interpretation(cfg, index)
        pool = generate_formula_pool(cfg, index, interp, size=4, depth=4)
        variables = sorted(set().union(*(free_variables(f) for f in pool)))
        for s in brute_assignments(interp, variables + [9]):
            for f in pool:
                assert sat_grade(interp, s, f) == brute_sat_grade(interp, s, f), format_formula(f)
        for f, g in itertools.product(pool, repeat=2):
            assert sequent_grade(interp, f, g) == brute_sequent_grade(interp, f, g)
        # parity: a free variable left unassigned, an undeclared symbol
        d = interp.domain[0]
        undeclared = [Predicate("zz", (Const(1),)), Equality(Const(10 ** 6), Const(1)),
                      Equality(Func("zz", (Const(1),)), Const(1))]
        for f in pool:
            for v in free_variables(f):
                s = Assignment({w: d for w in variables if w != v})
                assert outcome(sat_grade, interp, s, f) is UnboundVariable
                assert outcome(brute_sat_grade, interp, s, f) is UnboundVariable
            s = Assignment({w: d for w in variables})
            for bad in (And(f, u) for u in undeclared):
                assert outcome(sat_grade, interp, s, bad) is UndeclaredSymbol
                assert outcome(brute_sat_grade, interp, s, bad) is UndeclaredSymbol
                assert outcome(sequent_grade, interp, f, bad) is UndeclaredSymbol
                assert outcome(brute_sequent_grade, interp, f, bad) is UndeclaredSymbol


def test_vectors_reject_what_the_evaluator_rejects():
    for formula, error in [(parse_formula("p(x2)", RICH.signature()), UnboundVariable),
                           (Predicate("z", (Var(1),)), UndeclaredSymbol),
                           (parse_formula("(c9 = x1)"), UndeclaredSymbol),
                           (parse_formula("(z(x1) = x1)"), UndeclaredSymbol)]:
        with pytest.raises(error):
            _Vectors(RICH, [1]).of(formula)
        with pytest.raises(error):
            brute_sat_grade(RICH, Assignment({1: "d1"}), formula)


def test_vectors_compile_nesting_the_reference_evaluator_cannot_reach():
    deep = TOP
    for _ in range(5000):
        deep = Exists(2, And(deep, Predicate("p", (Var(1),))))
    for evaluate in (sat_grade, brute_sat_grade):
        with pytest.raises(SchemaError, match="nested too deeply"):
            evaluate(RICH, Assignment({1: "d1"}), deep)
    vs = _Vectors(RICH, [1])
    assert vs.of(deep) == vs.of(parse_formula("p(x1)", RICH.signature()))
    with pytest.raises(SchemaError, match="nested too deeply"):
        sequent_grade(RICH, deep, deep)
    with pytest.raises(SchemaError, match="nested too deeply"):
        theorem2_suite(RICH, [deep])


def test_a_substitution_nested_too_deeply_is_a_schema_error(monkeypatch):
    """Clauses 7 and 8 substitute into the pool with a recursive walk, guarded as the others are."""
    def too_deep(phi, pairs):
        raise RecursionError
    monkeypatch.setattr(semantics, "substitute", too_deep)
    with pytest.raises(SchemaError, match="nested too deeply"):
        theorem2_suite(RICH, [parse_formula("p(x1)", RICH.signature())])


def test_formulas_at_the_parsers_deepest_nesting_compare_without_recursion():
    """Two separately parsed copies of the deepest `E x2. (... & p(x1))` the
    parser accepts are equal and hash alike; a copy that differs only at
    its innermost leaf is not equal, even given the same cached hashes all
    the way down. The sequent between the copies, and the suite on them,
    are evaluated."""
    def text(depth, leaf="p(x1)"):
        for _ in range(depth):
            leaf = f"E x2. ({leaf} & p(x1))"
        return leaf

    def parses(depth):
        try:
            parse_formula(text(depth))
        except FormulaSyntaxError:
            return False
        return True

    low, high = 1, 4096
    assert parses(low) and not parses(high)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if parses(middle) else (low, middle)
    a, b = parse_formula(text(low)), parse_formula(text(low))
    assert a is not b and a == b and hash(a) == hash(b)
    leaf = parse_formula(text(low, "p(c1)"))
    assert a != leaf and not a == leaf
    nodes = [(a, leaf)]
    while nodes:
        node, other = nodes.pop()
        object.__setattr__(other, "_hash", hash(node))
        nodes.extend(zip(node.parts(), other.parts()))
    assert hash(leaf) == hash(a) and a != leaf and not a == leaf
    interp = Interpretation(("a", "b"), {1: "a"}, {}, {"p": {("a",): F(1, 2), ("b",): ONE}})
    assert sequent_grade(interp, a, b) == ONE
    assert all(law.ok for law in theorem2_suite(interp, [a, b]))


def test_suite_reports_match_the_recorded_pool_basic_run():
    interp = load_interpretation(FIXTURES / "interp_basic.json")
    pool = load_formulas(FIXTURES / "pool_basic.json", interp.signature())
    assert [(r.name, r.ok, r.detail) for r in theorem2_suite(interp, pool)] == [
        ("Thm2.1 identity", True, ""),
        ("Thm2.2 transitivity", True, ""),
        ("Thm2.3 conjunction", True, ""),
        ("Thm2.4 disjunction", True, ""),
        ("Thm2.5 frame distributivity", True, ""),
        ("Thm2.6 reflexivity of equality", True, ""),
        ("Thm2.7 substitution of equals", True, ""),
        ("Thm2.8 existential bounds", True, ""),
        ("Thm2.9 quantifier distributivity", True, ""),
    ]


# --- metamorphic: the suite sees only the order of grades and the domain's shape

def relabelled(interp, rng):
    """A strictly monotone relabelling of the predicate grades fixing 0 and 1."""
    inner = sorted({g for t in interp.predicates.values() for g in t.values()} - {ZERO, ONE})
    image = sorted(F(k, 1000) for k in rng.sample(range(1, 1000), len(inner)))
    move = {ZERO: ZERO, ONE: ONE, **dict(zip(inner, image))}
    tables = {name: {k: move[g] for k, g in t.items()} for name, t in interp.predicates.items()}
    return move, Interpretation(interp.domain, interp.constants, interp.functions, tables)


def permuted(interp, rng):
    """The same structure with its elements renamed by a random bijection."""
    image = dict(zip(interp.domain, rng.sample(interp.domain, len(interp.domain))))
    return Interpretation(
        interp.domain,
        {i: image[d] for i, d in interp.constants.items()},
        {name: {tuple(image[a] for a in k): image[v] for k, v in t.items()}
         for name, t in interp.functions.items()},
        {name: {tuple(image[a] for a in k): g for k, g in t.items()}
         for name, t in interp.predicates.items()})


def reordered(interp, rng):
    """The same structure with its domain listed in another order, which
    reorders the assignments and so the bits of every vector."""
    return Interpretation(tuple(rng.sample(interp.domain, len(interp.domain))),
                          interp.constants, interp.functions, interp.predicates)


@pytest.mark.parametrize("seed", range(10))
def test_suite_is_invariant_under_grade_relabelling_and_domain_permutation(seed):
    rng = random.Random(seed)
    cfg = GeneratorConfig(seed=seed)
    for index in range(3):
        interp = generate_random_interpretation(cfg, index)
        pool = generate_formula_pool(cfg, index, interp)
        reports = theorem2_suite(interp, pool)
        move, moved = relabelled(interp, rng)
        assert theorem2_suite(moved, pool) == reports
        assert theorem2_suite(permuted(interp, rng), pool) == reports
        listed = reordered(interp, rng)
        assert theorem2_suite(listed, pool) == reports
        for lhs, rhs in itertools.product(pool, repeat=2):
            assert sequent_grade(listed, lhs, rhs) == sequent_grade(interp, lhs, rhs)
        variables = sorted(set().union(*(free_variables(f) for f in pool))) + [9]
        assert ([_Vectors(moved, variables).of(f) for f in pool]
                == [_Vectors(interp, variables).of(f) for f in pool])
        for lhs, rhs in itertools.product(pool, repeat=2):
            assert sequent_grade(moved, lhs, rhs) == move[sequent_grade(interp, lhs, rhs)]


# --- the suite against its clause loops (`loop_theorem2_suite`), kernel by kernel

FIXED_POOLS = {
    # no pool formula has a free variable: every clause reads the fresh one alone
    "closed": ["p(c1)", "E x1. q(x1)", "(c1 = f(c2))", "E x2. (p(x2) & q(c2))"],
    # x1 := x3 is captured under E x3 (clause 7), x1 := x2 under E x2 (clause 8)
    "captured": ["(q(x2) & E x3. (p(x1) & q(x3)))", "(p(x1) & E x2. (q(x2) & p(x1)))", "q(x2)"],
    # the same formula twice, so rows, meets and joins repeat
    "repeated": ["p(x1)", "q(x2)", "p(x1)", "(p(x1) | q(x2))", "E x1. (x1 = f(x2))"],
}


def generated_pools():
    for seed in range(10):
        cfg = GeneratorConfig(seed=seed)
        for size in range(1, 7):
            interp = generate_random_interpretation(cfg, size)
            yield interp, generate_formula_pool(cfg, size, interp, size=size, depth=3)


def fixed_pools():
    for texts in FIXED_POOLS.values():
        yield INTERP, [phi(text) for text in texts]


def traffic(monkeypatch, suite, interp, pool) -> set:
    """The (u, v) argument pairs `suite` passes to the graded inclusion."""
    real, seen = ranks.inclusion, set()

    def recorded(u, v, size, top):
        seen.add((u, v))
        return real(u, v, size, top)
    monkeypatch.setattr(semantics, "inclusion", recorded)
    suite(interp, pool)
    monkeypatch.setattr(semantics, "inclusion", real)
    return seen


def broken_kernels(monkeypatch, interp, pool):
    """Patches, each a broken kernel under which both suites run: graded
    inclusions that are arbitrary functions of the vectors, or the true one
    with one argument pair sent to rank 0; every substitution made T; and
    existential quantifiers that forget their sup or drop an assignment."""
    real_inclusion, real_exists = ranks.inclusion, _Vectors.exists
    yield "inclusion", lambda u, v, size, top: (u + v) % 7 % (top + 1)
    yield "inclusion", lambda u, v, size, top: (u ^ v) % (top + 1)
    pairs = sorted(traffic(monkeypatch, loop_theorem2_suite, interp, pool))
    for chosen in {pairs[0], pairs[len(pairs) // 2], pairs[-1]}:
        yield "inclusion", (lambda u, v, size, top, chosen=chosen:
                            0 if (u, v) == chosen else real_inclusion(u, v, size, top))
    yield "substitute", lambda f, pairs: TOP
    yield "exists", lambda self, u, variable: u
    yield "exists", lambda self, u, variable: real_exists(self, u, variable) & ~1


def same_reports(interp, pool):
    expected = [(r.name, r.ok, r.detail) for r in loop_theorem2_suite(interp, pool)]
    assert [(r.name, r.ok, r.detail) for r in theorem2_suite(interp, pool)] == expected
    return expected


@pytest.mark.parametrize("pools", [generated_pools, fixed_pools])
def test_the_suite_reports_what_the_clause_loops_report(pools, monkeypatch):
    """On generated pools of 1-6 formulas (seeds 0-9) and the fixed pools,
    the suite's reports equal the clause loops' under the real kernels and
    under every broken one, clause by clause and detail by detail."""
    broken_runs = 0
    for interp, pool in pools():
        assert all(ok for _, ok, _ in same_reports(interp, pool))
        for name, kernel in list(broken_kernels(monkeypatch, interp, pool)):
            with monkeypatch.context() as patch:
                patch.setattr(_Vectors if name == "exists" else semantics, name, kernel)
                broken_runs += not all(ok for _, ok, _ in same_reports(interp, pool))
    assert broken_runs


def test_the_suite_refuses_hostile_pools_as_the_clause_loops_do():
    deep = TOP
    for _ in range(5000):
        deep = Exists(2, And(deep, Predicate("p", (Var(1),))))
    hostile = [[phi("p(x1)"), Predicate("z", (Var(1),))],
               [phi("q(x2)"), Predicate("p", (Var(1), Var(2)))],
               [],
               [phi("p(x1)"), deep]]
    for pool in hostile:
        refusals = []
        for suite in (theorem2_suite, loop_theorem2_suite):
            with pytest.raises(GradedToposError) as refused:
                suite(INTERP, pool)
            refusals.append((type(refused.value), str(refused.value)))
        assert refusals[0] == refusals[1]


@pytest.mark.parametrize("name", list(FIXED_POOLS))
def test_the_suite_asks_the_kernel_what_the_clause_loops_ask(name, monkeypatch):
    """The suite passes the graded inclusion the same set of argument
    pairs as the clause loops: every sequent grade is the kernel's."""
    pool = [phi(text) for text in FIXED_POOLS[name]]
    assert (traffic(monkeypatch, theorem2_suite, INTERP, pool)
            == traffic(monkeypatch, loop_theorem2_suite, INTERP, pool))


@pytest.mark.parametrize("pools", [generated_pools, fixed_pools])
def test_the_suite_asks_each_kernel_what_the_clause_loops_ask(pools, monkeypatch):
    """Under the real kernels and every broken one, the suite passes the
    graded inclusion the same set of argument pairs as the clause loops:
    a clause decided on its tables computes every entry the loop reads."""
    for interp, pool in pools():
        kernels = [("inclusion", ranks.inclusion), *broken_kernels(monkeypatch, interp, pool)]
        for name, kernel in kernels:
            asked = []
            for suite in (theorem2_suite, loop_theorem2_suite):
                seen = set()
                with monkeypatch.context() as patch:
                    if name != "inclusion":
                        patch.setattr(_Vectors if name == "exists" else semantics, name, kernel)
                        kernel_now = ranks.inclusion
                    else:
                        kernel_now = kernel
                    patch.setattr(semantics, "inclusion", lambda u, v, size, top, kernel_now=kernel_now:
                                  seen.add((u, v)) or kernel_now(u, v, size, top))
                    suite(interp, pool)
                asked.append(seen)
            assert asked[0] == asked[1], name


# --- clause 2 decided on level cuts (`_transitive`)

TOPS = [1, 2, 3, 64, 65, 256, 257]


def closed_under_max_min(rel: list[list[int]]) -> list[list[int]]:
    """The least transitive relation above rel: Floyd-Warshall over (max, min)."""
    rel = [list(row) for row in rel]
    n = len(rel)
    for j in range(n):
        for i in range(n):
            for k in range(n):
                rel[i][k] = max(rel[i][k], min(rel[i][j], rel[j][k]))
    return rel


@st.composite
def rank_matrices(draw):
    """A rank matrix and its top: random entries; or their max-min closure,
    which is transitive; or that closure with one entry a triple forces
    lowered by one, which fails at that triple alone."""
    top = draw(st.sampled_from(TOPS))
    n = draw(st.integers(1, 8))
    entry = st.integers(0, top) if draw(st.booleans()) else st.sampled_from([0, top // 2, top - 1, top])
    rel = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rel = closed_under_max_min(rel)
        forced = [(i, k, min(rel[i][j], rel[j][k])) for i in range(n) for j in range(n) for k in range(n)
                  if j not in (i, k) and min(rel[i][j], rel[j][k]) > 0]
        if forced and draw(st.booleans()):
            i, k, low = draw(st.sampled_from(forced))
            rel[i][k] = low - 1
    return rel, top


@settings(max_examples=400, deadline=None)
@given(rank_matrices())
def test_transitivity_on_level_cuts_is_the_triple_loop(case):
    """On rank matrices of 1 to 8 rows with tops on both sides of a 64-bit
    word and of `cuts_of`'s byte table, the level-cut test says what the
    loop over every triple says."""
    rel, top = case
    p = range(len(rel))
    assert _transitive(rel, top) == all(min(rel[i][j], rel[j][k]) <= rel[i][k]
                                        for i in p for j in p for k in p)


def test_the_suite_reports_what_the_clause_loops_report_with_any_one_sequent_lowered(monkeypatch):
    """On each fixed pool, with the graded inclusion of any one argument
    pair the clause loops ask sent to rank 0, the suite reports what the
    loops report: each clause's decision sees every failure that its loop
    would name, one at a time."""
    real = ranks.inclusion
    for interp, pool in fixed_pools():
        for chosen in traffic(monkeypatch, loop_theorem2_suite, interp, pool):
            with monkeypatch.context() as patch:
                patch.setattr(semantics, "inclusion", lambda u, v, size, top, chosen=chosen:
                              0 if (u, v) == chosen else real(u, v, size, top))
                same_reports(interp, pool)
