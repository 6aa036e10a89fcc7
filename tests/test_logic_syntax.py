import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_substitute

from graded_topos.errors import (
    ArityMismatch,
    CaptureViolation,
    FormulaSyntaxError,
    UndeclaredSymbol,
)
from graded_topos.generators import GeneratorConfig, generate_formula_pool, generate_random_interpretation
from graded_topos.grades import ONE
from graded_topos.logic import syntax
from graded_topos.logic.parser import Signature, _Parser, parse_formula, parse_term
from graded_topos.logic.semantics import Interpretation, theorem2_suite
from graded_topos.logic.syntax import (
    And,
    BOTTOM,
    Const,
    Equality,
    Exists,
    Func,
    Or,
    Predicate,
    TOP,
    Var,
    format_formula,
    format_term,
    free_variables,
    substitute,
)

SIG = Signature(frozenset({1, 2}), {"f": 1}, {"p": 1, "q": 1, "r": 2})


def test_parse_basics():
    assert parse_formula("T") == TOP
    assert parse_formula("F") == BOTTOM
    assert parse_formula("(p(x1) & q(x2))") == And(
        Predicate("p", (Var(1),)), Predicate("q", (Var(2),)))
    assert parse_formula("E x1. (x1 = c1)") == Exists(1, Equality(Var(1), Const(1)))


def test_parse_disjunctions():
    assert parse_formula("(p(x1) | q(x1))") == Or(
        (Predicate("p", (Var(1),)), Predicate("q", (Var(1),))))
    assert parse_formula("V[T, F, p(x1)]") == Or(
        (TOP, BOTTOM, Predicate("p", (Var(1),))))
    assert parse_formula("V[T]") == Or((TOP,))


def test_parse_terms():
    assert parse_term("x3") == Var(3)
    assert parse_term("c2") == Const(2)
    assert parse_term("f(g(x1),c1)") == Func("f", (Func("g", (Var(1),)), Const(1)))


def test_reserved_letters_can_still_be_symbols():
    assert parse_formula("T(x1)") == Predicate("T", (Var(1),))
    assert parse_formula("E(x1)") == Predicate("E", (Var(1),))
    assert parse_formula("V(x1)") == Predicate("V", (Var(1),))
    assert parse_formula("E x1. T") == Exists(1, TOP)


def test_whitespace_is_insignificant():
    assert parse_formula(" ( p( x1 ) &  T ) ") == And(Predicate("p", (Var(1),)), TOP)


def test_syntax_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(p(x1) &")
    assert err.value.position == 8
    with pytest.raises(FormulaSyntaxError):
        parse_formula("T T")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(x1 = )")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(p(x1) ? q(x1))")


def test_signature_checks():
    assert parse_formula("r(x1,c2)", SIG) == Predicate("r", (Var(1), Const(2)))
    with pytest.raises(ArityMismatch):
        parse_formula("r(x1)", SIG)
    with pytest.raises(UndeclaredSymbol):
        parse_formula("s(x1)", SIG)
    with pytest.raises(UndeclaredSymbol):
        parse_formula("p(c9)", SIG)
    with pytest.raises(ArityMismatch):
        parse_formula("p(f(x1,x2))", SIG)
    with pytest.raises(UndeclaredSymbol):
        parse_term("g(x1)", SIG)


@pytest.mark.parametrize("text, error, symbol", [
    ("f(x1)", UndeclaredSymbol, "f"),  # a function symbol used as a predicate
    ("p(p(x1))", UndeclaredSymbol, "p"),  # a predicate used as a function
    ("(p(x1) = x1)", UndeclaredSymbol, "p"),
    ("f(x1,x2)", UndeclaredSymbol, "f"),  # the symbol is checked before its arity
    ("p(f(x1,x2))", ArityMismatch, "f"),  # arguments are checked before their symbol
    ("s(f(x1,x2))", ArityMismatch, "f"),
    ("r(x1,f(c9))", UndeclaredSymbol, "c9"),
    ("r(p(x1))", UndeclaredSymbol, "p"),
    ("r(f(x1))", ArityMismatch, "r"),
])
def test_symbols_are_checked_against_their_own_kind_innermost_first(text, error, symbol):
    with pytest.raises(error) as raised:
        parse_formula(text, SIG)
    assert raised.value.symbol == symbol


def test_without_a_signature_any_symbol_and_arity_parse():
    assert parse_formula("f(x1,x2)") == Predicate("f", (Var(1), Var(2)))
    assert parse_formula("p(p(x1))") == Predicate("p", (Func("p", (Var(1),)),))
    assert parse_term("p(x1,c9)") == Func("p", (Var(1), Const(9)))
    with pytest.raises(FormulaSyntaxError):  # a syntax error comes before any symbol check
        parse_formula("s(x1", SIG)


@pytest.mark.parametrize("text", [
    "T", "F", "p(x1)", "(p(x1) & q(x2))", "(p(x1) | q(x2))",
    "V[T, F, p(x1)]", "V[p(x1)]", "E x1. (x1 = c1)",
    "E x2. (p(x1) & E x1. q(x1))", "(f(x1) = c2)", "r(f(c1),x2)",
])
def test_format_parse_round_trip(text):
    ast = parse_formula(text, SIG)
    assert parse_formula(format_formula(ast), SIG) == ast


def test_format_term_round_trip():
    term = Func("f", (Func("f", (Const(1),)),))
    assert parse_term(format_term(term), SIG) == term


def test_free_variables():
    assert free_variables(TOP) == frozenset()
    assert free_variables(Predicate("p", (Var(1), Var(3)))) == frozenset({1, 3})
    assert free_variables(Exists(1, Predicate("p", (Var(1), Var(2))))) == frozenset({2})
    assert free_variables(parse_formula("(E x1. p(x1) & q(x1))")) == frozenset({1})


def test_substitute_free_occurrences():
    assert substitute(parse_formula("p(x1)"), [(1, Const(1))]) == parse_formula("p(c1)")
    nested = parse_formula("(p(x1) & E x1. q(x1))")
    assert substitute(nested, [(1, Const(1))]) == parse_formula("(p(c1) & E x1. q(x1))")


def test_substitute_is_simultaneous():
    swapped = substitute(parse_formula("r(x1,x2)"), [(1, Var(2)), (2, Var(1))])
    assert swapped == parse_formula("r(x2,x1)")


def test_substitution_capture_is_rejected():
    bound = parse_formula("E x2. r(x1,x2)")
    with pytest.raises(CaptureViolation) as err:
        substitute(bound, [(1, Var(2))])
    assert err.value.variable == 2
    # replacing a bound variable is a no-op, not a capture
    assert substitute(parse_formula("E x1. p(x1)"), [(1, Const(1))]) == parse_formula("E x1. p(x1)")
    # substituting under a binder is fine when the term avoids the binder
    assert substitute(bound, [(1, Var(3))]) == parse_formula("E x2. r(x3,x2)")


def test_or_must_be_nonempty():
    from graded_topos.errors import SchemaError
    with pytest.raises(SchemaError):
        Or(())


# --- the node contract: cached hashes, structural equality, shared subtrees ---

def test_equal_formulas_from_the_parser_constructors_and_substitute_are_equal_and_hash_equal():
    text = "V[E x1. (p(x1) & r(x1,f(c1))), (x2 = f(x2)), T, F]"
    built = Or((Exists(1, And(Predicate("p", (Var(1),)),
                              Predicate("r", (Var(1), Func("f", (Const(1),)))))),
                Equality(Var(2), Func("f", (Var(2),))), TOP, BOTTOM))
    renamed = substitute(parse_formula(text.replace("x2", "x3")), [(3, Var(2))])
    copies = [parse_formula(text), parse_formula(text), built, renamed]
    for a, b in itertools.product(copies, repeat=2):
        assert a == b and not a != b and hash(a) == hash(b)
    for seed in range(6):
        cfg = GeneratorConfig(seed=seed)
        interp = generate_random_interpretation(cfg, 0)
        for f in generate_formula_pool(cfg, 0, interp, size=4, depth=4):
            again = parse_formula(format_formula(f))
            assert again == f and hash(again) == hash(f)


def test_copied_and_pickled_formulas_keep_equality_and_hash():
    phi = parse_formula("V[E x1. (p(x1) & (x1 = f(c2))), T, F]")
    for other in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi), copy.copy(phi)):
        assert other == phi and hash(other) == hash(phi)


def test_nodes_are_equal_only_when_their_trees_are():
    pairs = [(Var(1), Const(1)), (TOP, BOTTOM),
             (Equality(Var(1), Var(2)), Equality(Const(1), Const(2))),
             (Exists(1, Predicate("p", (Var(1),))), Exists(1, Predicate("p", (Const(1),)))),
             (Or((TOP, BOTTOM)), Or((TOP, BOTTOM, BOTTOM))),
             (Predicate("p", (Var(1),)), Func("p", (Var(1),))),
             (Predicate("p", (Var(1),)), Predicate("q", (Var(1),))),
             (Exists(1, TOP), Exists(2, TOP)),
             (Equality(Var(1), Var(2)), Equality(Var(1), Var(3)))]
    for a, b in pairs:
        assert a != b and not a == b
        # equal cached hashes alone do not make nodes equal
        for node, other in [(a, b), *zip(a.parts(), b.parts())]:
            object.__setattr__(other, "_hash", hash(node))
        assert a != b and not a == b
    assert Var(1) != (1,) and Var(1) != 1 and Predicate("p", ()) != ("p", ())


def test_substitute_returns_the_same_object_when_nothing_is_replaced():
    phi = parse_formula("(E x1. r(x1,x2) & p(f(x2)))")
    assert substitute(phi, [(2, Var(2))]) is phi  # x := x
    assert substitute(phi, [(1, Const(1))]) is phi  # x1 is only bound
    assert substitute(phi, [(3, Var(1))]) is phi  # x3 does not occur
    assert substitute(phi, [(1, Var(2)), (2, Var(2))]) is phi
    # x := x under a binder its term would otherwise be captured by
    bound = parse_formula("E x2. r(x1,x2)")
    assert substitute(bound, [(1, Var(1))]) is bound
    # only the subtrees with a replaced occurrence are rebuilt
    partly = parse_formula("(E x2. r(x2,x2) & V[p(x1), q(c1)])")
    out = substitute(partly, [(1, Const(1))])
    assert out == parse_formula("(E x2. r(x2,x2) & V[p(c1), q(c1)])")
    assert out.lhs is partly.lhs and out.rhs.items[1] is partly.rhs.items[1]


@pytest.mark.parametrize("seed", range(6))
def test_substitute_matches_the_recursive_oracle_on_generated_pools(seed):
    """Equal results, CaptureViolation at the same binder, and the very
    same object whenever no replaced variable is free."""
    cfg = GeneratorConfig(seed=seed)
    for index in range(4):
        interp = generate_random_interpretation(cfg, index)
        terms = [Var(1), Var(2), Var(3), Const(min(interp.constants, default=1)),
                 *(Func(name, tuple(Var(2) for _ in next(iter(table))))
                   for name, table in interp.functions.items())]
        for f in generate_formula_pool(cfg, index, interp, size=4, depth=4):
            for pairs in itertools.chain(
                    ([(y, t)] for y in (1, 2, 3) for t in terms),
                    ([(1, s), (2, t)] for s, t in itertools.product(terms, repeat=2))):
                try:
                    expected = brute_substitute(f, pairs)
                except CaptureViolation as exc:
                    with pytest.raises(CaptureViolation) as err:
                        substitute(f, pairs)
                    assert err.value.variable == exc.variable
                    continue
                out = substitute(f, pairs)
                assert out == expected and hash(out) == hash(expected)
                replaced = {x for x, t in dict(pairs).items() if t != Var(x)}
                assert (out is f) == (not replaced & free_variables(f))


def assert_shares_unchanged_subtrees(out, phi, replaced):
    """Every subtree of `phi` with no free variable in `replaced` is the same
    object in `out`; every other subtree is rebuilt."""
    todo = [(out, phi, frozenset(replaced))]
    while todo:
        new, old, live = todo.pop()
        if not live & free_variables(old):
            assert new is old
            continue
        assert new is not old
        if isinstance(old, Exists):
            live = live - {old.variable}
        todo.extend((a, b, live) for a, b in zip(new.parts(), old.parts()))


@pytest.mark.parametrize("text, pairs", [
    # the replacement mentions the binder, whose variable is not free below
    ("E x2. E x3. r(x2,x3)", [(1, Var(2))]),
    ("E x2. (p(x3) & E x1. r(x1,x2))", [(1, Var(2)), (3, Const(1))]),
    ("E x2. (q(c1) & E x3. r(x1,x3))", [(1, Var(2)), (3, Var(2))]),
    ("E x2. E x1. r(x1,x2)", [(1, Func("f", (Var(2),)))]),
    # sibling binders: one captures, one does not
    ("(E x2. p(x2) & E x2. r(x1,x2))", [(1, Var(2))]),
    ("(E x2. r(x1,x2) & E x3. r(x1,x3))", [(1, Var(3))]),
    ("(E x3. r(x1,x3) & E x2. r(x1,x2))", [(1, Var(3))]),
    ("V[E x2. p(x2), E x3. r(x1,x3), E x2. q(x1)]", [(1, Var(2))]),
    # an Or of three items, a Func inside an Equality, constants
    ("V[p(x1), E x2. r(x1,x2), q(c1)]", [(1, Func("f", (Var(3),)))]),
    ("V[p(x2), q(x2), r(x2,x1)]", [(1, Var(2)), (2, Var(1))]),
    ("(f(x1) = f(f(x2)))", [(1, Var(2)), (2, Const(1))]),
    ("(f(c1) = x2)", [(1, Var(2))]),
    ("(c1 = x1)", [(1, Const(2))]),
    ("(p(c1) & (c2 = c1))", [(1, Var(2))]),
])
def test_substitute_matches_the_recursive_oracle_on_binders_and_every_node_kind(text, pairs):
    """Equal results, CaptureViolation at the same binder, and the same
    object for every subtree with no replaced free variable."""
    phi = parse_formula(text, SIG)
    try:
        expected = brute_substitute(phi, pairs)
    except CaptureViolation as exc:
        with pytest.raises(CaptureViolation) as err:
            substitute(phi, pairs)
        assert err.value.variable == exc.variable
        return
    out = substitute(phi, pairs)
    assert out == expected and hash(out) == hash(expected)
    assert_shares_unchanged_subtrees(out, phi, {x for x, t in pairs if t != Var(x)})


@pytest.mark.parametrize("pairs", [[(1, Var(3))], [(5, Var(2))]])
def test_substitution_is_linear_in_the_binder_depth(monkeypatch, pairs):
    """Substituting into twice as many binders calls `free_variables` at
    most twice as often, plus a constant."""
    calls = []
    walk = syntax.free_variables

    def counted(node):
        calls.append(node)
        return walk(node)
    monkeypatch.setattr(syntax, "free_variables", counted)

    def count(depth):
        deep = TOP
        for _ in range(depth):
            deep = Exists(2, And(deep, Predicate("p", (Var(1),))))
        calls.clear()
        substitute(deep, pairs)
        return len(calls)
    assert count(120) <= 2 * count(60) + 4


def scanned_leading_operator(tokens, at):
    """The first '=', '&' or '|' at depth 0 from `at`, just past a bracket,
    before that bracket closes, else None: the scan the parser once ran
    from each '(' it met, where '(' and '[' open and ')' and ']' close."""
    depth = 0
    for tok in tokens[at:]:
        if tok.text in "([":
            depth += 1
        elif tok.text in ")]":
            if depth == 0:
                return None
            depth -= 1
        elif depth == 0 and tok.text in ("=", "&", "|"):
            return tok.text
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(["(", ")", "[", "]", "=", "&", "|", ",", ".", "x1", "c2", "p", "E", "V"]),
                max_size=40))
def test_each_brackets_leading_operator_is_the_one_a_scan_finds(texts):
    parser = _Parser(" ".join(texts), None)
    for k, tok in enumerate(parser.tokens):
        if tok.text in ("(", "["):
            assert parser.leading[k] == scanned_leading_operator(parser.tokens, k + 1)


def deepest(parse):
    """`parse(depth)` at the largest depth the parser accepts, by bisection."""
    def parses(depth):
        try:
            parse(depth)
        except FormulaSyntaxError:
            return False
        return True
    low, high = 1, 4096
    assert parses(low) and not parses(high)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if parses(middle) else (low, middle)
    return parse(low)


def nested_term(depth):
    return "f(" * depth + "x1" + ")" * depth


def nested_binders(depth):
    leaf = "p(x1)"
    for _ in range(depth):
        leaf = f"E x2. ({leaf} & p(x1))"
    return leaf


def test_the_parsers_deepest_terms_and_formulas_format_and_walk():
    """`format_formula` and `format_term` invert the parser at its deepest
    term and formula, and the structural walks and the suite answer there."""
    term = deepest(lambda depth: parse_term(nested_term(depth)))
    assert parse_term(format_term(term)) == term
    on_term = deepest(lambda depth: parse_formula(f"p({nested_term(depth)})"))
    on_binders = deepest(lambda depth: parse_formula(nested_binders(depth)))
    for phi in (on_term, on_binders):
        text = format_formula(phi)
        assert parse_formula(text) == phi
        assert free_variables(phi) == frozenset({1})
        assert substitute(phi, [(1, Var(3))]) == parse_formula(text.replace("x1", "x3"))
    with pytest.raises(CaptureViolation) as err:
        substitute(on_binders, [(1, Var(2))])
    assert err.value.variable == 2
    assert free_variables(term) == frozenset({1})
    assert substitute(term, [(1, Const(1))]) == parse_term(format_term(term).replace("x1", "c1"))
    interp = Interpretation(("a", "b"), {1: "a"}, {"f": {("a",): "b", ("b",): "a"}},
                            {"p": {("a",): ONE, ("b",): ONE}})
    assert all(law.ok for law in theorem2_suite(interp, [on_term, on_binders]))
