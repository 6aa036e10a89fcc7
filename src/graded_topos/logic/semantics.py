"""Finite interpretations and the graded-satisfiability evaluator.

There is one evaluator, `_Vectors`: it compiles a formula once into a
vector over every assignment to a list of variables, bottom-up with an
explicit stack, so nesting depth costs no interpreter stack. `sat_grade`
reads one entry of the vector over the formula's free variables;
`sequent_grade` is the graded inclusion of the two sides' vectors over
their joint free variables; the sequent property suite (`theorem2_suite`)
compiles the pool over its free variables and one fresh variable, builds
position-indexed tables of those vectors once per call (the sequent grade
and the meet of every pair, the join of every subset, the ∃-sups and the
substitution instances) and reads every clause off them. Clauses 2, 3 and
4 are decided on their tables (transitivity on the level cuts of the
sequent grades), and their clause loops run only to name a failure.

Vector entries are integer ranks: a grade's rank is its index in the
`GradeSet` of the interpretation's predicate grades
(`Interpretation.ranked`). Ranks are ordered as the grades they code, and
every clause only compares grades (min, max, the Gödel arrow, inf, sup), so
the coding is exact. A vector is held as one int of level cuts (`ranks`),
one bitmask over the assignments per rank r >= 1 side by side, bit i of a
level set where entry i is at least r. Conjunction and disjunction are AND
and OR of the ints, and the sequent grade, the inf of the arrow, is the
level of the lowest set bit of u & ~v, else the top: the same kernel the
space-to-frame path runs on the opens. The existential quantifier over a
variable of stride p ORs the |domain| shifts of the int by multiples of p,
keeps the assignments where that variable takes the first element at every
level, and smears the result back over the other elements.
Terms compile to columns, the position in the domain of the term's value
at each assignment: a variable's column is periodic, and a function
application or a predicate reads its table at the arguments' columns. A
predicate's column of ranks is then coded as its cuts; so every vector
and column costs O(assignments) memory per rank, whatever the size of the
domain. Reports carry verdicts and indices, not grades; a grade read off a
vector is mapped back through the rank table.

One step is one entry of a column, or one word of 64 levels of a vector.
A node over a list of k variables costs |domain|^k * ceil(top / 64), k
counting the binders above the node whose variable is not in the list, so
up to 64 ranks cost one step an entry. A repeated binder costs nothing
extra, a tower of distinct binders multiplies the cost by |domain| per
level. The walk that lists a formula's nodes for compiling counts their
steps, and a formula needing more than `MAX_STEPS` is a SchemaError,
refused before any vector is built.

Each list memoises what it compiles: a node's cuts or column with the
steps of its subtree, keyed by the node, whose hash is cached when it is
built. The walk looks up every node, terms included. On a hit it adds the
stored steps, the subtree's full count as if it were compiled again, and
does not descend; so a list refuses exactly the formulas a fresh list
refuses, with the same message. A node repeated within one formula is
combined once. The memo lives as long as its list: one `sat_grade` or
`sequent_grade` call, or one suite. The steps it holds across a list and
the lists widened from it stop growing at `MAX_STEPS`.

Every vector the suite reads is compiled here, the substitution instances
of its clauses included. A direct recursive evaluator is kept in the test
suite as the reference the compiler is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import eq, gt, or_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from ..checks import LawReport
from ..errors import (
    ArityMismatch,
    CaptureViolation,
    SchemaError,
    UnboundVariable,
    UndeclaredSymbol,
)
from ..grades import Grade
from ..ranks import GradeSet, cuts_of, exists, fibre_bases, inclusion, spread, sup_out
from .parser import CONST_PATTERN, IDENT_PATTERN, Signature, VAR_PATTERN
from .syntax import (
    And,
    Bottom,
    Const,
    Equality,
    Exists,
    Formula,
    Func,
    Or,
    Predicate,
    TOP,
    Top,
    Var,
    format_formula,
    free_variables,
    substitute,
)


# a symbol's table as its arity and a map from keys to values, over domain positions
_Table = tuple[int, dict[tuple[int, ...], int]]


@dataclass(frozen=True)
class Interpretation:
    """Finite domain with constant denotations, function tables, and
    grade-valued predicate tables. The tables are copied into read-only
    mappings, so the coded tables of `ranked` stay those of the structure."""

    domain: tuple[str, ...]
    constants: Mapping[int, str]
    functions: Mapping[str, Mapping[tuple[str, ...], str]]
    predicates: Mapping[str, Mapping[tuple[str, ...], Grade]]

    def __post_init__(self) -> None:
        if not self.domain:
            raise SchemaError("domain", "must be non-empty")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError("domain", "elements must be distinct")
        frozen = MappingProxyType
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "constants", frozen(dict(self.constants)))
        for attr in ("functions", "predicates"):
            tables = getattr(self, attr)
            object.__setattr__(self, attr, frozen({name: frozen(dict(table))
                                                    for name, table in tables.items()}))
        pool = set(self.domain)
        for i, d in self.constants.items():
            if d not in pool:
                raise SchemaError("constants", f"c{i} denotes unknown element {d!r}")
        for name, table in self.functions.items():
            self._check_table(name, table, pool, values_in_domain=True)
        for name, table in self.predicates.items():
            self._check_table(name, table, pool, values_in_domain=False)

    def _check_table(self, name: str, table: Mapping, pool: set, values_in_domain: bool) -> None:
        if not IDENT_PATTERN.match(name) or VAR_PATTERN.match(name) or CONST_PATTERN.match(name):
            raise SchemaError(name, "symbol names must be identifiers distinct from xN/cN")
        arities = {len(k) for k in table}
        if len(arities) != 1:
            raise SchemaError(name, "table keys must all have the same arity")
        arity = arities.pop()
        if arity < 1:
            raise SchemaError(name, "arity must be at least 1")
        if len(table) != len(self.domain) ** arity:
            raise SchemaError(name, "table must be total on the domain")
        for key, value in table.items():
            if any(d not in pool for d in key):
                raise SchemaError(name, f"key {key} mentions unknown elements")
            if values_in_domain and value not in pool:
                raise SchemaError(name, f"value {value!r} is outside the domain")

    @cached_property
    def ranked(self) -> tuple[GradeSet, dict[str, _Table], dict[str, _Table]]:
        """The rank table of the predicate grades, and every predicate and
        function table as its arity and a map over domain positions: a
        predicate's value is its rank, a function's the position of its
        value. Built once; the tables are read-only."""
        # each distinct grade object is hashed once and ranked once (`GradeSet.code`)
        ranks = GradeSet.of(g for table in self.predicates.values() for g in table.values())
        at = {d: i for i, d in enumerate(self.domain)}.__getitem__

        def coded(table: Mapping, values: Iterable[int]) -> _Table:
            return len(next(iter(table))), dict(zip((tuple(map(at, key)) for key in table), values))

        return (ranks,
                {name: coded(t, ranks.code(t.values())) for name, t in self.predicates.items()},
                {name: coded(t, map(at, t.values())) for name, t in self.functions.items()})

    def signature(self) -> Signature:
        return Signature(
            frozenset(self.constants),
            {name: len(next(iter(table))) for name, table in self.functions.items()},
            {name: len(next(iter(table))) for name, table in self.predicates.items()},
        )


@dataclass(frozen=True)
class Assignment:
    """Values for the finitely many variables a formula mentions."""

    values: Mapping[int, str]

    def get(self, index: int) -> str:
        try:
            return self.values[index]
        except KeyError:
            raise UnboundVariable(index) from None

    def updated(self, index: int, element: str) -> "Assignment":
        fresh = dict(self.values)
        fresh[index] = element
        return Assignment(fresh)


EMPTY_ASSIGNMENT = Assignment({})


# The most steps `_Vectors.of` takes for one formula; a formula needing
# more is refused before anything is built.
MAX_STEPS = 10 ** 6


def _shallow(walk: Callable, *args):
    """`walk(*args)`, a recursive walk of a formula; a formula nested deeper
    than the interpreter's stack allows is a SchemaError."""
    try:
        return walk(*args)
    except RecursionError:
        raise SchemaError("formula", "the formula is nested too deeply") from None


def _free(*formulas: Formula) -> list[int]:
    """The sorted free variables of the formulas."""
    return sorted(frozenset().union(*(_shallow(free_variables, f) for f in formulas)))


def sat_grade(interp: Interpretation, assignment: Assignment, phi: Formula) -> Grade:
    """Grade of satisfaction: predicates by table lookup, top 1, bottom 0,
    crisp equality, min for conjunction, sup for disjunction and the
    existential quantifier.

    It is the entry at `assignment` of phi's rank vector over its free
    variables. Every assigned element must be in the domain. Refused with a
    SchemaError above `MAX_STEPS` vector entries.
    """
    for index, element in assignment.values.items():
        if element not in interp.domain:
            raise SchemaError("assignment", f"x{index} is assigned {element!r}, "
                                            "which is not a domain element")
    vs = _Vectors(interp, _free(phi))
    u = vs.of(phi)
    at = sum(interp.domain.index(assignment.get(v)) * vs._stride(v) for v in vs.variables)
    return vs.ranks.grades[sum(u >> r * vs.size + at & 1 for r in range(vs.ranks.top))]


def sequent_grade(interp: Interpretation, lhs: Formula, rhs: Formula) -> Grade:
    """Grade of the sequent: the inf over all assignments to the free
    variables of both sides of the arrow between the satisfaction grades,
    the graded inclusion of the two sides' rank vectors.

    Restricting to free variables is exact: satisfaction does not depend on
    the other coordinates, so the inf over all infinite sequences collapses
    to this finite one. Refused, as in `sat_grade`, above `MAX_STEPS`.
    """
    vs = _Vectors(interp, _free(lhs, rhs))
    return vs.ranks.grades[inclusion(vs.of(lhs), vs.of(rhs), vs.size, vs.ranks.top)]


# ---------------------------------------------------------------------------
# rank vectors

class _Vectors:
    """Satisfaction grades of formulas over every assignment to a fixed
    variable list, coded as the level cuts of their rank vectors in one int,
    with the rank kernel's operations mirroring the semantic clauses.

    Assignments are listed in `itertools.product` order over the sorted
    variables, so the last variable varies fastest; assignment i is bit i
    of every cut. A list widened by a bound variable puts that variable
    first, varying slowest, so its positions are |domain| copies of the
    list's own and the sup over it is an OR of shifts by the list's size.
    A term compiles to its column, a list holding the position in the
    domain of its value at each assignment. Ranks are those of
    `Interpretation.ranked`.
    """

    def __init__(self, interp: Interpretation, variables: Sequence[int],
                 outer: int | None = None, held: list[int] | None = None):
        self.interp = interp
        self.ranks, self._predicates, self._functions = interp.ranked
        self.variables = sorted(variables) if outer is None else [outer, *variables]
        self.position = {v: i for i, v in enumerate(self.variables)}
        self.n = len(interp.domain)
        self.size = self.n ** len(self.variables)
        self.words = -(-self.ranks.top // 64)  # steps per vector entry
        self.cost = self.size * self.words  # steps per node
        self._columns: dict[int, list[int]] = {}
        self._bases: dict[int, int] = {}
        self._widened: dict[int, _Vectors] = {}
        # node -> (its cuts or column, the steps of its subtree)
        self._memo: dict = {}
        # the steps of the nodes memoised here and in the widened lists
        self._held = [0] if held is None else held

    def _stride(self, variable: int) -> int:
        return self.n ** (len(self.variables) - 1 - self.position[variable])

    def _column(self, variable: int) -> list[int]:
        """The column of the variable `variable`: assignment i gives it the
        element at position i // stride % |domain|."""
        if variable not in self._columns:
            stride = self._stride(variable)
            block = [d for d in range(self.n) for _ in range(stride)]
            self._columns[variable] = block * (self.size // len(block))
        return self._columns[variable]

    def _widen(self, variable: int) -> "_Vectors":
        if variable not in self._widened:
            self._widened[variable] = _Vectors(self.interp, self.variables, variable, self._held)
        return self._widened[variable]

    def of(self, phi: Formula) -> int:
        """Level cuts of a formula's rank vector. One walk lists each node
        with the list it is evaluated over, the list widened by a quantifier
        whose variable is not in it, and refuses the formula past
        `MAX_STEPS` steps; a fold then combines the nodes bottom-up. Both
        use explicit stacks, so nesting depth costs no interpreter stack.
        A list is built with nothing vector-sized on it, so the walk builds
        nothing the budget has not counted.

        A node already compiled over its list is read from the list's memo:
        the walk counts the steps of its whole subtree, as if it compiled
        it, and does not descend into it."""
        # a formula compiled before, within the budget, is one lookup
        hit = self._memo.get(phi)
        if hit is not None and hit[1] <= MAX_STEPS:
            return hit[0]
        steps = 0
        listed: list = []
        todo: list = [(phi, self)]
        while todo:
            node, space = todo.pop()
            hit = space._memo.get(node)
            if hit is None:
                steps += space.cost
                parts = node.parts()
            else:
                steps += hit[1]
                parts = ()
            if steps > MAX_STEPS:
                raise SchemaError("formula", f"evaluation needs more than {MAX_STEPS} steps")
            listed.append((node, space, hit, len(parts)))
            if parts:
                if isinstance(node, Exists) and node.variable not in space.position:
                    space = space._widen(node.variable)
                todo.extend(zip(parts, itertools.repeat(space)))
        # the walk lists a node before its parts, the last part first, so
        # in reverse a node's parts are done, in order, when it is reached;
        # `values` holds their cuts or columns, `subtrees` their steps
        values: list = []
        subtrees: list = []
        for node, space, hit, count in reversed(listed):
            if hit is None:
                first = len(values) - count
                # a node repeated in the formula is combined once
                hit = space._memo.get(node)
                if hit is None:
                    hit = (space._combine(node, values[first:]),
                           space.cost + sum(subtrees[first:]))
                    if space._held[0] + space.cost <= MAX_STEPS:
                        space._held[0] += space.cost
                        space._memo[node] = hit
                del values[first:], subtrees[first:]
            values.append(hit[0])
            subtrees.append(hit[1])
        return values[0]

    def _combine(self, node, args: list) -> int | list[int]:
        """The cuts of a formula, or the column of a term, from those of
        its parts."""
        if isinstance(node, Top):
            return (1 << self.size * self.ranks.top) - 1
        if isinstance(node, Bottom):
            return 0
        if isinstance(node, Var):
            if node.index not in self.position:
                raise UnboundVariable(node.index)
            return self._column(node.index)
        if isinstance(node, Const):
            if node.index not in self.interp.constants:
                raise UndeclaredSymbol(f"c{node.index}")
            return [self.interp.domain.index(self.interp.constants[node.index])] * self.size
        if isinstance(node, (Predicate, Func)):
            tables = self._predicates if isinstance(node, Predicate) else self._functions
            if node.symbol not in tables:
                raise UndeclaredSymbol(node.symbol)
            arity, table = tables[node.symbol]
            if arity != len(args):
                raise ArityMismatch(node.symbol, arity, len(args))
            values = list(map(table.__getitem__, zip(*args)))
            return cuts_of(values, self.ranks.top) if isinstance(node, Predicate) else values
        if isinstance(node, Equality):
            return spread(cuts_of(map(eq, *args), 1), self.size, self.ranks.top)
        if isinstance(node, And):
            return args[0] & args[1]
        if isinstance(node, Or):
            return reduce(or_, args)
        if isinstance(node, Exists):
            if node.variable in self.position:
                return self.exists(args[0], node.variable)
            return sup_out(args[0], self.size, self.n, self.ranks.top)
        raise TypeError(f"not a formula: {node!r}")

    def exists(self, u: int, variable: int) -> int:
        """Cuts of the formula quantified over `variable`, a variable of the list."""
        stride = self._stride(variable)
        if variable not in self._bases:
            self._bases[variable] = spread(fibre_bases(self.size, stride, self.n),
                                           self.size, self.ranks.top)
        return exists(u, stride, self.n, self._bases[variable])


# ---------------------------------------------------------------------------
# the sequent property suite

MAX_SUBSET = 3


def _transitive(rel: Sequence[Sequence[int]], top: int) -> bool:
    """Whether min(rel[i][j], rel[j][k]) <= rel[i][k] for all i, j and k,
    the entries being ranks 0..top. That holds iff every level cut of rel
    is transitive (Zadeh 1971, "Similarity relations and fuzzy
    orderings"): at each level r <= rel[i][j], the cut of row j lies within
    that of row i. With the rows coded as their level cuts (`cuts_of`),
    rows[j] & ~rows[i] then has no bit in levels 1..rel[i][j], the bits
    below rel[i][j] * n: one AND a pair where the definition compares
    every triple."""
    n = len(rel)
    rows = [cuts_of(row, top) for row in rel]
    for packed, row in zip(rows, rel):
        for j, r in enumerate(row):
            if rows[j] & ~packed & ((1 << r * n) - 1):
                return False
    return True


def theorem2_suite(interp: Interpretation, pool: Sequence[Formula]) -> tuple[LawReport, ...]:
    """Evaluate the nine graded-sequent properties over the pool.

    Clauses 4 and 5 range over nonempty sub-multisets of the pool up to
    `MAX_SUBSET`; the substitution clauses skip instances the capture check
    rejects; clause 9 is instantiated with the quantified variable not free
    in the left conjunct, the side condition the distributivity law needs.
    A pool formula nested too deeply for the interpreter's stack is a
    SchemaError, as in `sat_grade`.

    The clauses read tables built once per call, indexed by pool position:
    the vectors, the sequent grades `seq[i][j]` and meets `meet[i][j]` of
    every pair, one join per subset for clauses 4 and 5, the ∃-sups of
    clauses 8 and 9 and the substitution instances of 8. Every vector,
    instances included, is compiled by `_Vectors.of`, and every sequent
    grade is a call of the graded inclusion (`inclusion`), asked once where
    an input commutes or repeats: meets commute, and the meet of a formula
    with itself, like a singleton's join, is the formula. The kernels are
    functions of their arguments, so a grade read again is the grade asked
    again. Clauses 2, 3 and 4 are decided on their tables, clause 2 on the
    level cuts of `seq` (`_transitive`); only when a decision finds a
    failure does the clause's loop run, over the same tables, to name it.
    So the reports and the argument pairs given to `inclusion` are the
    loops'.
    """
    if not pool:
        raise SchemaError("pool", "needs at least one formula")
    pool = list(pool)
    free = [_shallow(free_variables, f) for f in pool]
    pool_vars = sorted(frozenset().union(*free))
    fresh = (max(pool_vars, default=0)) + 1
    vs = _Vectors(interp, pool_vars + [fresh])
    size, top = vs.size, vs.ranks.top
    p = range(len(pool))
    vector = [vs.of(f) for f in pool]
    seq = [[inclusion(u, v, size, top) for v in vector] for u in vector]
    meet = [[u & v for v in vector] for u in vector]

    reports = []

    def clause(name: str, failures: list[str]) -> None:
        reports.append(LawReport(name, not failures, "; ".join(failures[:3])))

    clause("Thm2.1 identity", [format_formula(f) for i, f in enumerate(pool) if seq[i][i] != top])

    clause("Thm2.2 transitivity", [] if _transitive(seq, top) else
           [f"({i},{j},{k})" for i in p for j in p for k in p if min(seq[i][j], seq[j][k]) > seq[i][k]])

    top_vec = vs.of(TOP)
    first = [inclusion(u, top_vec, size, top) for u in vector]
    # below[i][j]: the sequent from the meet of i and j to i; meets commute,
    # so the one to j is below[j][i]
    below = [[inclusion(both, u, size, top) for both in row] for u, row in zip(vector, meet)]
    # to_meet[i]: the sequents from i to the meets of the pairs j < k; 3(iv)
    # is symmetric in j and k, and holds at j = k, the meet being j
    pairs = list(itertools.combinations(p, 2))
    to_meet = [[inclusion(u, meet[j][k], size, top) for j, k in pairs] for u in vector]
    fails = []
    if (first.count(top) < len(pool) or any(row.count(top) < len(pool) for row in below)
            or any(min(row[j], row[k]) != g for row, grades in zip(seq, to_meet)
                   for (j, k), g in zip(pairs, grades))):
        fails = [f"3(i) {format_formula(f)}" for g, f in zip(first, pool) if g != top]
        for i in p:
            at_pair = dict(zip(pairs, to_meet[i]))
            for j in p:
                if below[i][j] != top:
                    fails.append(f"3(ii) ({i},{j})")
                if below[j][i] != top:
                    fails.append(f"3(iii) ({i},{j})")
                for k in p:
                    to_jk = seq[i][j] if j == k else at_pair[min(j, k), max(j, k)]
                    if min(seq[i][j], seq[i][k]) != to_jk:
                        fails.append(f"3(iv) ({i},{j},{k})")
    clause("Thm2.3 conjunction", fails)

    # every subset but a singleton extends the subset without its last
    # member, listed before it; `steps` holds each subset with those two
    subsets = [combo
               for count in range(1, min(MAX_SUBSET, len(pool)) + 1)
               for combo in itertools.combinations(p, count)]
    steps = [(combo, combo[:-1], combo[-1]) for combo in subsets]
    # per subset: its join, the sequents from each member to it (4(i)) and
    # from it to each formula (4(ii)), and the minima of its members' rows
    # of `seq`; a singleton's sequents are its row of `seq`
    joins, members, outs, lows = {}, {}, {}, {}
    for combo, head, last in steps:
        if head:
            joined = joins[combo] = joins[head] | vector[last]
            members[combo] = [inclusion(vector[i], joined, size, top) for i in combo]
            outs[combo] = [inclusion(joined, v, size, top) for v in vector]
            lows[combo] = list(map(min, lows[head], seq[last]))
        else:
            joins[combo] = vector[last]
            members[combo] = [seq[last][last]]
            outs[combo] = lows[combo] = seq[last]
    fails = []
    if (any(g != top for grades in members.values() for g in grades)
            or any(map(gt, itertools.chain.from_iterable(lows.values()),
                       itertools.chain.from_iterable(outs.values())))):
        for combo in subsets:
            fails.extend(f"4(i) {combo} member {i}" for i, g in zip(combo, members[combo]) if g != top)
            fails.extend(f"4(ii) {combo} to {j}" for j in p if lows[combo][j] > outs[combo][j])
    clause("Thm2.4 disjunction", fails)

    fails = []
    for i, u, row in zip(p, vector, meet):
        # the join of the meets of i with a subset's members, extended as
        # the subset's join is
        meet_joins = {}
        for combo, head, last in steps:
            rhs = meet_joins[combo] = meet_joins[head] | row[last] if head else row[last]
            if inclusion(u & joins[combo], rhs, size, top) != top:
                fails.append(f"5 ({i}, {combo})")
    clause("Thm2.5 frame distributivity", fails)

    # equal[x, y]: the vector of x = y, compiled once per pair of variables
    equal = {(x, x): vs.of(Equality(Var(x), Var(x))) for x in (pool_vars or [fresh])}
    clause("Thm2.6 reflexivity of equality",
           [f"x{x}" for (x, _), u in equal.items() if inclusion(top_vec, u, size, top) != top])

    fails = []
    for i, f in enumerate(pool):
        xs = sorted(free[i])[:2]
        if not xs:
            continue
        targets = [[fresh] * len(xs)]
        if len(xs) == 2:
            targets.append([xs[1], xs[0]])
        for ys in targets:
            try:
                replaced = _shallow(substitute, f, [(x, Var(y)) for x, y in zip(xs, ys)])
            except CaptureViolation:
                continue
            antecedent = vector[i]
            for x, y in zip(xs, ys):
                if (x, y) not in equal:
                    equal[x, y] = vs.of(Equality(Var(x), Var(y)))
                antecedent &= equal[x, y]
            if inclusion(antecedent, vs.of(replaced), size, top) != top:
                fails.append(f"7 ({i} with {ys})")
    clause("Thm2.7 substitution of equals", fails)

    # clause 8 quantifies each formula's free variables, or the fresh one,
    # and puts a variable of `witnesses` for them; `sups` holds the ∃-sups
    # of every vector over every variable, `instances` pool[k] with x for y,
    # or None where the capture check rejects it
    quantified = [sorted(free_k) or [fresh] for free_k in free]
    witnesses = pool_vars[:2] or [fresh]
    sups = [{y: vs.exists(u, y) for y in vs.variables} for u in vector]
    instances = {}
    for y in sorted(frozenset().union(*quantified)):
        for x in witnesses:
            replacement = [(y, Var(x))]
            for k, f in enumerate(pool):
                try:
                    instances[k, y, x] = vs.of(_shallow(substitute, f, replacement))
                except CaptureViolation:
                    instances[k, y, x] = None

    fails = []
    for i in p:
        for j in p:
            for y in quantified[j]:
                # the sequents with the existential side do not depend on x
                into = inclusion(vector[i], sups[j][y], size, top)
                out_of = inclusion(sups[i][y], vector[j], size, top)
                for x in witnesses:
                    if instances[j, y, x] is None:
                        continue
                    if inclusion(vector[i], instances[j, y, x], size, top) > into:
                        fails.append(f"8(i) ({i},{j},x{y}:=x{x})")
                    # second half: from an existential premise to the instance
                    if instances[i, y, x] is None:
                        continue
                    if out_of > inclusion(instances[i, y, x], vector[j], size, top):
                        fails.append(f"8(ii) ({i},{j},x{y}:=x{x})")
    clause("Thm2.8 existential bounds", fails)

    fails = []
    for i in p:
        for j in p:
            for y in sorted((free[j] | {fresh}) - free[i]):
                if inclusion(vector[i] & sups[j][y], vs.exists(meet[i][j], y), size, top) != top:
                    fails.append(f"9 ({i},{j},x{y})")
    clause("Thm2.9 quantifier distributivity", fails)

    return tuple(reports)
