"""Terms and geometric formulas: constants, variables, function applications;
top, bottom, predicates, crisp equality, binary conjunction, finite
disjunction, existential quantification.

Every node is immutable and computes its hash once, when it is built, from
its class and its fields' cached hashes, so a node hashes in O(1) however
deep it is. Equality is structural: two nodes are `==` when they have the
same class and equal fields, decided on an explicit stack that stops at
the first pair of differing cached hashes, so deep formulas compare
without the interpreter's stack. Variables and constants compare their
indices directly.

The jobs that depend only on structure (equality, free variables,
substitution) walk `parts()`, terms and formulas alike; formatting, and
compiling in `semantics`, case on the node's class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import CaptureViolation, SchemaError

# nodes are frozen; their constructors set the fields and the hash of
# (class name, fields), which reads the fields' cached hashes
_set = object.__setattr__


class _Node:
    """The cached hash and the stack-based equality every node shares."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            parts, other_parts = a.parts(), b.parts()
            if a._label() != b._label() or len(parts) != len(other_parts):
                return False
            todo.extend(zip(parts, other_parts))
        return True

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor, which sets the hash
        return self.__class__, tuple(map(self.__getattribute__, self.__match_args__))

    def parts(self) -> tuple:
        """The sub-formulas and sub-terms the node is built from, in order."""
        return ()

    def _label(self) -> tuple:
        """The node's fields that are not nodes."""
        return ()


class _Leaf(_Node):
    """A variable or a constant: equal to a node of its class with the same index."""

    __slots__ = ()

    def __init__(self, index: int) -> None:
        _set(self, "index", index)
        _set(self, "_hash", hash((self.__class__.__name__, index)))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.index == other.index
        return False if isinstance(other, _Node) else NotImplemented

    __hash__ = _Node.__hash__

    def _label(self) -> tuple:
        return (self.index,)


class _Application(_Node):
    """A function term or a predicate: a symbol applied to terms."""

    __slots__ = ()

    def __init__(self, symbol: str, args: tuple) -> None:
        _set(self, "symbol", symbol)
        _set(self, "args", args)
        _set(self, "_hash", hash((self.__class__.__name__, symbol, args)))

    def parts(self) -> tuple:
        return self.args

    def _rebuilt(self, parts: tuple):
        return self.__class__(self.symbol, parts)

    def _label(self) -> tuple:
        return (self.symbol,)


class _Binary(_Node):
    __slots__ = ()

    def __init__(self, lhs, rhs) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "_hash", hash((self.__class__.__name__, lhs, rhs)))

    def parts(self) -> tuple:
        return self.lhs, self.rhs

    def _rebuilt(self, parts: tuple):
        return self.__class__(*parts)


class _Constant(_Node):
    __slots__ = ()

    def __init__(self) -> None:
        _set(self, "_hash", hash(self.__class__.__name__))


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Const(_Leaf):
    index: int


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Var(_Leaf):
    index: int


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Func(_Application):
    symbol: str
    args: tuple["Term", ...]


Term = Union[Const, Var, Func]


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Top(_Constant):
    pass


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Bottom(_Constant):
    pass


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Predicate(_Application):
    symbol: str
    args: tuple[Term, ...]


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Equality(_Binary):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False, slots=True, init=False)
class And(_Binary):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Or(_Node):
    items: tuple["Formula", ...]

    def __init__(self, items: tuple) -> None:
        if not items:
            raise SchemaError("or", "disjunction lists must be nonempty")
        _set(self, "items", items)
        _set(self, "_hash", hash(("Or", items)))

    def parts(self) -> tuple:
        return self.items

    def _rebuilt(self, parts: tuple):
        return Or(parts)


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Exists(_Node):
    variable: int
    body: "Formula"

    def __init__(self, variable: int, body) -> None:
        _set(self, "variable", variable)
        _set(self, "body", body)
        _set(self, "_hash", hash(("Exists", variable, body)))

    def parts(self) -> tuple:
        return (self.body,)

    def _label(self) -> tuple:
        return (self.variable,)


Formula = Union[Top, Bottom, Predicate, Equality, And, Or, Exists]

TOP = Top()
BOTTOM = Bottom()


def free_variables(node) -> frozenset[int]:
    """Variables with a free occurrence in a formula or a term; the
    quantifier binds its variable."""
    if isinstance(node, Var):
        return frozenset((node.index,))
    if isinstance(node, Exists):
        return free_variables(node.body) - {node.variable}
    return frozenset().union(*map(free_variables, node.parts()))


term_variables = free_variables


def substitute(phi: Formula, pairs) -> Formula:
    """Simultaneous substitution of terms for free variables.

    Bound occurrences are untouched; if a replacement term would be captured
    by a quantifier (its variables include a binder whose scope the term
    enters), CaptureViolation is raised rather than silently renaming.
    A pair x := x is dropped, and a subtree in which nothing is replaced is
    returned as it is, the same object.
    """
    return substitute_term(phi, {x: t for x, t in dict(pairs).items()
                                 if not (isinstance(t, Var) and t.index == x)})


def substitute_term(node, mapping: dict[int, Term]):
    """`substitute` on a formula or a term, with its pairs as a map."""
    if not mapping:
        return node
    if isinstance(node, Var):
        return mapping.get(node.index, node)
    if isinstance(node, Exists):
        v = node.variable
        inner = {x: t for x, t in mapping.items() if x != v}
        # the body's free variables are computed only where a term could be
        # captured, and then raise or drop a pair: linear in the formula
        if any(v in free_variables(t) for t in inner.values()):
            live = free_variables(node.body)
            inner = {x: t for x, t in inner.items() if x in live}
            if any(v in free_variables(t) for t in inner.values()):
                raise CaptureViolation(v)
        body = substitute_term(node.body, inner)
        return node if body is node.body else Exists(v, body)
    parts = new = node.parts()
    for i, part in enumerate(parts):
        rebuilt = substitute_term(part, mapping)
        if rebuilt is not part:
            if new is parts:
                new = list(parts)
            new[i] = rebuilt
    return node if new is parts else node._rebuilt(tuple(new))


def format_term(t: Term) -> str:
    if isinstance(t, Const):
        return f"c{t.index}"
    if isinstance(t, Var):
        return f"x{t.index}"
    return f"{t.symbol}({','.join(map(format_term, t.args))})"


def format_formula(phi: Formula) -> str:
    """Canonical concrete syntax; parse_formula inverts it."""
    if isinstance(phi, Top):
        return "T"
    if isinstance(phi, Bottom):
        return "F"
    if isinstance(phi, Predicate):
        return f"{phi.symbol}({','.join(map(format_term, phi.args))})"
    if isinstance(phi, Equality):
        return f"({format_term(phi.lhs)} = {format_term(phi.rhs)})"
    if isinstance(phi, And):
        return f"({format_formula(phi.lhs)} & {format_formula(phi.rhs)})"
    if isinstance(phi, Or):
        if len(phi.items) == 2:
            return f"({format_formula(phi.items[0])} | {format_formula(phi.items[1])})"
        return f"V[{', '.join(map(format_formula, phi.items))}]"
    if isinstance(phi, Exists):
        return f"E x{phi.variable}. {format_formula(phi.body)}"
    raise TypeError(f"not a formula: {phi!r}")
