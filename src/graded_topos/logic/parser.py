"""Recursive-descent parser for the concrete formula syntax.

    formula := "T" | "F" | pred | eq | and | or | exists
    pred    := IDENT "(" term { "," term } ")"
    eq      := "(" term "=" term ")"
    and     := "(" formula "&" formula ")"
    or      := "(" formula "|" formula ")" | "V[" formula { "," formula } "]"
    exists  := "E" VAR "." formula
    term    := VAR | CONST | IDENT "(" term { "," term } ")"
    VAR     := "x" digits        CONST := "c" digits
    IDENT   := letter { letter | digit }

"T", "F", "E" and "V" double as ordinary identifiers when the lookahead
says so ("T(...)" is a predicate named T, "V[" opens a big disjunction).
Whitespace is insignificant. When a signature is supplied, predicate and
function arities are enforced and unknown symbols are rejected. Nesting
deeper than the interpreter's recursion limit is a FormulaSyntaxError, like
any other text that does not parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NoReturn

from ..errors import ArityMismatch, FormulaSyntaxError, UndeclaredSymbol
from .syntax import (
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

_TOKEN = re.compile(r"\s*(?:(?P<var>x\d+)|(?P<const>c\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
                    r"|(?P<punct>[()\[\],.&|=]))")

VAR_PATTERN = re.compile(r"x\d+\Z")
CONST_PATTERN = re.compile(r"c\d+\Z")
IDENT_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


def symbol_index(text: str) -> int | None:
    """N of a symbol written as one letter and the decimal digits of N
    ("x12", "c3"); None when the rest is not digits that `int` converts
    (`int` refuses more than `sys.get_int_max_str_digits()` of them)."""
    digits = text[1:]
    if not digits.isdecimal():
        return None
    try:
        return int(digits)
    except ValueError:
        return None


@dataclass(frozen=True)
class Signature:
    """Declared symbols: constant indices, function and predicate arities."""

    constants: frozenset[int]
    functions: Mapping[str, int]
    predicates: Mapping[str, int]


@dataclass
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaSyntaxError(len(text) - len(stripped), f"unexpected character {stripped[0]!r}")
        kind = m.lastgroup or "punct"
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, signature: Signature | None):
        self.tokens = _tokenize(text)
        self.signature = signature
        self.at = 0
        # at each '(' or '[', the first '=', '&' or '|' at its depth before it
        # closes, else None: one pass with a stack of the open brackets
        self.leading: list[str | None] = [None] * len(self.tokens)
        leading, opened = self.leading, []
        for k, tok in enumerate(self.tokens):
            if tok.text in "([":
                opened.append(k)
            elif tok.text in ")]":
                if opened:
                    opened.pop()
            elif opened and tok.text in ("=", "&", "|") and leading[opened[-1]] is None:
                leading[opened[-1]] = tok.text

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.at + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.at]
        if tok.kind != "end":
            self.at += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise FormulaSyntaxError(tok.position, f"expected {text!r}")
        return tok

    def fail(self, message: str) -> NoReturn:
        raise FormulaSyntaxError(self.peek().position, message)

    def index(self, tok: _Token) -> int:
        index = symbol_index(tok.text)
        if index is None:
            raise FormulaSyntaxError(tok.position, "symbol index has too many digits")
        return index

    # --- terms ---------------------------------------------------------

    def term(self) -> Term:
        tok = self.take()
        if tok.kind == "var":
            return Var(self.index(tok))
        if tok.kind == "const":
            index = self.index(tok)
            if self.signature is not None and index not in self.signature.constants:
                raise UndeclaredSymbol(tok.text)
            return Const(index)
        if tok.kind == "ident":
            return Func(tok.text, self.arguments(tok.text, self.signature and self.signature.functions))
        raise FormulaSyntaxError(tok.position, "expected a term")

    def arguments(self, symbol: str, declared: Mapping[str, int] | None) -> tuple[Term, ...]:
        """The arguments `( term {, term} )` of `symbol`, checked against
        the `declared` arities of its kind (none without a signature): an
        undeclared symbol before a wrong count."""
        self.expect("(")
        args = [self.term()]
        while self.peek().text == ",":
            self.take()
            args.append(self.term())
        self.expect(")")
        if declared is not None:
            if symbol not in declared:
                raise UndeclaredSymbol(symbol)
            if declared[symbol] != len(args):
                raise ArityMismatch(symbol, declared[symbol], len(args))
        return tuple(args)

    # --- formulas ------------------------------------------------------

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident":
            if self.peek(1).text == "(":
                self.take()
                declared = self.signature and self.signature.predicates
                return Predicate(tok.text, self.arguments(tok.text, declared))
            if tok.text == "T":
                self.take()
                return TOP
            if tok.text == "F":
                self.take()
                return BOTTOM
            if tok.text == "E" and self.peek(1).kind == "var":
                return self.exists()
            if tok.text == "V" and self.peek(1).text == "[":
                return self.big_or()
            self.fail(f"cannot start a formula with {tok.text!r}")
        if tok.text == "(":
            return self.parenthesized()
        self.fail("expected a formula")

    def exists(self) -> Formula:
        self.take()  # E
        var = self.take()
        self.expect(".")
        return Exists(self.index(var), self.formula())

    def big_or(self) -> Formula:
        self.take()  # V
        self.expect("[")
        items = [self.formula()]
        while self.peek().text == ",":
            self.take()
            items.append(self.formula())
        self.expect("]")
        return Or(tuple(items))

    def parenthesized(self) -> Formula:
        self.expect("(")
        # the first operator at this nesting depth decides the production
        if self.leading[self.at - 1] == "=":
            lhs_term = self.term()
            self.expect("=")
            rhs_term = self.term()
            self.expect(")")
            return Equality(lhs_term, rhs_term)
        lhs = self.formula()
        op = self.take()
        if op.text not in ("&", "|"):
            raise FormulaSyntaxError(op.position, "expected '&', '|' or '='")
        rhs = self.formula()
        self.expect(")")
        return And(lhs, rhs) if op.text == "&" else Or((lhs, rhs))


def _parse_whole(parser: _Parser, production: Callable[[], Any], name: str):
    try:
        result = production()
    except RecursionError:
        # the parser recurses once per nesting level; report a nesting deeper
        # than the interpreter allows as bad input rather than a crash
        raise FormulaSyntaxError(parser.peek().position,
                                 f"the {name} is nested too deeply") from None
    if parser.peek().kind != "end":
        parser.fail(f"trailing input after the {name}")
    return result


def parse_term(text: str, signature: Signature | None = None) -> Term:
    parser = _Parser(text, signature)
    return _parse_whole(parser, parser.term, "term")


def parse_formula(text: str, signature: Signature | None = None) -> Formula:
    parser = _Parser(text, signature)
    return _parse_whole(parser, parser.formula, "formula")
