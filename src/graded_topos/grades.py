"""Exact truth values in [0, 1] and the operations of the Gödel chain.

A Grade is a `fractions.Fraction` restricted to [0, 1]: exact, immutable,
hashable, compared by value. Every other module does its arithmetic through
the handful of functions here, so no floating point can sneak in anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import GradeRangeError

Grade = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

GradeLike = Union[Grade, int, str]

# The longest grade literal read, in characters, and the largest exponent.
# A grade whose "p/q" form is longer is refused too, so it can be written back.
MAX_LITERAL = 1000


def grade(value: GradeLike, denominator: int | None = None) -> Grade:
    """Build a Grade from a Fraction, an int, "p/q" text, or decimal text.

    Decimal strings are read exactly ("0.3" is 3/10, never a float). Values
    outside [0, 1], and literals beyond `MAX_LITERAL`, raise GradeRangeError.
    """
    if denominator is not None:
        g = Fraction(value, denominator)  # type: ignore[arg-type]
    elif isinstance(value, Fraction):
        g = value
    elif isinstance(value, int):
        g = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        try:
            if len(text) > MAX_LITERAL or abs(int(text.lower().partition("e")[2] or 0)) > MAX_LITERAL:
                raise GradeRangeError(f"grade literal beyond {MAX_LITERAL} characters or exponent")
            g = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise GradeRangeError(f"not a rational: {value!r}") from exc
    else:
        raise GradeRangeError(f"cannot make a grade from {type(value).__name__}")
    if g < ZERO or g > ONE:
        raise GradeRangeError(f"{g} is outside [0, 1]")
    if isinstance(value, str) and len(format_grade(g)) > MAX_LITERAL:
        raise GradeRangeError(f"grade {value!r} is longer than {MAX_LITERAL} characters as p/q")
    return g


def format_grade(g: Grade) -> str:
    """Canonical "p/q" form, lowest terms ("0/1" and "1/1" included)."""
    return f"{g.numerator}/{g.denominator}"


def meet(a: Grade, b: Grade) -> Grade:
    """min of two grades."""
    return a if a <= b else b


def join(a: Grade, b: Grade) -> Grade:
    """max of two grades."""
    return a if a >= b else b


def godel_arrow(a: Grade, b: Grade) -> Grade:
    """Residuum of min on the chain: 1 when a <= b, otherwise b."""
    return ONE if a <= b else b


def inf(values: Iterable[Grade]) -> Grade:
    """Greatest lower bound of a finite family; the empty inf is 1."""
    result = ONE
    for v in values:
        if v < result:
            result = v
    return result


def sup(values: Iterable[Grade]) -> Grade:
    """Least upper bound of a finite family; the empty sup is 0."""
    result = ZERO
    for v in values:
        if v > result:
            result = v
    return result
