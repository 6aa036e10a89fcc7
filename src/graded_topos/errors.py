"""Exception types shared across the package.

Structural mistakes (mixing universes, malformed files, unbound symbols)
raise; failed axiom/law checks do not raise, they return Violation values
(see the check_* functions of the individual modules).
"""

from __future__ import annotations


class GradedToposError(Exception):
    """Base class for all errors raised by this package."""


class GradeRangeError(GradedToposError):
    """A grade fell outside [0, 1] or could not be parsed."""


class MixedUniverse(GradedToposError):
    """Operands live over different universes."""


class MixedCarrier(GradedToposError):
    """Frame homomorphisms with incompatible endpoints were combined."""


class MixedStructure(GradedToposError):
    """System morphisms with incompatible endpoints were combined."""


class NotContinuous(GradedToposError):
    """A map expected to be continuous is not."""


class NoPoints(GradedToposError):
    """Hom enumeration produced no points for a system."""


class GradeSetTooSmall(GradedToposError):
    """A grade set is missing grades required by the construction."""


class Overflow(GradedToposError):
    """A construction exceeded its size cap: a topology closure beyond its
    opens, or a hom enumeration beyond its search budget."""


class ParseError(GradedToposError):
    """A file could not be parsed at all."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class SchemaError(GradedToposError):
    """A parsed file violates the expected schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class FormulaSyntaxError(GradedToposError):
    """Formula text could not be parsed; carries the offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class ArityMismatch(GradedToposError):
    """A symbol was applied to the wrong number of arguments."""

    def __init__(self, symbol: str, expected: int, got: int):
        super().__init__(f"{symbol}: expected {expected} argument(s), got {got}")
        self.symbol = symbol


class UnboundVariable(GradedToposError):
    """Evaluation met a variable the assignment does not cover."""

    def __init__(self, index: int):
        super().__init__(f"x{index} is not assigned")
        self.index = index


class UndeclaredSymbol(GradedToposError):
    """A constant, function or predicate symbol is not in the signature."""

    def __init__(self, symbol: str):
        super().__init__(symbol)
        self.symbol = symbol


class CaptureViolation(GradedToposError):
    """A substitution would move a term into the scope of a binder."""

    def __init__(self, variable: int):
        super().__init__(f"substituting into the scope binding x{variable}")
        self.variable = variable
