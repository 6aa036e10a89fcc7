from .parser import Signature, parse_formula, parse_term
from .semantics import (
    Assignment,
    EMPTY_ASSIGNMENT,
    Interpretation,
    sat_grade,
    sequent_grade,
    theorem2_suite,
)
from .syntax import (
    And,
    BOTTOM,
    Bottom,
    Const,
    Equality,
    Exists,
    Formula,
    Func,
    Or,
    Predicate,
    TOP,
    Term,
    Top,
    Var,
    format_formula,
    format_term,
    free_variables,
    substitute,
    substitute_term,
    term_variables,
)

__all__ = [
    "And", "Assignment", "BOTTOM", "Bottom", "Const", "EMPTY_ASSIGNMENT",
    "Equality", "Exists", "Formula", "Func", "Interpretation", "Or",
    "Predicate", "Signature", "TOP", "Term", "Top", "Var",
    "format_formula", "format_term", "free_variables", "parse_formula",
    "parse_term", "sat_grade", "sequent_grade", "substitute", "substitute_term",
    "term_variables", "theorem2_suite",
]
