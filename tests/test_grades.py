from fractions import Fraction as F

import pytest
from hypothesis import given

from conftest import small_grades
from graded_topos.errors import GradeRangeError
from graded_topos.grades import (
    MAX_LITERAL,
    ONE,
    ZERO,
    format_grade,
    godel_arrow,
    grade,
    inf,
    join,
    meet,
    sup,
)


@pytest.mark.parametrize("a, b, expected", [
    (F(1, 2), F(1, 2), F(1, 2)),
    (F(3, 10), F(7, 10), F(3, 10)),
    (F(0), F(1), F(0)),
])
def test_meet_examples(a, b, expected):
    assert meet(a, b) == expected


@pytest.mark.parametrize("a, b, expected", [
    (F(1, 2), F(1, 2), F(1, 2)),
    (F(3, 10), F(7, 10), F(7, 10)),
    (F(0), F(1), F(1)),
])
def test_join_examples(a, b, expected):
    assert join(a, b) == expected


@pytest.mark.parametrize("a, b, expected", [
    (F(1, 2), F(1, 2), F(1)),      # 1 when a <= b
    (F(7, 10), F(3, 10), F(3, 10)),  # b when a > b
    (F(0), F(3, 10), F(1)),
])
def test_godel_arrow_examples(a, b, expected):
    assert godel_arrow(a, b) == expected


def test_empty_bounds_conventions():
    assert inf([]) == ONE
    assert sup([]) == ZERO
    assert inf([F(1, 2), F(3, 10), F(1)]) == F(3, 10)
    assert sup([F(1, 2), F(3, 10)]) == F(1, 2)


def test_parsing_is_exact():
    assert grade("0.3") == F(3, 10)
    assert grade("3/10") == F(3, 10)
    assert grade("0.3") == grade("3/10")
    assert grade(1) == ONE
    assert grade("0.125") == F(1, 8)


def test_parse_rejects_out_of_range_and_garbage():
    with pytest.raises(GradeRangeError):
        grade("3/2")
    with pytest.raises(GradeRangeError):
        grade("-1/2")
    with pytest.raises(GradeRangeError):
        grade("abc")
    with pytest.raises(GradeRangeError):
        grade([])  # type: ignore[arg-type]


@pytest.mark.parametrize("literal", ["1e999999", "1e-5000", "1e-99999999"])
def test_huge_literals_are_refused_before_parsing(literal):
    with pytest.raises(GradeRangeError, match="exponent"):
        grade(literal)


def test_every_accepted_literal_round_trips_at_the_bound():
    # "1e-997" is 1/10^997, whose p/q form is exactly MAX_LITERAL characters
    for literal in ("1e-997", "1/" + "9" * (MAX_LITERAL - 2)):
        g = grade(literal)
        assert len(format_grade(g)) == MAX_LITERAL
        assert grade(format_grade(g)) == g
    for literal in ("1e-998", "1/" + "9" * (MAX_LITERAL - 1), " " + "0" * MAX_LITERAL + "1 "):
        with pytest.raises(GradeRangeError):
            grade(literal)


def test_format_is_lowest_terms():
    assert format_grade(grade("0.5")) == "1/2"
    assert format_grade(ZERO) == "0/1"
    assert format_grade(ONE) == "1/1"
    assert format_grade(F(2, 4)) == "1/2"


@given(small_grades(), small_grades())
def test_residuation_boundary(a, b):
    assert (godel_arrow(a, b) == ONE) == (a <= b)


@given(small_grades(), small_grades())
def test_modus_ponens_inequality(a, b):
    assert meet(a, godel_arrow(a, b)) <= b


@given(small_grades(), small_grades(), small_grades())
def test_arrow_distributes_over_meet(a, b, c):
    assert godel_arrow(a, meet(b, c)) == meet(godel_arrow(a, b), godel_arrow(a, c))


@given(small_grades(), small_grades())
def test_operations_stay_in_the_unit_interval(a, b):
    for value in (meet(a, b), join(a, b), godel_arrow(a, b)):
        assert ZERO <= value <= ONE
