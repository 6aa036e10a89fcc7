"""Grades coded as ranks, and the pointwise operations on rank vectors.

A finite grade set with 0 and 1, sorted, codes each grade by its position
in the list, its rank. Ranking is an order-isomorphism that sends 0 to 0
and 1 to the top rank. Min, max and the Gödel arrow only compare grades,
so each one commutes with it: the min of two ranks codes the min of their
grades, and the arrow from rank a to rank b is the top when a <= b and b
otherwise. A fuzzy set, or a formula's grades over a list of assignments,
is then a tuple of ints. Its pointwise operations compare ints, not
`Fraction`s, and a tuple of ranks hashes without hashing a `Fraction`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .grades import Grade, ONE, ZERO

Vector = tuple[int, ...]


class Ranks:
    """The rank table of a grade set: `grades` sorted with 0 and 1 added,
    `rank` the inverse map, `top` the rank of 1."""

    def __init__(self, values: Iterable[Grade]) -> None:
        self.grades = tuple(sorted({ZERO, ONE}.union(values)))
        self.rank = {g: r for r, g in enumerate(self.grades)}
        self.top = len(self.grades) - 1

    def code(self, values: Iterable[Grade]) -> Vector:
        return tuple(map(self.rank.__getitem__, values))

    def decode(self, vector: Iterable[int]) -> tuple[Grade, ...]:
        return tuple(map(self.grades.__getitem__, vector))

    def inclusion(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Graded inclusion of u in v, the inf of the Gödel arrow over the
        positions: the least v[i] where u[i] > v[i], else the top."""
        return min([b for a, b in zip(u, v) if a > b], default=self.top)


def meet(u: Sequence[int], v: Sequence[int]) -> Vector:
    """Pointwise min."""
    return tuple(map(min, u, v))


def join(*vectors: Sequence[int]) -> Vector:
    """Pointwise max of one or more vectors."""
    return tuple(map(max, *vectors)) if len(vectors) > 1 else tuple(vectors[0])
