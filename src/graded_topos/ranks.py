"""Grades coded as ranks, and rank vectors coded as their level cuts.

A finite grade set with 0 and 1, sorted, codes each grade by its position
in the list, its rank. Ranking is an order-isomorphism that sends 0 to 0
and 1 to the top rank. Min, max and the Gödel arrow only compare grades,
so each one commutes with it: the min of two ranks codes the min of their
grades, and the arrow from rank a to rank b is the top when a <= b and b
otherwise.

A fuzzy set, or a formula's grades over a list of assignments, is a vector
of ranks over positions 0..s-1. It is stored as its level cuts (`Cuts`):
cut_r = {i : u[i] >= r} for r = 1..top, each cut one int whose bit i is
position i. This is the resolution identity of fuzzy sets (Zadeh 1971):
the cuts are nested, and u[i] is the number of cuts holding i. Every
pointwise operation is then a few word operations per level:

- meet (pointwise min) is AND per level, join (pointwise max) is OR;
- graded inclusion, the inf over i of the arrow from u[i] to v[i], is the
  least s with U_{s+1} & ~V_{s+1} != 0, else the top. That set holds the
  positions with v[i] <= s < u[i]: the position where the inf is taken,
  m = v[i] < u[i], is in it at s = m, and any position in it at s has
  m <= v[i] <= s. (Its positions with v[i] = s, U_{s+1} & V_s & ~V_{s+1},
  are nonempty at the same least s.)
- ∃ over a coordinate of stride p in base n (the sup over each fibre of
  positions differing only in that coordinate) ORs the n shifts of a
  level by multiples of p, keeps the fibre bases (coordinate 0), and
  smears them back over the fibre. Shifting by windows that double makes
  each of the two an OR of about log2(n) shifts.

Coding (`cuts_of`) runs in C over a byte per position while the ranks fit
in a byte, and otherwise groups the positions by rank; decoding
(`ranks_of`) finds each rank's positions in a bit string. Every operation
here takes O(positions) bits of memory per level, and time in proportion,
with a factor log2(n) for ∃.

The cut coding of a vector is unique, so equal vectors have equal cuts
and cut tuples serve as dict keys and set members.
"""

from __future__ import annotations

from operator import and_, lshift, or_, rshift
from typing import Iterable

from .grades import Grade, ONE, ZERO

Cuts = tuple[int, ...]


class Ranks:
    """The rank table of a grade set: `grades` sorted with 0 and 1 added,
    `rank` the inverse map, `top` the rank of 1."""

    def __init__(self, values: Iterable[Grade]) -> None:
        self.grades = tuple(sorted({ZERO, ONE}.union(values)))
        self.rank = {g: r for r, g in enumerate(self.grades)}
        self.top = len(self.grades) - 1

    def code(self, values: Iterable[Grade]) -> tuple[int, ...]:
        return tuple(map(self.rank.__getitem__, values))

    def decode(self, vector: Iterable[int]) -> tuple[Grade, ...]:
        return tuple(map(self.grades.__getitem__, vector))

    def cuts(self, values: Iterable[Grade]) -> Cuts:
        """The level cuts of a grade vector."""
        return cuts_of(self.code(values), self.top)


# table r turns a rank byte into the digit "1" if it is at least r, else "0"
_AT_LEAST = [bytes(48 + (v >= r) for v in range(256)) for r in range(256)]


def cuts_of(vector: Iterable[int], top: int) -> Cuts:
    """The level cuts 1..top of a rank vector."""
    if top < 256:
        # byte i is rank i, read from the right: bit i of each cut
        data = bytes(vector)[::-1]
        return tuple([int(data.translate(_AT_LEAST[r]) or b"0", 2) for r in range(1, top + 1)])
    # the positions of each rank, then the cuts from the top down; a level
    # no position takes shares its cut with the level above
    where: dict[int, list[int]] = {}
    size = 0
    for size, r in enumerate(vector, 1):
        where.setdefault(r, []).append(size - 1)
    cuts = []
    below = 0
    for r in range(top, 0, -1):
        if r in where:
            bits = bytearray((size + 7) // 8)
            for i in where[r]:
                bits[i >> 3] |= 1 << (i & 7)
            below |= int.from_bytes(bits, "little")
        cuts.append(below)
    return tuple(reversed(cuts))


def ranks_of(cuts: Cuts, size: int) -> tuple[int, ...]:
    """The rank vector over `size` positions whose level cuts are `cuts`."""
    ranks = [0] * size
    above = 0
    for r in range(len(cuts), 0, -1):
        exact, above = cuts[r - 1] & ~above, cuts[r - 1]
        if exact:
            bits = format(exact, "b")[::-1]
            i = bits.find("1")
            while i >= 0:
                ranks[i] = r
                i = bits.find("1", i + 1)
    return tuple(ranks)


def meet(u: Cuts, v: Cuts) -> Cuts:
    """Pointwise min."""
    return tuple(map(and_, u, v))


def join(first: Cuts, *rest: Cuts) -> Cuts:
    """Pointwise max of one or more vectors."""
    for v in rest:
        first = tuple(map(or_, first, v))
    return first


def inclusion(u: Cuts, v: Cuts) -> int:
    """Graded inclusion of u in v: the least rank s that v takes at a
    position where u exceeds it, else the top."""
    for s, (a, b) in enumerate(zip(u, v)):
        if a & ~b:
            return s
    return len(u)


def _smear(c: int, step: int, n: int, shift) -> int:
    """c OR its shifts by k * step for k = 1..n-1, `shift` being rshift or
    lshift: after the loop, c covers the window [0, width) of shifts, and
    [0, width) and [n - width, n) cover [0, n)."""
    width = 1
    while 2 * width <= n:
        c |= shift(c, width * step)
        width *= 2
    if width < n:
        c |= shift(c, (n - width) * step)
    return c


def fibre_bases(size: int, stride: int, n: int) -> int:
    """The positions among `size` whose base-n coordinate of `stride` is 0.
    `size` is a multiple of stride * n."""
    period = stride * n
    return _smear((1 << stride) - 1, period, size // period, lshift)


def sup_out(u: Cuts, stride: int, n: int, base: int) -> Cuts:
    """The sup of u over each fibre of the coordinate of `stride` in base
    n, at the fibre's base: the positions of the mask `base`."""
    return tuple([_smear(c, stride, n, rshift) & base for c in u])


def exists(u: Cuts, stride: int, n: int, base: int) -> Cuts:
    """The sup of u over each fibre of the coordinate of `stride` in base
    n, at every position of the fibre; `base` is `fibre_bases`."""
    return tuple([_smear(c, stride, n, lshift) for c in sup_out(u, stride, n, base)])
