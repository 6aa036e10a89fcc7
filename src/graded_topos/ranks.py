"""Grades coded as ranks in one table, and rank vectors as ints of level cuts.

A finite grade set with 0 and 1, sorted, codes each grade by its position
in the list, its rank. Ranking is an order-isomorphism that sends 0 to 0
and 1 to the top rank. Min, max and the Gödel arrow only compare grades,
so each one commutes with it: the min of two ranks codes the min of their
grades, and the arrow from rank a to rank b is the top when a <= b and b
otherwise. `GradeSet` is the one such table: the set L of a hom search
(`functors`) and the table of every kernel, which ranks grades by object
(`GradeSet.code`) and grade vectors as level cuts (`GradeSet.cuts`).

A fuzzy set, or a formula's grades over a list of assignments, is a vector
u of ranks over positions 0..s-1. It is stored as its level cuts,
cut_r = {i : u[i] >= r} for r = 1..top, side by side in one int: level r
at bits [(r-1)s, rs), position i of it at bit (r-1)s + i. This is the
resolution identity of fuzzy sets (Zadeh 1971): the cuts are nested, and
u[i] is the number of cuts holding i. The coding is unique, so equal
vectors are equal ints, and ints serve as dict keys and set members. Every
pointwise operation is then a few operations on the whole int:

- meet (pointwise min) is u & v, join (pointwise max) is u | v, since
  min(a, b) >= r iff a >= r and b >= r, and max likewise with or;
- graded inclusion, the inf over i of the arrow from u[i] to v[i], is the
  level of the lowest set bit of u & ~v, counted from 0, else the top
  (`inclusion`). Level s of u & ~v holds the positions with
  v[i] <= s < u[i]: the position where the inf is taken, m = v[i] < u[i],
  is in it at s = m, and any position in it at s has m <= v[i] <= s. So s
  is the least level that u & ~v meets, and a lower level has lower bits.
- ∃ over a coordinate of stride p in base n (the sup over each fibre of
  positions differing only in that coordinate) ORs the shifts of u right
  by k * p for k < n, keeps the fibre bases (coordinate 0) at every level
  (`spread(fibre_bases(...))`), and smears them back left. A right shift
  carries bits of level r+1 into level r, but only where the coordinate is
  nonzero, so the mask removes them: s is a multiple of p * n, so a bit at
  position i < k * p of level r+1 lands at position s + i - k * p of level
  r, whose coordinate is (i // p - k) mod n, in [n - k, n - 1] as
  0 <= i // p < k <= n - 1. No shift reaches two levels down, since
  k * p < s. A left shift of a base by k * p <= (n - 1) * p stays in its
  fibre, so in its level. Shifting by windows that double makes each of
  the two smears an OR of about log2(n) shifts, and a shift distributes
  over OR, so the result is the same OR of single shifts.
- The sup over the slowest coordinate onto the positions without it
  (`sup_out`) ORs the n blocks of each level and keeps the first block of
  each; bits carried down from the level above land past it.

Coding (`cuts_of`) runs in C over a byte per position while the ranks fit
in a byte, and otherwise groups the positions by rank; decoding
(`ranks_of`) finds each rank's positions in a bit string. Every operation
here takes O(positions * top) bits of memory, and time in proportion, with
a factor log2(n) for ∃, and a factor top for coding, decoding and
`sup_out`, which shift one level at a time in or out of the int (coding
past 255 ranks joins the levels in log2(top) rounds instead).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import lshift, rshift
from typing import TYPE_CHECKING, Iterable

from .errors import SchemaError
from .grades import Grade, ONE, ZERO

if TYPE_CHECKING:
    from .frames import GradedFrame
    from .systems import GradedSystem


@dataclass(frozen=True)
class GradeSet:
    """A finite set of grades with 0 and 1, sorted and duplicate-free, and
    `top`, the rank of 1; the constructor and `closure` check it, and `of`
    does not. It keeps the rank of each of its own objects by id (`code`):
    equality, hashing and repr read `grades` alone, and a copied or
    unpickled table indexes its own new objects."""

    grades: tuple[Grade, ...]

    def __post_init__(self) -> None:
        grades = tuple(self.grades)
        if tuple(sorted(set(grades))) != grades:
            raise SchemaError("grades", "must be sorted and duplicate-free")
        if not grades or grades[0] != ZERO or grades[-1] != ONE:
            raise SchemaError("grades", "must contain 0 and 1")
        self.__setstate__(grades)

    def __getstate__(self) -> tuple[Grade, ...]:
        return self.grades

    def __setstate__(self, grades: tuple[Grade, ...]) -> None:
        object.__setattr__(self, "grades", grades)
        object.__setattr__(self, "top", len(grades) - 1)
        object.__setattr__(self, "_placed", {id(g): r for r, g in enumerate(grades)})

    def __len__(self) -> int:
        return len(self.grades)

    @classmethod
    def of(cls, values: Iterable[Grade]) -> GradeSet:
        """The table of `values` with 0 and 1, unchecked: each distinct object
        of `values` is hashed once, into the set that sorts them."""
        table = cls.__new__(cls)
        table.__setstate__(tuple(sorted({ZERO, ONE}.union({id(g): g for g in values}.values()))))
        return table

    @classmethod
    def closure(cls, values: Iterable[Grade]) -> GradeSet:
        """The given grades together with 0 and 1 (`of`), checked."""
        return cls(cls.of(values).grades)

    @classmethod
    def for_frame(cls, frame: GradedFrame) -> GradeSet:
        return cls(frame.view.grades)

    @classmethod
    def for_system(cls, system: GradedSystem) -> GradeSet:
        """The table of the system's extents itself (`GradedSystem.extents`)."""
        return system.extents[0]

    def code(self, values: Iterable[Grade]) -> list[int]:
        """`rank_objects` through the table's own id table."""
        return _rank_by_id(self.grades, self._placed, values)

    def cuts(self, values: Iterable[Grade], size: int) -> list[int]:
        """Each `size` grades of `values` as level cuts, ranked in one pass."""
        codes = self.code(values)
        return [cuts_of(codes[k:k + size], self.top) for k in range(0, len(codes), size)]


def rank_objects(grades: tuple[Grade, ...], values: Iterable[Grade]) -> list[int]:
    """The number of `grades`, sorted and duplicate-free, below each of
    `values`, its rank when `grades` hold it: found by object in an id table
    of `grades`, else placed by value (`bisect_left`, which only compares)
    once per call for each other object. No grade is hashed (`Fraction`
    hashing is slow), and identity implies equality, so every rank is
    exact."""
    return _rank_by_id(grades, {id(g): r for r, g in enumerate(grades)}, values)


def _rank_by_id(grades: tuple[Grade, ...], placed: dict[int, int], values: Iterable[Grade]) -> list[int]:
    values = list(values)  # held, so no object's id is reused during the call
    ranks = list(map(placed.get, map(id, values)))
    if None in ranks:
        others: dict[int, int] = {}
        for k, g in enumerate(values):
            if ranks[k] is None:
                if id(g) not in others:
                    others[id(g)] = bisect_left(grades, g)
                ranks[k] = others[id(g)]
    return ranks


# table r turns a rank byte into the digit "1" if it is at least r, else "0"
_AT_LEAST = [bytes(48 + (v >= r) for v in range(256)) for r in range(256)]


def cuts_of(vector: Iterable[int], top: int) -> int:
    """The level cuts 1..top of a rank vector, side by side in one int."""
    if top < 256:
        # byte i is rank i, read from the right: bit i of each cut; the
        # cuts are shifted in from the top level down
        data = bytes(vector)[::-1]
        size, packed = len(data), 0
        for r in range(top, 0, -1):
            packed = packed << size | int(data.translate(_AT_LEAST[r]) or b"0", 2)
        return packed
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
    # neighbouring parts joined in rounds, each round doubling their width:
    # O(bits * log(top)) work where shifting in one level at a time costs
    # O(bits * top)
    cuts.reverse()
    width = size
    while len(cuts) > 1:
        cuts = [cuts[k] | cuts[k + 1] << width if k + 1 < len(cuts) else cuts[k]
                for k in range(0, len(cuts), 2)]
        width *= 2
    return cuts[0]


def ranks_of(u: int, size: int) -> tuple[int, ...]:
    """The rank vector over `size` positions whose level cuts are `u`."""
    if not size:
        return ()
    ranks = [0] * size
    full = (1 << size) - 1
    above = 0
    for r in range(-(-u.bit_length() // size), 0, -1):
        cut = u >> (r - 1) * size & full
        exact, above = cut & ~above, cut
        if exact:
            bits = format(exact, "b")[::-1]
            i = bits.find("1")
            while i >= 0:
                ranks[i] = r
                i = bits.find("1", i + 1)
    return tuple(ranks)


def spread(mask: int, size: int, top: int) -> int:
    """`mask`, a set of positions below `size`, at every level 1..top."""
    return _smear(mask, size, top, lshift)


def inclusion(u: int, v: int, size: int, top: int) -> int:
    """Graded inclusion of u in v over `size` positions: the least rank
    that v takes at a position where u exceeds it, else the top."""
    x = u & ~v
    return ((x & -x).bit_length() - 1) // size if x else top


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


def exists(u: int, stride: int, n: int, base: int) -> int:
    """The sup of u over each fibre of the coordinate of `stride` in base
    n, at every position of the fibre; `base` is `fibre_bases` at every
    level (`spread`)."""
    return _smear(_smear(u, stride, n, rshift) & base, stride, n, lshift)


def sup_out(u: int, size: int, n: int, top: int) -> int:
    """The sup of u, over size * n positions, over its slowest coordinate
    (n blocks of `size` positions), as a vector over `size` positions."""
    wide, full = size * n, (1 << size) - 1
    smeared, out = _smear(u, size, n, rshift), 0
    for k in range(top):
        out |= (smeared >> k * wide & full) << k * size
    return out

