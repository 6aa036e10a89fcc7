"""Graded frames and graded frame homomorphisms.

A graded frame carries a finite set of elements, a top, a binary meet, a
join defined on every subset, and a grade-valued relation satisfying nine
axioms. A `GradedFrame` stores its carrier (opaque hashables: strings from
files, opens from a space, grades in a chain) and one integer view of the
rest (`FrameView`), which every checker reads; the element-keyed meet and
relation tables are decoded from it on first read. Axioms over pairs and
triples hold on every pair and triple, decided on bitmasks of the view's
rows and columns, and the subset-indexed ones (axioms 7-9, join
preservation by homs) on the view's masks, exactly at
every size: the empty set, the singletons and the pairs decide every subset
of a frame built in memory, whose join folds its pair joins, and of a join
table that folds on the lowest member of each subset; any other table is
checked on every subset (the induction is in `check_frame`).

`frame_from_space` builds the view from the level cuts of the opens' rank
vectors, one int per open (`GradedSpace.ranked`): meet is AND, pair joins
OR, and graded inclusion the level of the lowest set bit of u & ~v, else
the top (`ranks`). That is exact: the three operations only compare
grades, and ranking is an order-isomorphism fixing 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property, reduce
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

from .checks import Violation, mask_elements, mask_steps
from .errors import MixedCarrier, SchemaError
from .fuzzy_sets import full_set
from .grades import Grade, ONE, ZERO
from .ranks import GradeSet, cuts_of, inclusion, rank_objects
from .spaces import GradedSpace, _show

MeetTable = Mapping[tuple[Hashable, Hashable], Hashable]
RelationTable = Mapping[tuple[Hashable, Hashable], Grade]


@dataclass(frozen=True)
class FrameView:
    """A frame coded as integers, the one form a `GradedFrame` stores and
    every checker reads. Elements are carrier positions; grades are ranks in
    `grades`, the sorted relation grades with 0 and 1, so the top rank is 1.
    The axioms and clauses take only min, max, inf, <= and equality with 1
    of grades, which ranks keep, so verdicts on ranks are exact. `joins[p]`
    is the join of `masks[p]`, or None outside the carrier. `table` is a
    table frame's join of every subset by mask, None for any other frame."""

    index: Mapping[Hashable, int]
    meet: list[list[int]]
    grades: tuple[Grade, ...]
    rel: list[list[int]]
    top: int
    joins: list[int | None]
    table: list[int] | None

    @property
    def bottom(self) -> int:
        return self.joins[0]

    @cached_property
    def masks(self) -> list[int]:
        """Every subset for 2^n `joins` (a table failing the lowest-member fold), else the pairs."""
        n = len(self.index)
        return list(range(1 << n)) if len(self.joins) == 1 << n else list(_pairs(n))

    @cached_property
    def folds(self) -> bool:
        """join(S + d) = join{join S, d} for all S and d: true without a join
        table, checked with one by an n * 2^n pass on first read."""
        table = self.table
        return table is None or all(
            [table[m | 1 << d] for m in range(len(table))] == [table[1 << j | 1 << d] for j in table]
            for d in range(len(self.index)))

    def decide(self, check: Callable[[FrameView], Violation | None]) -> Violation | None:
        """`check` run on this view's masks. When a table frame is decided on
        its pairs and the pair run finds a violation, `check` runs again on
        every subset to name it, so the witness is the all-mask loop's."""
        bad = check(self)
        if bad is None or self.table is None or len(self.joins) == len(self.table):
            return bad
        return check(replace(self, joins=self.table))


@cache
def _pairs(n: int) -> dict[int, int]:
    """The position of each pair mask of n elements (empty set, singletons, pairs), ascending."""
    masks = sorted({0} | {1 << i | 1 << j for i in range(n) for j in range(i, n)})
    return {mask: p for p, mask in enumerate(masks)}


def _fold(joins: list[int | None], position: Mapping[int, int], mask: int) -> int | None:
    """The join of the subset `mask` folded from the empty join, lowest
    member first, by the pair joins `joins` at `position`; None once a
    step leaves the carrier."""
    joined = joins[0]
    while mask and joined is not None:
        low = mask & -mask
        mask ^= low
        joined = joins[position[1 << joined | low]]
    return joined


def label_mask(labels: Iterable[Hashable], bits: Mapping[Hashable, int]) -> int:
    """The bitmask of a join table key: the sum of its labels' bits in
    `bits`, which maps each carrier label to 1 << its position. A repeated
    label carries, so the mask then has fewer bits than the key has labels."""
    try:
        return sum(map(bits.__getitem__, labels))
    except KeyError:
        raise SchemaError("join", "join table key is not a subset of the carrier") from None


def _tables(items: tuple, top: Hashable, meet_table: MeetTable, relation: RelationTable) -> tuple:
    """The one validator of element-keyed tables: a non-empty, distinct
    carrier holding the top, and at every pair a meet in the carrier and a
    relation entry. Returns the view's index, meet, grades, rel and top."""
    if not items:
        raise SchemaError("carrier", "must be non-empty")
    index: dict[Hashable, int] = {}
    for i, a in enumerate(items):
        if index.setdefault(a, i) != i:
            raise SchemaError("carrier", f"duplicate element {_show(a)}")
    if top not in index:
        raise SchemaError("top", f"{_show(top)} is not in the carrier")
    for a in items:
        for b in items:
            if (a, b) not in meet_table:
                raise SchemaError("meet", f"missing entry for ({_show(a)}, {_show(b)})")
            if meet_table[(a, b)] not in index:
                raise SchemaError("meet", f"value at ({_show(a)}, {_show(b)}) is outside the carrier")
            if (a, b) not in relation:
                raise SchemaError("relation", f"missing entry for ({_show(a)}, {_show(b)})")
    # file grades repeat a few objects, each ranked once (`GradeSet.code`)
    grades = [relation[(a, b)] for a in items for b in items]
    ranks, n = GradeSet.of(grades), len(items)
    rel = ranks.code(grades)
    return (index, [[index[meet_table[(a, b)]] for b in items] for a in items], ranks.grades,
            [rel[k:k + n] for k in range(0, n * n, n)], index[top])


@dataclass(frozen=True, eq=False)
class GradedFrame:
    """A carrier and its integer view (`FrameView`), the one form a frame
    stores; compared by identity (use the check functions for semantic
    questions). A table frame's `join_table[mask]` is the carrier position
    of the join of the subset `mask` (bit i for `carrier[i]`). `_homs` is
    `functors.enumerate_point_homs`'s slot for the frame's hom-system over
    the last grade set it searched."""

    carrier: tuple[Hashable, ...]
    view: FrameView = field(repr=False)
    _homs: tuple | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.carrier)

    def __contains__(self, a: Hashable) -> bool:
        return a in self.view.index

    @property
    def top(self) -> Hashable:
        return self.carrier[self.view.top]

    @property
    def bottom(self) -> Hashable:
        """The join of the empty subset."""
        return self.carrier[self.view.bottom]

    @property
    def join_table(self) -> list[int] | None:
        return self.view.table

    @cached_property
    def meet_table(self) -> MeetTable:
        """The meet of every pair, read-only, decoded on first read."""
        items = self.carrier
        return MappingProxyType({(a, b): items[m] for a, row in zip(items, self.view.meet)
                                 for b, m in zip(items, row)})

    @cached_property
    def relation(self) -> RelationTable:
        """The grade of every pair, read-only, decoded on first read."""
        items, grades = self.carrier, self.view.grades
        return MappingProxyType({(a, b): grades[r] for a, row in zip(items, self.view.rel)
                                 for b, r in zip(items, row)})

    def meet(self, a: Hashable, b: Hashable) -> Hashable:
        return self.meet_table[(a, b)]

    def join_at(self, mask: int) -> int | None:
        """The carrier position of the join of the subset `mask`, or None
        outside the carrier: the table's entry, or the pair joins folded."""
        v, position = self.view, _pairs(len(self.carrier))
        if v.table is not None:
            return v.table[mask]
        if mask in position:
            return v.joins[position[mask]]
        return _fold(v.joins, position, mask)

    def join_fn(self, subset: frozenset) -> Hashable | None:
        """The join of a subset of the carrier by `join_at`, or None."""
        joined = self.join_at(sum(1 << self.view.index[a] for a in subset))
        return None if joined is None else self.carrier[joined]

    @classmethod
    def from_tables(cls, carrier: Iterable[Hashable], top: Hashable, meet_table: MeetTable,
                    join_table: Mapping[frozenset, Hashable], relation: RelationTable) -> GradedFrame:
        """Frame whose join is given by an explicit total table over subsets,
        converted once to the bitmask table `from_masks` takes."""
        items = tuple(carrier)
        bits = {a: 1 << i for i, a in enumerate(items)}
        return cls.from_masks(items, top, meet_table,
                              {label_mask(s, bits): v for s, v in join_table.items()}, relation)

    @classmethod
    def from_masks(cls, carrier: Iterable[Hashable], top: Hashable, meet_table: MeetTable,
                   join_table: Mapping[int, Hashable] | list[Hashable], relation: RelationTable) -> GradedFrame:
        """Frame whose join table is keyed by subset bitmask over carrier
        positions (bit i for the i-th element), or is a list indexed by mask
        of values already checked to be carrier elements (as
        `serialization.frame_from_json` hands it over), stored as a list of
        positions and read on its pairs if it passes the lowest-member fold,
        join S = join{join(S - low), low} with low the lowest member of S."""
        items = tuple(carrier)
        n = len(items)
        if len(join_table) != 1 << n:
            raise SchemaError("join", f"join table must cover all {1 << n} subsets")
        index = {a: i for i, a in enumerate(items)}
        if isinstance(join_table, list):
            table = list(map(index.__getitem__, join_table))
        else:
            table = [0] * (1 << n)
            for mask, v in join_table.items():
                if mask >> n:
                    raise SchemaError("join", "join table key is not a subset of the carrier")
                if v not in index:
                    raise SchemaError("join", f"join value {_show(v)} is outside the carrier")
                table[mask] = index[v]
        folds = [table[1 << table[m & m - 1] | m & -m] for m in range(1, 1 << n)] == table[1:]
        joins = [table[mask] for mask in _pairs(n)] if folds else table
        return cls(items, FrameView(*_tables(items, top, meet_table, relation), joins, table))

    @classmethod
    def from_join_fn(cls, carrier: Iterable[Hashable], top: Hashable, meet_table: MeetTable,
                     join_fn: Callable[[frozenset], Hashable], relation: RelationTable) -> GradedFrame:
        """Frame whose join folds a binary join, read off `join_fn` on the
        empty set, the singletons and the pairs only. The empty join must lie
        in the carrier; a pair join outside it fails `check_frame` at join closure."""
        items = tuple(carrier)
        fields = _tables(items, top, meet_table, relation)
        joins = [fields[0].get(join_fn(frozenset(mask_elements(mask, items)))) for mask in _pairs(len(items))]
        if joins[0] is None:
            raise SchemaError("join", "join of the empty set is outside the carrier")
        return cls(items, FrameView(*fields, joins, None))


def frame_from_space(space: GradedSpace) -> GradedFrame:
    """The frame of opens: meet is intersection, join is union, the relation
    is graded inclusion, top is the constant-1 open. A space that lacks the
    top, a pairwise intersection or the empty open is refused; one that
    lacks a pairwise union fails `check_frame` at join closure.

    The frame is built once per space: the first call that succeeds keeps
    it on the space, and every later call returns that one frame, so a
    space's system and the morphisms lifted to it share it. A refused space
    keeps nothing and is refused again on the next call."""
    if space._frame is not None:  # type: ignore[attr-defined]
        return space._frame  # type: ignore[attr-defined]
    opens, n = space.opens, len(space.opens)
    ranks, rows = space.ranked
    size, most = len(space.universe), ranks.top
    position = {row: i for i, row in enumerate(rows)}
    top = position.get((1 << size * most) - 1)
    if top is None:
        raise SchemaError("top", f"{_show(full_set(space.universe))} is not in the carrier")
    meet_idx = [[position.get(a & b) for b in rows] for a in rows]
    for a, row in zip(opens, meet_idx):
        if None in row:
            raise SchemaError("meet", f"value at ({_show(a)}, {_show(opens[row.index(None)])}) "
                                      "is outside the carrier")
    joins = [position.get(rows[(m & -m).bit_length() - 1] | rows[m.bit_length() - 1] if m else 0)
             for m in _pairs(n)]
    if joins[0] is None:
        raise SchemaError("join", "join of the empty set is outside the carrier")
    # ranked in the relation's own grades, as `from_masks` ranks a file's
    rel = [[inclusion(a, b, size, most) for b in rows] for a in rows]
    used = sorted({0, most}.union(*rel))
    rerank = {r: k for k, r in enumerate(used)}
    frame = GradedFrame(opens, FrameView(
        dict(zip(opens, range(n))), meet_idx, tuple(ranks.grades[r] for r in used),
        [list(map(rerank.__getitem__, row)) for row in rel], top, joins, None))
    object.__setattr__(space, "_frame", frame)
    return frame


def chain_frame(values: Iterable[Grade]) -> GradedFrame:
    """The linear frame on a finite grade set: meet is min, join is max with
    empty join 0, and the relation is the Gödel arrow, valued in the chain."""
    carrier = tuple(sorted(set(values)))
    if not carrier or carrier[0] != ZERO or carrier[-1] != ONE:
        raise SchemaError("grades", "a grade chain must contain 0 and 1")
    n = len(carrier)
    return GradedFrame(carrier, FrameView(
        dict(zip(carrier, range(n))), [[min(i, j) for j in range(n)] for i in range(n)], carrier,
        [[n - 1 if i <= j else j for j in range(n)] for i in range(n)], n - 1,
        [max(m.bit_length() - 1, 0) for m in _pairs(n)], None))


def finite_meet(frame: GradedFrame, subset: Iterable[Hashable]) -> Hashable:
    """Fold of the binary meet; the empty meet is the top."""
    return reduce(frame.meet, sorted(subset, key=frame.view.index.__getitem__), frame.top)


def check_frame(frame: GradedFrame) -> Violation | None:
    """Verify the meet-semilattice laws and then the nine frame axioms;
    returns the first violation found, or None.

    The laws over pairs and triples, and axioms 8 and 9, are decided in
    O(n^2) operations on bitmasks, or O(masks) for axiom 8. When the test
    of a block of laws fails, the loop over every instance of that block
    runs to name its first failing instance, in the loop's order; the loop
    is the definition, and the test only says whether the loop would find
    one. Write R for the relation in ranks 0..one, and code each row
    R(i, -) and column R(-, j) as one int of level cuts over the carrier
    (`ranks`): P[i] has bit (r - 1) * n + j set iff R(i, j) >= r, and C[j]
    bit (r - 1) * n + i.

    - Meet-semilattice. Let the meet be idempotent and commutative, and put
      x <= y iff x meet y = x, with down(y) the set of such x. The meet is
      associative iff for all a and b: (a) a meet b <= a, (b) b <= a gives
      down(b) within down(a), and (c) down(a) & down(b) lies within
      down(a meet b). An associative meet makes <= the order of a
      semilattice with a meet b the glb of a and b, so (a)-(c) hold.
      Conversely, <= is reflexive by idempotence, antisymmetric by
      commutativity and transitive by (b), so a partial order; a meet b is
      a lower bound of a and b by (a) and commutativity, and above every
      lower bound by (c), so it is glb{a, b}, and (a meet b) meet c and
      a meet (b meet c) are both glb{a, b, c}.
    - Axiom 3, min(R(i, j), R(j, k)) <= R(i, k), holds iff every level cut
      of R is transitive (Zadeh 1971, "Similarity relations and fuzzy
      orderings"): at each level r <= R(i, j), the cut of row j lies
      within that of row i. So P[j] & ~P[i] has no bit in levels
      1..R(i, j), the bits below R(i, j) * n.
    - Axiom 6, min(R(i, j), R(i, k)) = R(i, j meet k) for all i, says at
      each level r that R(i, j) >= r and R(i, k) >= r iff
      R(i, j meet k) >= r: C[j meet k] = C[j] & C[k].
    - Axiom 8, R(join S, b) = inf of R(a, b) over a in S for every b, says
      P[join S] is the AND of P[a] over S, every bit for the empty S. The
      masks it runs over are each built from a smaller one by a member c,
      so it holds on all of them iff P[join 0] is every bit and
      P[join S] = P[join(S - c)] & P[c] on each: by induction on the
      masks, either form makes P[join(S - c)] the AND over S - c.
    - Axiom 9 is decided once axioms 1-8 and join closure pass on the
      masks. Then the carrier is a finite lattice under a <= b iff
      R(a, b) = 1: a partial order by axioms 1-3, with glb a meet b by
      axioms 4 and 6, lub join S by axioms 7 and 8, and least element the
      empty join. On such a lattice, axiom 9 on the masks holds iff the
      lattice is distributive: the pairs give the distributive law, and
      in a distributive lattice the meet distributes over every finite
      join. By Birkhoff's representation theorem (Birkhoff 1937), a finite
      lattice is distributive iff D(x join y) = D(x) | D(y) for all x and
      y, where D(x) is the set of join-irreducibles below x: x |-> D(x) is
      injective and keeps meets, so keeping joins makes it a lattice
      embedding into a powerset; conversely, in a distributive lattice a
      join-irreducible below x join y is below x or below y. An element is
      join-irreducible iff it is not the join of the elements strictly
      below it (the bottom is the empty join of those).
    - Axioms 1, 2, 4 and 5 are conditions on elements and pairs, checked
      as they stand.

    Axioms 7-9 run over `frame.view.masks`, each per-subset aggregate
    built from the one of the mask minus its lowest member. For a frame
    built in memory that is the empty set, the singletons and the pairs,
    and that decides every subset, because such a join is a fold of its
    binary join: join(S + c) = join{join S, c}. Write a <= b for
    R(a, b) = 1, a preorder by axioms 1 and 3. Once axioms 1-6 and these
    instances pass, induction on |S| gives, for S + c:

    - join closure: join(S + c) is the join of {join S, c}, a pair (or a
      singleton) of carrier elements;
    - axiom 7: a <= join S <= join{join S, c} for a in S, and
      c <= join{join S, c}, by the pair instance and axiom 3;
    - axiom 8: R(join(S + c), b) = min(R(join S, b), R(c, b)) by the pair
      instance, and R(join S, b) is the inf over S by induction;
    - axiom 9: the binary join is monotone, since x <= y gives
      R(join{x, z}, join{y, z}) = min(R(x, join{y, z}), R(z, join{y, z})) = 1
      by pair axioms 8 and 7 and axiom 3. So
      a meet join(S + c) <= join{a meet join S, a meet c} (pair instance)
      <= join{join(a meet S), a meet c} (induction, monotonicity)
      = join(a meet (S + c)).

    So a violation on any subset shows up on a pair, under the same clause;
    only its witness mask may differ.

    A frame read from a join table is checked on every subset unless its
    table passes the lowest-member fold, join S = join{join(S - c), c} with
    c the lowest member of S; then its pairs decide it too. The steps above
    for join closure and axioms 7 and 8 need the fold only at that c. With
    axioms 1-3 they make join S the least upper bound of S: an upper bound
    by axiom 7, below every upper bound b since R(join S, b) is the inf of
    R(a, b) = 1 over S (axiom 8), and unique by axiom 2. Both join(S + c)
    and join{join S, c} are least upper bounds of S + c, so the table folds
    on every member c, and the axiom 9 step holds as well. When the pair
    run of such a table finds a violation, every subset is checked again to
    name it (`FrameView.decide`), so the witness is the all-mask loop's.
    """
    items, v = frame.carrier, frame.view
    n, one = len(items), len(v.grades) - 1
    meet_idx, rel = v.meet, v.rel

    # structural pre-check: the meet must actually be a semilattice operation
    if not _is_semilattice(meet_idx):
        for i in range(n):
            if meet_idx[i][i] != i:
                return Violation("frame", "meet-semilattice",
                                 f"meet({_show(items[i])}, same) is not idempotent")
            for j in range(n):
                if meet_idx[i][j] != meet_idx[j][i]:
                    return Violation("frame", "meet-semilattice",
                                     f"meet not commutative at ({_show(items[i])}, {_show(items[j])})")
                for k in range(n):
                    if meet_idx[meet_idx[i][j]][k] != meet_idx[i][meet_idx[j][k]]:
                        return Violation(
                            "frame", "meet-semilattice",
                            f"meet not associative at ({_show(items[i])}, {_show(items[j])}, {_show(items[k])})")

    for i in range(n):
        if rel[i][i] != one:
            return Violation("frame", "axiom 1", f"relation({_show(items[i])}, same) != 1")
        if rel[i][v.top] != one:
            return Violation("frame", "axiom 5", f"relation({_show(items[i])}, top) != 1")
    rows = [cuts_of(row, one) for row in rel]
    if not _pair_axioms_hold(meet_idx, rel, rows, one):
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] == one and rel[j][i] == one:
                    return Violation("frame", "axiom 2",
                                     f"{_show(items[i])} and {_show(items[j])} are distinct but related by 1 both ways")
                m = meet_idx[i][j]
                if rel[m][i] != one or rel[m][j] != one:
                    return Violation("frame", "axiom 4",
                                     f"meet of ({_show(items[i])}, {_show(items[j])}) is not below both")
                for k in range(n):
                    if min(rel[i][j], rel[j][k]) > rel[i][k]:
                        return Violation("frame", "axiom 3",
                                         f"transitivity fails at ({_show(items[i])}, {_show(items[j])}, {_show(items[k])})")
                    if min(rel[i][j], rel[i][k]) != rel[i][meet_idx[j][k]]:
                        return Violation("frame", "axiom 6",
                                         f"meet distribution fails at ({_show(items[i])}, {_show(items[j])}, {_show(items[k])})")

    return v.decide(lambda view: _subset_violation(items, view, rows))


def _is_semilattice(meet: list[list[int]]) -> bool:
    """Whether the meet is idempotent, commutative and associative, by
    tests (a)-(c) of `check_frame` on down-sets coded as bitmasks."""
    n = len(meet)
    if any(meet[i][i] != i for i in range(n)) or [list(col) for col in zip(*meet)] != meet:
        return False
    # down[a] has bit x for each x with x meet a = x
    down = [sum(1 << x for x, m in enumerate(row) if m == x) for row in meet]
    for a, row in enumerate(meet):
        below = down[a]
        for b, m in enumerate(row):
            if (not below >> m & 1 or below >> b & 1 and down[b] & ~below
                    or below & down[b] & ~down[m]):
                return False
    return True


def _pair_axioms_hold(meet: list[list[int]], rel: list[list[int]], rows: list[int], one: int) -> bool:
    """Whether axioms 2, 3, 4 and 6 hold, with axioms 3 and 6 decided on
    the packed rows and columns of the relation (`check_frame`)."""
    n = len(rel)
    levels = [(1 << r * n) - 1 for r in range(one + 1)]  # the bits of levels 1..r
    for i, (row, packed) in enumerate(zip(rel, rows)):
        for j, r in enumerate(row):
            m = meet[i][j]
            if (r == one and rel[j][i] == one and i != j or rel[m][i] != one or rel[m][j] != one
                    or rows[j] & ~packed & levels[r]):
                return False
    cols = [cuts_of(col, one) for col in zip(*rel)]
    return all(cols[m] == cj & ck for cj, row in zip(cols, meet) for ck, m in zip(cols, row))


def _axiom_8_holds(rows: list[int], joins: list[int], steps: list[tuple[int, int]], full: int) -> bool:
    """Whether axiom 8 holds on the masks of `steps`: the packed row of the
    empty join is `full`, every bit, and each other join's row is the AND
    of the rows of the join of its mask minus a member and of that member."""
    return rows[joins[0]] == full and all(
        rows[joins[p]] == rows[joins[q]] & rows[i] for p, (q, i) in enumerate(steps, 1))


def _subset_violation(items: tuple, v: FrameView, rows: list[int]) -> Violation | None:
    """Join closure and axioms 7-9 of `check_frame` on the masks of `v`;
    `rows` are the packed relation rows."""
    n, one = len(items), len(v.grades) - 1
    meet_idx, rel = v.meet, v.rel
    masks, joins, steps = v.masks, v.joins, mask_steps(v.masks)
    if None in joins:
        return Violation("frame", "join closure",
                         f"join of mask {masks[joins.index(None)]:b} is outside the carrier")

    for mask, jm in zip(masks, joins):
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if rel[low.bit_length() - 1][jm] != one:
                return Violation("frame", "axiom 7",
                                 f"{_show(items[low.bit_length() - 1])} is not below the join of its subset")

    if not _axiom_8_holds(rows, joins, steps, (1 << n * one) - 1):
        for b in range(n):
            if rel[joins[0]][b] != one:
                return Violation("frame", "axiom 8",
                                 f"target {_show(items[b])}, empty subset (bottom not below it)")
            col = [r[b] for r in rel]
            lower = [one] * len(masks)
            for p, (q, i) in enumerate(steps, 1):
                lower[p] = min(lower[q], col[i])
                if lower[p] != rel[joins[p]][b]:
                    return Violation("frame", "axiom 8",
                                     f"target {_show(items[b])}, subset mask {masks[p]:b}")
    position = {mask: p for p, mask in enumerate(masks)}
    if not _distributive(rel, joins, position, one):
        for a in range(n):
            row = meet_idx[a]
            img = [0] * len(masks)
            for p, (q, i) in enumerate(steps, 1):
                img[p] = img[q] | (1 << row[i])
            for p, jm in enumerate(joins):
                if rel[row[jm]][joins[position[img[p]]]] != one:
                    return Violation("frame", "axiom 9",
                                     f"{_show(items[a])}, subset mask {masks[p]:b}")
    return None


def _distributive(rel: list[list[int]], joins: list[int], position: Mapping[int, int], one: int) -> bool:
    """Whether the lattice of a frame that passes axioms 1-8 is
    distributive: the join-irreducibles below a join of two elements are
    those below either (`check_frame`)."""
    n = len(rel)
    below = [sum(1 << y for y, r in enumerate(col) if r == one) for col in zip(*rel)]
    irreducible = 0
    for x in range(n):
        # x is join-irreducible unless the join of the elements strictly below it is x
        if _fold(joins, position, below[x] & ~(1 << x)) != x:
            irreducible |= 1 << x
    down = [b & irreducible for b in below]
    return all(down[joins[position[1 << x | 1 << y]]] == down[x] | down[y]
               for x in range(n) for y in range(x + 1, n))


@dataclass(frozen=True, eq=False)
class FrameHom:
    """Map between frame carriers, packaged with its endpoints. `_image` keeps
    each image's position in the target, as a point map's `_positions` does.
    The public constructor checks the map; every hom the package derives
    from maps it has already checked (identities, inverses, composites,
    counits, enumerated homs into a chain) is built from target positions
    by `_read`, which checks nothing, as `Aligned._read` does for fuzzy sets."""

    source: GradedFrame
    target: GradedFrame
    map: Mapping[Hashable, Hashable]
    _image: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        index, image = self.target.view.index, []
        for a in self.source.carrier:
            if a not in self.map:
                raise SchemaError("map", f"missing image for {_show(a)}")
            position = index.get(self.map[a])
            if position is None:
                raise SchemaError("map", f"image of {_show(a)} is outside the target carrier")
            image.append(position)
        # every carrier element is a key, so a longer map has a stray key
        if len(self.map) > len(image):
            stray = next(a for a in self.map if a not in self.source)
            raise SchemaError("map", f"{_show(stray)} is outside the source carrier")
        object.__setattr__(self, "_image", tuple(image))

    def __call__(self, a: Hashable) -> Hashable:
        return self.map[a]

    def __getattr__(self, name: str) -> Mapping[Hashable, Hashable]:
        # only a hom built by `_read` lacks its map, decoded on first read
        if name != "map":
            raise AttributeError(name)
        decoded = dict(zip(self.source.carrier, map(self.target.carrier.__getitem__, self._image)))
        object.__setattr__(self, "map", decoded)
        return decoded

    @classmethod
    def _read(cls, source: GradedFrame, target: GradedFrame, image: Iterable[int]) -> "FrameHom":
        """The hom sending the source's i-th element to the target's element
        at image[i]; unchecked, and no image is looked up in the target. Its
        `map` is decoded from the positions when it is first read."""
        h = object.__new__(cls)
        object.__setattr__(h, "source", source)
        object.__setattr__(h, "target", target)
        object.__setattr__(h, "_image", tuple(image))
        return h

    @classmethod
    def identity(cls, frame: GradedFrame) -> "FrameHom":
        return cls._read(frame, frame, range(len(frame)))

    def is_bijective(self) -> bool:
        return len(set(self._image)) == len(self._image) == len(self.target)

    def inverse(self) -> "FrameHom":
        if not self.is_bijective():
            raise SchemaError("map", "not a bijection")
        # the source positions in the order of their images
        return FrameHom._read(self.target, self.source, sorted(range(len(self._image)), key=self._image.__getitem__))


def same_frame(a: GradedFrame, b: GradedFrame) -> bool:
    """Identity, or equal carriers, tops, meet and relation tables, and
    joins on the masks where either frame gives its join: every subset when
    either has a join table, the pairs otherwise."""
    if a is b:
        return True
    if not (a.carrier == b.carrier and a.top == b.top and a.view.meet == b.view.meet
            and a.view.grades == b.view.grades and a.view.rel == b.view.rel):
        return False
    masks = a.view.masks if a.join_table is None and b.join_table is None else range(1 << len(a))
    return all(a.join_at(mask) == b.join_at(mask) for mask in masks)


def check_frame_hom(h: FrameHom) -> Violation | None:
    """Check meet preservation, subset-join preservation, relation
    non-expansion, and top preservation (required so satisfaction at the top
    can reach 1 in every system the hom induces).

    Join preservation runs over the source's masks when the target's join
    folds, and over every subset of the source otherwise. When the source's
    masks are its pairs (a frame built in memory, or a table that passes
    the lowest-member fold, with c the lowest member below), they decide
    every subset: f(join(S + c)) = f(join{join S, c}) = join'{f(join S), f(c)}
    = join'{join' f(S), f(c)} = join' f(S + c), the last step by the
    target's fold, which its view checks (`FrameView.folds`). A violation
    that the pairs of a table source show is named by every subset
    (`FrameView.decide`). A source join outside the source carrier has no
    image, and is reported as a join closure violation."""
    src, tgt, image = h.source, h.target, h._image
    sv, tv = src.view, tgt.view
    if image[sv.top] != tv.top:
        return Violation("frame-hom", "top preservation",
                         f"top maps to {_show(h.map[src.top])}")
    # a source rank r exceeds a target rank s exactly when s < above[r]
    above = rank_objects(tv.grades, sv.grades)
    for i, a in enumerate(src.carrier):
        for j, b in enumerate(src.carrier):
            if image[sv.meet[i][j]] != tv.meet[image[i]][image[j]]:
                return Violation("frame-hom", "clause (i)",
                                 f"meet of ({_show(a)}, {_show(b)}) is not preserved")
            if tv.rel[image[i]][image[j]] < above[sv.rel[i][j]]:
                return Violation("frame-hom", "clause (iii)",
                                 f"relation shrinks at ({_show(a)}, {_show(b)})")

    def preserved(masks: Iterable[int], joins: Iterable[int | None]) -> Violation | None:
        for mask, joined in zip(masks, joins):
            if joined is None:
                return Violation("frame-hom", "join closure",
                                 f"join of subset mask {mask:b} is outside the source carrier")
            moved, rest = 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                moved |= 1 << image[low.bit_length() - 1]
            if image[joined] != tgt.join_at(moved):
                return Violation("frame-hom", "clause (ii)",
                                 f"join of subset mask {mask:b} is not preserved")
        return None

    if tv.folds:
        return sv.decide(lambda view: preserved(view.masks, view.joins))
    every = range(1 << len(src))
    return preserved(every, map(src.join_at, every))


def compose_frame_hom(f: FrameHom, g: FrameHom) -> FrameHom:
    """Apply f, then g."""
    if not same_frame(f.target, g.source):
        raise MixedCarrier("composition endpoints do not match")
    # frames that are the same have one carrier order, so one set of positions
    return FrameHom._read(f.source, g.target, map(g._image.__getitem__, f._image))
