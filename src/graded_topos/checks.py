"""Shared machinery for the axiom checkers: violation reports and the
subset recurrences.

Every subset-indexed check is exact. It runs over the masks of the view a
frame stores (`FrameView.masks`): the empty set, singletons and pairs for a
frame built in memory, which holds only those joins, and for a join table
that folds on the lowest member of each subset; every subset for any other
table. The frame module's docstring says why those masks cover every
subset. `FrameView.decide` reruns a check on every subset to name a
violation that the pairs of a join table show.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """A failed check: which checker, which clause, and a witness."""

    check: str
    clause: str
    witness: str

    def __str__(self) -> str:
        return f"{self.check}: {self.clause} violated at {self.witness}"


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law instance (triangle identity, naturality square,
    sequent property)."""

    name: str
    ok: bool
    detail: str = ""


def subset_regime(n: int) -> str:
    """The regime of the subset-indexed checks on a carrier of n elements:
    always "exhaustive", since every check is exact at every size."""
    return "exhaustive"


def mask_elements(mask: int, items: tuple) -> list:
    return [items[i] for i in range(len(items)) if mask >> i & 1]


def mask_steps(masks: list[int]) -> list[tuple[int, int]]:
    """For each non-empty mask of an ascending list that also holds every
    mask minus its lowest member (so masks[0] is the empty mask): the
    position of that smaller mask and the index of the member. A subset
    aggregate then builds up one member at a time, indexed by position."""
    position = {mask: p for p, mask in enumerate(masks)}
    return [(position[mask & (mask - 1)], (mask & -mask).bit_length() - 1) for mask in masks[1:]]
