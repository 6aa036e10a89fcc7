"""Shared machinery for the axiom checkers: violation reports and laws.

Every subset-indexed check is exact. It runs along the one walk of masks
that the view a frame stores keeps (`frames.FrameView.walk`): the empty
set, singletons and pairs for a frame built in memory, which holds only
those joins, and for a join table that folds on the lowest member of each
subset, built once per carrier size; every subset for any other table,
built for its view alone. Each mask's step names the mask without its
lowest member, so a subset aggregate is built one member at a time. The
frame module's docstring says why those masks cover every subset.
`FrameView.decide` reruns a check on every subset to name a violation that
the pairs of a join table show.
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
