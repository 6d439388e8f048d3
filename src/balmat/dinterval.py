"""Families of d-intervals: point covers with per-component budgets and
rainbow matchings, decided exactly on rational endpoints.

A d-interval is a union of d open intervals, one on each of d parallel
copies of [0, 1].  Covers are decided exhaustively over one candidate point
per atomic segment of the endpoint arrangement; because the intervals are
open this candidate set is complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Interval = Tuple[Fraction, Fraction]  # open (lo, hi)


@dataclass(frozen=True)
class DInterval:
    parts: Tuple[Interval, ...]

    def __init__(self, parts):
        ps = []
        for lo, hi in parts:
            lo, hi = Fraction(lo), Fraction(hi)
            if not (0 <= lo < hi <= 1):
                raise ValueError(f"bad open interval ({lo}, {hi})")
            ps.append((lo, hi))
        object.__setattr__(self, "parts", tuple(ps))

    @property
    def d(self) -> int:
        return len(self.parts)

    def contains(self, t: int, x: Fraction) -> bool:
        lo, hi = self.parts[t]
        return lo < x < hi


def intersects(a: DInterval, b: DInterval) -> bool:
    """Do two d-intervals meet on some component?  (Open-interval overlap.)"""
    return any(lo1 < hi2 and lo2 < hi1
               for (lo1, hi1), (lo2, hi2) in zip(a.parts, b.parts))


@dataclass(frozen=True)
class DIntervalFamilies:
    d: int
    families: Tuple[Tuple[DInterval, ...], ...]

    def __init__(self, d, families):
        fams = tuple(tuple(f) for f in families)
        for fam in fams:
            for iv in fam:
                if iv.d != d:
                    raise ValueError("all members must have the same d")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "families", fams)


def _candidate_points(family: Sequence[DInterval], t: int) -> List[Fraction]:
    """One midpoint per atomic segment of component t's endpoint arrangement."""
    cuts = sorted({x for iv in family for x in iv.parts[t]} | {Fraction(0), Fraction(1)})
    return [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]


def coverable(family: Sequence[DInterval], budgets) -> Optional[List[List[Fraction]]]:
    """Pierce every d-interval with at most budgets[t] points on component t.

    Returns the per-component cover point lists, or None when no cover within
    budget exists.  A line with fewer candidates than its budget takes them
    all: an extra point never unpierces a member.
    """
    if min(budgets, default=0) < 0:
        raise ValueError(f"budgets must be >= 0, got {tuple(budgets)}")
    family = list(family)
    if not family:
        return [[] for _ in budgets]
    d = family[0].d
    if len(budgets) != d:
        raise ValueError("one budget per component required")
    candidates = [_candidate_points(family, t) for t in range(d)]
    choices_per_side = [
        list(itertools.combinations(candidates[t], min(budgets[t], len(candidates[t]))))
        for t in range(d)]
    for pick in itertools.product(*choices_per_side):
        if all(any(iv.contains(t, x) for t in range(d) for x in pick[t])
               for iv in family):
            return [list(p) for p in pick]
    return None


def rainbow_matching(fams: DIntervalFamilies, target: int):
    """A pairwise-disjoint selection of one d-interval from each of >= target
    distinct families, or None if no such selection exists.

    Returns a list of (family_index, DInterval) pairs.
    """
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    return _rainbow(fams.families, 0, [], target)


def _rainbow(families, i, chosen, target):
    """`chosen` extended by pairwise-disjoint members of families i, i+1, ...,
    at most one from each, to `target` members; or None if it cannot be.

    Not a closure, for the reason `topology._bron_kerbosch` gives."""
    if len(chosen) >= target:
        return chosen
    if len(chosen) + len(families) - i < target:
        return None
    for iv in families[i]:
        if all(not intersects(iv, prev) for _, prev in chosen):
            found = _rainbow(families, i + 1, chosen + [(i, iv)], target)
            if found is not None:
                return found
    return _rainbow(families, i + 1, chosen, target)

