"""Families of d-intervals: point covers with per-component budgets and
rainbow matchings, decided exactly on rational endpoints.

A d-interval is a union of d open intervals, one on each of d parallel
copies of [0, 1].  Covers are decided exhaustively over one candidate point
per atomic segment of the endpoint arrangement; because the intervals are
open this candidate set is complete.  A line's endpoints are scaled to
integers over their common denominator, and each candidate is held as the
bitmask of the members it pierces, read off the indices of the members'
endpoints among the sorted cuts.  The scan over point choices ORs those
bitmasks, compares no rationals, and returns the first cover in product
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .rational import checked, exact, over_lcd

Interval = Tuple[Fraction, Fraction]  # open (lo, hi)


@dataclass(frozen=True)
class DInterval:
    parts: Tuple[Interval, ...]

    def __init__(self, parts):
        ps = []
        for lo, hi in parts:
            lo, hi = exact(lo, "endpoint"), exact(hi, "endpoint")
            if not (0 <= lo < hi <= 1):
                raise ValueError(f"bad open interval ({lo}, {hi})")
            ps.append((lo, hi))
        if not ps:
            raise ValueError("a d-interval needs d >= 1 parts")
        object.__setattr__(self, "parts", tuple(ps))

    @property
    def d(self) -> int:
        return len(self.parts)


def intersects(a: DInterval, b: DInterval) -> bool:
    """Do two d-intervals meet on some component?  (Open-interval overlap.)"""
    return any(lo1 < hi2 and lo2 < hi1
               for (lo1, hi1), (lo2, hi2) in zip(a.parts, b.parts))


@dataclass(frozen=True)
class DIntervalFamilies:
    d: int
    families: Tuple[Tuple[DInterval, ...], ...]

    def __init__(self, d, families):
        if checked(d, int, "d") < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        fams = tuple(tuple(f) for f in families)
        for fam in fams:
            for iv in fam:
                if iv.d != d:
                    raise ValueError("all members must have the same d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "families", fams)


def _segments(family: Sequence[DInterval], t: int):
    """Component t's endpoint arrangement in integers: the common denominator
    `scale` of its endpoints, the cuts (0 and 1 included) times `scale` in
    order, and for each atomic segment between consecutive cuts the bitmask
    of the members whose part on t contains it (bit i for family[i])."""
    scale, ends = over_lcd([iv.parts[t] for iv in family])
    cuts = sorted({x for end in ends for x in end} | {0, scale})
    index = {x: k for k, x in enumerate(cuts)}
    masks = [0] * (len(cuts) - 1)
    for i, (lo, hi) in enumerate(ends):
        for k in range(index[lo], index[hi]):
            masks[k] |= 1 << i
    return scale, cuts, masks


def coverable(family: Sequence[DInterval], budgets) -> Optional[List[List[Fraction]]]:
    """Pierce every d-interval with at most budgets[t] points on component t.

    Returns the per-component cover point lists, or None when no cover within
    budget exists.  The candidates on a line are the midpoints of its atomic
    segments, and a line with fewer candidates than its budget takes them
    all: an extra point never unpierces a member.  The scan runs over the
    product of each line's candidate combinations, in `itertools` order, and
    a pick covers when the OR of its combinations' member bitmasks has every
    member's bit; the first such pick is returned.  A line keeps only the
    first combination of each bitmask: the first cover uses no later one, as
    swapping in the first gives a cover earlier in product order.
    """
    budgets = tuple(checked(b, int, "budget") for b in budgets)
    if min(budgets, default=0) < 0:
        raise ValueError(f"budgets must be >= 0, got {budgets}")
    family = list(family)
    if not family:
        return [[] for _ in budgets]
    d = family[0].d
    if any(iv.d != d for iv in family):
        raise ValueError("all members must have the same d")
    if len(budgets) != d:
        raise ValueError("one budget per component required")
    lines = [_segments(family, t) for t in range(d)]
    # per line: OR of the members the segments pierce -> first segment combo
    choices_per_side = []
    for (_, _, masks), budget in zip(lines, budgets):
        choices = {}
        for combo in itertools.combinations(range(len(masks)), min(budget, len(masks))):
            pierced = 0
            for k in combo:
                pierced |= masks[k]
            choices.setdefault(pierced, combo)
        choices_per_side.append(list(choices.items()))
    everyone = (1 << len(family)) - 1
    for pick in itertools.product(*choices_per_side):
        pierced = 0
        for mask, _ in pick:
            pierced |= mask
        if pierced == everyone:
            return [[Fraction(cuts[k] + cuts[k + 1], 2 * scale) for k in combo]
                    for (scale, cuts, _), (_, combo) in zip(lines, pick)]
    return None


def rainbow_matching(fams: DIntervalFamilies, target: int):
    """A pairwise-disjoint selection of one d-interval from each of >= target
    distinct families, or None if no such selection exists.

    Returns a list of (family_index, DInterval) pairs: the first found by a
    depth-first search that tries each member of family i disjoint from
    those chosen, in order, and then skips family i.  The search keeps an
    explicit stack, so its depth is not Python's recursion limit.
    """
    if checked(target, int, "target") < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    families = fams.families
    stack = [(0, [], 0)]  # (family i, chosen so far, next member of family i to try)
    while stack:
        i, chosen, k = stack.pop()
        if len(chosen) >= target:
            return chosen
        if len(chosen) + len(families) - i < target:
            continue
        members = families[i]
        while k < len(members) and any(intersects(members[k], prev) for _, prev in chosen):
            k += 1
        if k < len(members):
            stack.append((i, chosen, k + 1))
            stack.append((i + 1, chosen + [(i, members[k])], 0))
        else:
            stack.append((i + 1, chosen, 0))  # skip family i
    return None

