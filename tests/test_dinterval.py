import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balmat.dinterval import (DInterval, DIntervalFamilies, coverable, intersects,
                              rainbow_matching)


def di(*pairs):
    return DInterval([(Fraction(a), Fraction(b)) for a, b in pairs])


def contains(iv, t, x):
    """Does the open part of `iv` on component t contain x?"""
    lo, hi = iv.parts[t]
    return lo < x < hi


def oracle_coverable(family, budgets):
    """The brute force `coverable` must agree with: every product of
    per-component combinations of segment midpoints, in `itertools` order,
    each member tested against each point by rational comparison."""
    family = list(family)
    if not family:
        return [[] for _ in budgets]
    d = family[0].d
    candidates = []
    for t in range(d):
        cuts = sorted({x for iv in family for x in iv.parts[t]} | {Fraction(0), Fraction(1)})
        candidates.append([(a + b) / 2 for a, b in zip(cuts, cuts[1:])])
    choices_per_side = [
        list(itertools.combinations(candidates[t], min(budgets[t], len(candidates[t]))))
        for t in range(d)]
    for pick in itertools.product(*choices_per_side):
        if all(any(contains(iv, t, x) for t in range(d) for x in pick[t])
               for iv in family):
            return [list(p) for p in pick]
    return None


def test_dinterval_validation():
    with pytest.raises(ValueError):
        di(("1/2", "1/2"), (0, 1))
    with pytest.raises(ValueError):
        di((0, "3/2"), (0, 1))
    with pytest.raises(ValueError, match="the same d"):
        DIntervalFamilies(2, [[di((0, 1), (0, 1)), di((0, 1))]])
    with pytest.raises(ValueError, match="d >= 1 parts"):
        DInterval([])
    for lo in (0.1, True, "0"):
        with pytest.raises(ValueError, match="endpoint must be int or Fraction"):
            DInterval([(lo, Fraction(1, 2))])
        with pytest.raises(ValueError, match="endpoint must be int or Fraction"):
            DInterval([(Fraction(0), Fraction(1)), (Fraction(0), lo)])
    assert DInterval([(0, Fraction(1, 2))]).parts == ((Fraction(0), Fraction(1, 2)),)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be >= 1"):
            DIntervalFamilies(d, [])
    with pytest.raises(ValueError, match="d must be int"):
        DIntervalFamilies(1.0, [])


def test_intersects_open_endpoints():
    a = di((0, "1/2"), (0, "1/4"))
    b = di(("1/2", 1), ("1/4", "1/2"))
    # closed endpoints touch but open intervals do not overlap
    assert not intersects(a, b)
    c = di(("1/4", "3/4"), ("3/4", 1))
    assert intersects(a, c)


def test_coverable_trivial_cases():
    iv = di((0, "1/2"), ("1/2", 1))
    assert coverable([iv], (0, 0)) is None
    cover = coverable([iv], (1, 0))
    assert cover is not None
    assert any(contains(iv, 0, x) for x in cover[0])
    assert coverable([], (0, 0)) == [[], []]
    for family in ([], [iv]):
        with pytest.raises(ValueError, match="budgets must be >= 0"):
            coverable(family, (-1, 1))
    with pytest.raises(ValueError, match="one budget per component"):
        coverable([iv], (1,))
    for budgets in ((1.5, 1), (1.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="budget must be int"):
            coverable([iv], budgets)
    # a member of another d is refused whichever member comes first
    a = di((0, "1/2"))
    for family, budgets in (([a, iv], (1,)), ([iv, a], (1, 1))):
        with pytest.raises(ValueError, match="all members must have the same d"):
            coverable(family, budgets)


def test_coverable_two_disjoint():
    a = di((0, "1/4"), (0, "1/4"))
    b = di(("1/2", 1), ("1/2", 1))
    cover = coverable([a, b], (1, 1))
    assert cover is not None
    for iv in (a, b):
        assert any(contains(iv, t, x) for t in range(2) for x in cover[t])


def test_cover_points_actually_pierce():
    family = [di((0, "1/3"), ("1/3", "2/3")),
              di(("1/4", "3/4"), (0, "1/5")),
              di(("2/3", 1), ("4/5", 1))]
    cover = coverable(family, (2, 1))
    assert cover is not None
    for iv in family:
        assert any(contains(iv, t, x) for t in range(2) for x in cover[t])


def test_no_cover_of_members_with_disjoint_parts():
    """16 two-intervals whose parts are pairwise disjoint, with gaps, on both
    lines: 3 + 3 points pierce at most 6 members, so no (3,3)-cover exists,
    though each line has C(33, 3) = 5,456 point combinations."""
    part = [(Fraction(2 * i + 1, 34), Fraction(2 * i + 2, 34)) for i in range(16)]
    family = [di(p, p) for p in part]
    assert coverable(family, (3, 3)) is None


def test_budget_above_the_candidates_is_an_upper_bound():
    """A line with fewer candidate points than its budget takes them all."""
    whole = di((0, 1), (0, 1))  # one candidate point per line: 1/2
    half = Fraction(1, 2)
    for budgets, cover in (((1, 1), [[half], [half]]), ((2, 2), [[half], [half]]),
                           ((5, 0), [[half], []]), ((0, 3), [[], [half]])):
        assert coverable([whole], budgets) == cover, budgets


# 1-4 two-intervals with endpoints on the 1/12 grid
TWO_INTERVALS = st.lists(st.tuples(st.integers(0, 10), st.integers(1, 4),
                                   st.integers(0, 10), st.integers(1, 4)),
                         min_size=1, max_size=4).map(
    lambda raw: [DInterval([(Fraction(a, 12), min(Fraction(1), Fraction(a + la, 12))),
                            (Fraction(b, 12), min(Fraction(1), Fraction(b + lb, 12)))])
                 for a, la, b, lb in raw])
BUDGETS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(TWO_INTERVALS, BUDGETS, BUDGETS)
@example([di((0, 1), (0, 1))], (1, 1), (1, 1))
def test_cover_survives_a_larger_budget(family, budgets, extra):
    """A family coverable at budgets b is coverable at every b' >= b, by a
    cover within b' that pierces every member."""
    larger = tuple(b + x for b, x in zip(budgets, extra))
    if coverable(family, budgets) is None:
        return
    cover = coverable(family, larger)
    assert cover is not None
    assert all(len(points) <= b for points, b in zip(cover, larger))
    for iv in family:
        assert any(contains(iv, t, x) for t in range(2) for x in cover[t])


@settings(max_examples=25, deadline=None)
@given(TWO_INTERVALS)
def test_cover_decision_stable_under_finer_grid(family):
    """Midpoint candidates decide the same as a finer probe grid."""
    decided = coverable(family, (1, 1))
    # probe: any single point per line from a fine uniform grid
    grid = [Fraction(i, 48) for i in range(1, 48)]
    brute = any(
        all(contains(iv, 0, x) or contains(iv, 1, y) for iv in family)
        for x in grid for y in grid)
    assert (decided is not None) == brute


# 0-6 d-intervals, d = 1, 2 or 3, whose endpoints come from a few points of
# the 1/12 grid, so that members share endpoints and abut; budgets 0-3
GRID_FAMILIES = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True).flatmap(
        lambda ends: st.lists(st.lists(
            st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True),
            min_size=d, max_size=d), max_size=6)),
    st.lists(st.integers(0, 3), min_size=d, max_size=d).map(tuple)))


@settings(max_examples=300, deadline=None)
@given(GRID_FAMILIES)
@example(([], (0,)))
@example(([], (3, 0, 2)))
@example(([[[0, 12], [0, 12]]], (0, 0)))
@example(([[[0, 6], [6, 12]], [[6, 12], [0, 6]], [[3, 6], [6, 9]]], (1, 1)))
def test_coverable_matches_the_product_order_oracle(case):
    """`coverable` returns exactly the oracle's first cover in product order,
    the same points on each line in the same order, or None with it."""
    raw, budgets = case
    family = [DInterval([(Fraction(min(a, b), 12), Fraction(max(a, b), 12)) for a, b in parts])
              for parts in raw]
    assert coverable(family, budgets) == oracle_coverable(family, budgets)


def test_rainbow_matching_singletons():
    fams = DIntervalFamilies(2, [
        [di((0, "1/4"), (0, "1/4"))],
        [di(("1/4", "1/2"), ("1/4", "1/2"))],
        [di(("1/2", "3/4"), ("1/2", "3/4"))],
    ])
    found = rainbow_matching(fams, 3)
    assert found is not None and len(found) == 3


def test_rainbow_matching_identical_interval():
    iv = di((0, "1/2"), (0, "1/2"))
    fams = DIntervalFamilies(2, [[iv], [iv]])
    assert rainbow_matching(fams, 2) is None
    assert rainbow_matching(fams, 1) is not None
    for target in (True, 1.5, 1.0):
        with pytest.raises(ValueError, match="target must be int"):
            rainbow_matching(fams, target)


def rainbow_oracle(families, i, chosen, target):
    """The recursive search `rainbow_matching` keeps the order of: each
    member of family i disjoint from those chosen, in order, then a skip."""
    if len(chosen) >= target:
        return chosen
    if len(chosen) + len(families) - i < target:
        return None
    for iv in families[i]:
        if all(not intersects(iv, prev) for _, prev in chosen):
            found = rainbow_oracle(families, i + 1, chosen + [(i, iv)], target)
            if found is not None:
                return found
    return rainbow_oracle(families, i + 1, chosen, target)


sixths = st.tuples(st.integers(0, 5), st.integers(1, 6)).map(
    lambda p: (Fraction(p[0], 6), Fraction(min(p[0] + p[1], 6), 6)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(sixths, sixths).map(DInterval), max_size=3), max_size=6),
       st.integers(0, 7))
def test_rainbow_matching_returns_the_first_selection_of_the_recursive_search(raw, target):
    fams = DIntervalFamilies(2, raw)
    assert rainbow_matching(fams, target) == rainbow_oracle(fams.families, 0, [], target)


def test_rainbow_matching_on_1100_disjoint_families():
    """The search's depth is no recursion: 1,100 one-member families of
    pairwise disjoint intervals reach target 1,100, one member each."""
    fams = DIntervalFamilies(1, [[di((Fraction(i, 1100), Fraction(i + 1, 1100)))]
                                 for i in range(1100)])
    found = rainbow_matching(fams, 1100)
    assert [i for i, _ in found] == list(range(1100))
    assert [iv for _, iv in found] == [fam[0] for fam in fams.families]


def test_rainbow_matching_skips_families():
    iv = di((0, 1), (0, 1))
    a = di((0, "1/2"), (0, "1/2"))
    b = di(("1/2", 1), ("1/2", 1))
    fams = DIntervalFamilies(2, [[iv], [a], [b]])
    # the blocking family can be skipped: target 2 uses families 2 and 3
    assert rainbow_matching(fams, 2) is not None
    assert rainbow_matching(fams, 3) is None

