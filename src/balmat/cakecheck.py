"""Cake-division instances with list acceptability oracles, exact nu^D at a
partition, and exhaustive search over the integer compositions of a grid."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Callable, Sequence, Tuple

from .hypergraph import PartiteHypergraph, check_side_sizes, nu
from .rational import checked, exact, over_lcd


@dataclass(frozen=True)
class Partition:
    """One vector of nonnegative slice lengths per cake; each sums to 1."""

    cakes: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, cakes):
        cs = tuple(tuple(exact(x, "slice length") for x in cake) for cake in cakes)
        lcd, nums = over_lcd(cs)
        for cake in nums:
            if any(x < 0 for x in cake):
                raise ValueError("slice lengths must be nonnegative")
            if sum(cake) != lcd:
                raise ValueError("each cake's slice lengths must sum to 1")
        object.__setattr__(self, "cakes", cs)


@dataclass(frozen=True)
class DivisionInstance:
    """`lists(lcd, nums)` gives every agent's set of acceptable index vectors,
    agent i's at index i - 1, at the partition whose slice lengths are
    nums[t][j] / lcd, all integers.  The lists may depend only on those
    lengths, so scaling lcd and nums by the same k changes none of them."""

    agent_count: int
    slice_counts: Tuple[int, ...]
    lists: Callable[[int, Sequence[Sequence[int]]], Tuple[AbstractSet[Tuple[int, ...]], ...]]

    def __post_init__(self):
        if checked(self.agent_count, int, "agent count") < 1:
            raise ValueError(f"agent count must be >= 1, got {self.agent_count}")
        object.__setattr__(self, "slice_counts", check_side_sizes(self.slice_counts))


def _max_sum_pairs(pairs, v, w):
    best = max(v[j - 1] + w[k - 1] for j, k in pairs)
    return {(j, k) for j, k in pairs if v[j - 1] + w[k - 1] == best}


def instance_2n2_nn(n: int) -> DivisionInstance:
    """2n-2 agents, two cakes of n slices each; no partition placates all.

    Agents 1..n-1 hold the diagonal pair system, agents n..2n-2 the shifted
    diagonal (cyclically); a pair is acceptable when both slices are long
    (>= 1/(n-1)) or when it maximizes the length-sum within the agent's
    system (ties inclusive).
    """
    if checked(n, int, "n") < 2:
        raise ValueError("n >= 2 required")
    a1, a2 = [(j, j) for j in range(1, n + 1)], [(j, j % n + 1) for j in range(1, n + 1)]

    def lists(lcd, nums):
        v, w = nums
        long_w = [k for k in range(1, n + 1) if (n - 1) * w[k - 1] >= lcd]
        b = {(j, k) for j in range(1, n + 1) if (n - 1) * v[j - 1] >= lcd for k in long_w}
        return ((frozenset(b | _max_sum_pairs(a1, v, w)),) * (n - 1)
                + (frozenset(b | _max_sum_pairs(a2, v, w)),) * (n - 1))

    return DivisionInstance(2 * n - 2, (n, n), lists)


def instance_nn_2n2(n: int) -> DivisionInstance:
    """n agents, cakes of n and 2n-2 slices; no partition placates all.

    Agent i's system pairs slice i of cake 1 with the first n-1 slices of
    cake 2 and slice i+1 (cyclically) with the last n-1 slices; acceptable
    pairs are the system's max-sum pairs, plus, when some cake-1 slice is
    long, the pairs of a longest cake-1 slice and a longest cake-2 slice.
    """
    if checked(n, int, "n") < 2:
        raise ValueError("n >= 2 required")
    systems = [[(i, k) for k in range(1, n)] + [(i % n + 1, k) for k in range(n, 2 * n - 1)]
               for i in range(1, n + 1)]

    def lists(lcd, nums):
        v, w = nums
        vmax, wmax = max(v), max(w)
        b = {(j, k) for j in range(1, n + 1) if v[j - 1] == vmax and (n - 1) * vmax >= lcd
             for k in range(1, 2 * n - 1) if w[k - 1] == wmax}
        return tuple(frozenset(_max_sum_pairs(s, v, w) | b) for s in systems)

    return DivisionInstance(n, (n, 2 * n - 2), lists)


def _nu_each(inst: DivisionInstance, points):
    """(nu^D, nums) at each point (lcd, nums), with nu once per distinct agent-slice
    hypergraph: `values` maps each edge set to its nu."""
    sides = (inst.agent_count,) + inst.slice_counts
    values = {}
    for lcd, nums in points:
        sets = inst.lists(lcd, nums)
        if len(sets) != inst.agent_count:
            raise ValueError(f"lists gave {len(sets)} sets for {inst.agent_count} agents")
        key = frozenset((i,) + vec for i, acc in enumerate(sets, start=1) for vec in acc)
        if key not in values:
            values[key] = nu(PartiteHypergraph(sides, key))
        yield values[key], nums


def nu_D(inst: DivisionInstance, p: Partition) -> int:
    """Largest number of agents given acceptable vectors distinct in every coordinate:
    nu of the agent-slice hypergraph, whose edges come from one call of `lists`."""
    shape = tuple(len(cake) for cake in p.cakes)
    if shape != inst.slice_counts:
        raise ValueError(f"partition has slice counts {list(shape)}, "
                         f"the instance needs {list(inst.slice_counts)}")
    return next(_nu_each(inst, [over_lcd(p.cakes)]))[0]


def _compositions(total: int, parts: int):
    """The compositions of total into parts naturals, in lexicographic order,
    by stars and bars: the parts are the gaps between parts - 1 bars placed
    among total + parts - 1 places, and the bars' positions in lexicographic
    order give the gaps in it."""
    ends = (total + parts - 1,)
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + ends))
            for bars in itertools.combinations(range(total + parts - 1), parts - 1)]


def grid_max(inst: DivisionInstance, q: int):
    """Exhaustive (max nu^D, first argmax partition) over the 1/q grid, in
    lexicographic order of each cake's compositions of q, the first cake
    outermost: one call of `lists` per point, nu once per distinct agent-slice
    hypergraph (`_nu_each`), and one Partition, for the argmax."""
    if checked(q, int, "resolution") < 1:
        raise ValueError("resolution must be >= 1")
    grid = itertools.product(*(_compositions(q, a) for a in inst.slice_counts))
    best, nums = max(_nu_each(inst, ((q, point) for point in grid)), key=lambda t: t[0])
    return best, Partition([[Fraction(x, q) for x in cake] for cake in nums])
