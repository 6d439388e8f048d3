"""Cake-division instances with list acceptability oracles, exact nu^D at a
partition, and exhaustive search over the rational partitions of a grid."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Callable, Tuple

from .hypergraph import PartiteHypergraph, check_side_sizes, nu
from .rational import checked


def _numerators(cakes):
    """(L, numerators): each slice as an integer over L, the lcm of all denominators."""
    lcd = math.lcm(*(x.denominator for cake in cakes for x in cake))
    return lcd, [[x.numerator * (lcd // x.denominator) for x in cake] for cake in cakes]


@dataclass(frozen=True)
class Partition:
    """One vector of nonnegative slice lengths per cake; each sums to 1."""

    cakes: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, cakes):
        cs = tuple(tuple(Fraction(x) if type(x) is int else checked(x, Fraction, "slice length")
                         for x in cake) for cake in cakes)
        lcd, nums = _numerators(cs)
        for cake in nums:
            if any(x < 0 for x in cake):
                raise ValueError("slice lengths must be nonnegative")
            if sum(cake) != lcd:
                raise ValueError("each cake's slice lengths must sum to 1")
        object.__setattr__(self, "cakes", cs)


@dataclass(frozen=True)
class DivisionInstance:
    """`oracle(p)` gives every agent's set of acceptable index vectors at p,
    agent i's at index i - 1.  The built-in oracles compute all the lists
    once per partition, on integer numerators over a common denominator."""

    agent_count: int
    slice_counts: Tuple[int, ...]
    oracle: Callable[[Partition], Tuple[AbstractSet[Tuple[int, ...]], ...]]

    def __post_init__(self):
        if checked(self.agent_count, int, "agent count") < 1:
            raise ValueError(f"agent count must be >= 1, got {self.agent_count}")
        object.__setattr__(self, "slice_counts", check_side_sizes(self.slice_counts))


def _max_sum_pairs(pairs, v, w):
    sums = {(j, k): v[j - 1] + w[k - 1] for j, k in pairs}
    best = max(sums.values())
    return {e for e, s in sums.items() if s == best}


def instance_2n2_nn(n: int) -> DivisionInstance:
    """2n-2 agents, two cakes of n slices each; no partition placates all.

    Agents 1..n-1 hold the diagonal pair system, agents n..2n-2 the shifted
    diagonal (cyclically); a pair is acceptable when both slices are long
    (>= 1/(n-1)) or when it maximizes the length-sum within the agent's
    system (ties inclusive).
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    a1, a2 = [(j, j) for j in range(1, n + 1)], [(j, j % n + 1) for j in range(1, n + 1)]

    def oracle(p: Partition):
        lcd, (v, w) = _numerators(p.cakes)
        long_w = [k for k in range(1, n + 1) if (n - 1) * w[k - 1] >= lcd]
        b = {(j, k) for j in range(1, n + 1) if (n - 1) * v[j - 1] >= lcd for k in long_w}
        return ((frozenset(b | _max_sum_pairs(a1, v, w)),) * (n - 1)
                + (frozenset(b | _max_sum_pairs(a2, v, w)),) * (n - 1))

    return DivisionInstance(2 * n - 2, (n, n), oracle)


def instance_nn_2n2(n: int) -> DivisionInstance:
    """n agents, cakes of n and 2n-2 slices; no partition placates all.

    Agent i's system pairs slice i of cake 1 with the first n-1 slices of
    cake 2 and slice i+1 (cyclically) with the last n-1 slices; acceptable
    pairs are the system's max-sum pairs, plus, when some cake-1 slice is
    long, the pairs of a longest cake-1 slice and a longest cake-2 slice.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    systems = [[(i, k) for k in range(1, n)] + [(i % n + 1, k) for k in range(n, 2 * n - 1)]
               for i in range(1, n + 1)]

    def oracle(p: Partition):
        lcd, (v, w) = _numerators(p.cakes)
        vmax, wmax = max(v), max(w)
        b = {(j, k) for j in range(1, n + 1) if v[j - 1] == vmax and (n - 1) * vmax >= lcd
             for k in range(1, 2 * n - 1) if w[k - 1] == wmax}
        return tuple(frozenset(_max_sum_pairs(s, v, w) | b) for s in systems)

    return DivisionInstance(n, (n, 2 * n - 2), oracle)


def _nu_each(inst: DivisionInstance, partitions):
    """(nu^D, p) for each partition p, with nu once per distinct agent-slice hypergraph:
    `values` maps each edge set, a bitmask over the edges seen so far, to its nu."""
    bits, values = {}, {}  # edge -> its bit in the keys; edge-set key -> nu
    for p in partitions:
        shape = tuple(len(cake) for cake in p.cakes)
        if shape != inst.slice_counts:
            raise ValueError(f"partition has slice counts {list(shape)}, "
                             f"the instance needs {list(inst.slice_counts)}")
        edges = [(i,) + vec for i, acc in enumerate(inst.oracle(p), start=1) for vec in acc]
        key = sum({1 << bits.setdefault(e, len(bits)) for e in edges})  # OR of the bits
        if key not in values:
            values[key] = nu(PartiteHypergraph((inst.agent_count,) + inst.slice_counts, edges))
        yield values[key], p


def nu_D(inst: DivisionInstance, p: Partition) -> int:
    """Largest number of agents given acceptable vectors distinct in every coordinate:
    nu of the agent-slice hypergraph, whose edges come from one oracle call."""
    return next(_nu_each(inst, [p]))[0]


def _compositions(total: int, parts: int):
    return [(total,)] if parts == 1 else [(first,) + rest for first in range(total + 1)
                                          for rest in _compositions(total - first, parts - 1)]


def grid_partitions(slice_counts, q: int):
    """All partitions whose slice lengths are multiples of 1/q, in lexicographic order."""
    per_cake = [[tuple(Fraction(x, q) for x in comp) for comp in _compositions(q, a)]
                for a in slice_counts]
    return map(Partition, itertools.product(*per_cake))


def grid_max(inst: DivisionInstance, q: int):
    """Exhaustive (max nu^D, first argmax partition) over the 1/q grid: one oracle
    call per point, and nu once per distinct agent-slice hypergraph (`_nu_each`)."""
    if q < 1:
        raise ValueError("resolution must be >= 1")
    return max(_nu_each(inst, grid_partitions(inst.slice_counts, q)),
               key=lambda t: t[0], default=(-1, None))
