"""Cake-division instances with list acceptability oracles, exact nu^D
evaluation at a partition, and exhaustive grid search over rational
partitions at a fixed resolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Set, Tuple

from .hypergraph import PartiteHypergraph, nu
from .rational import ONE

IndexVector = Tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """One vector of nonnegative slice lengths per cake; each sums to 1."""

    cakes: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, cakes):
        cs = tuple(tuple(Fraction(x) for x in cake) for cake in cakes)
        for cake in cs:
            if any(x < 0 for x in cake):
                raise ValueError("slice lengths must be nonnegative")
            if sum(cake) != ONE:
                raise ValueError("each cake's slice lengths must sum to 1")
        object.__setattr__(self, "cakes", cs)


@dataclass(frozen=True)
class DivisionInstance:
    agent_count: int
    slice_counts: Tuple[int, ...]
    # (agent 1-based, Partition) -> set of acceptable index vectors
    oracle: Callable[[int, Partition], Set[IndexVector]]


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
    if n < 2:
        raise ValueError("n >= 2 required")
    a1 = {(j, j) for j in range(1, n + 1)}
    a2 = {(j, j % n + 1) for j in range(1, n + 1)}
    thr = Fraction(1, n - 1)

    def oracle(i: int, p: Partition) -> Set[IndexVector]:
        v, w = p.cakes
        ai = a1 if i <= n - 1 else a2
        long_w = [k for k in range(1, n + 1) if w[k - 1] >= thr]
        return ({(j, k) for j in range(1, n + 1) if v[j - 1] >= thr for k in long_w}
                | _max_sum_pairs(ai, v, w))

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
    thr = Fraction(1, n - 1)
    systems = {}
    for i in range(1, n + 1):
        systems[i] = ({(i, k) for k in range(1, n)} |
                      {(i % n + 1, k) for k in range(n, 2 * n - 1)})

    def oracle(i: int, p: Partition) -> Set[IndexVector]:
        v, w = p.cakes
        out = _max_sum_pairs(systems[i], v, w)
        vmax, wmax = max(v), max(w)
        if vmax >= thr:
            out |= {(j, k) for j in range(1, n + 1) if v[j - 1] == vmax
                    for k in range(1, 2 * n - 1) if w[k - 1] == wmax}
        return out

    return DivisionInstance(n, (n, 2 * n - 2), oracle)


def nu_D(inst: DivisionInstance, p: Partition) -> int:
    """Largest number of agents assignable acceptable vectors that are
    pairwise distinct in every coordinate: the matching number of the
    (d+1)-partite hypergraph of (agent, acceptable vector) edges."""
    shape = tuple(len(cake) for cake in p.cakes)
    if shape != inst.slice_counts:
        raise ValueError(f"partition has slice counts {list(shape)}, "
                         f"the instance needs {list(inst.slice_counts)}")
    h = PartiteHypergraph((inst.agent_count,) + inst.slice_counts,
                          [(i,) + vec for i in range(1, inst.agent_count + 1)
                           for vec in inst.oracle(i, p)])
    return nu(h)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_partitions(slice_counts, q: int):
    """All partitions whose slice lengths are multiples of 1/q."""
    per_cake = [
        [tuple(Fraction(x, q) for x in comp) for comp in _compositions(q, a)]
        for a in slice_counts]
    for combo in itertools.product(*per_cake):
        yield Partition(combo)


def grid_max(inst: DivisionInstance, q: int):
    """Exhaustive (max nu^D, argmax partition) over the 1/q grid."""
    if q < 1:
        raise ValueError("resolution must be >= 1")
    best = -1
    arg = None
    for p in grid_partitions(inst.slice_counts, q):
        val = nu_D(inst, p)
        if val > best:
            best, arg = val, p
    return best, arg
