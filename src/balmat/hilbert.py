"""Integral generators of the balanced-weight cone and decomposition of an
integral balanced weighting over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from typing import Dict, List, Optional, Tuple

from .hypergraph import (PartiteHypergraph, WeightFunction, _all_edges, check_side_sizes,
                         is_balanced)

Edge = Tuple[int, ...]


@dataclass(frozen=True)
class IntegralBalanced:
    """Nonzero integral weight function with constant per-side degrees."""

    side_sizes: Tuple[int, ...]
    weights: Tuple[Tuple[Edge, int], ...]

    def __init__(self, side_sizes, weights):
        for e, w in weights.items():
            if w != int(w):
                raise ValueError(f"weight {w} on {e} is not an integer")
            if w < 0:
                raise ValueError("weights must be nonnegative")
        items = tuple(sorted((tuple(e), int(w)) for e, w in weights.items() if w))
        if not items:
            raise ValueError("must not be identically zero")
        # side sizes, edge arity and range
        h = PartiteHypergraph(side_sizes, [e for e, _ in items])
        if not is_balanced(h, WeightFunction(dict(items))):
            raise ValueError("degrees not constant on some side")
        object.__setattr__(self, "side_sizes", h.side_sizes)
        object.__setattr__(self, "weights", items)

    def as_dict(self) -> Dict[Edge, int]:
        return dict(self.weights)

    def norm(self) -> int:
        return sum(w for _, w in self.weights)

    def dominates(self, other: "IntegralBalanced") -> bool:
        mine = self.as_dict()
        return all(mine.get(e, 0) >= w for e, w in other.weights)


class CapExceeded(Exception):
    """The norm cap was reached before the generating set closed."""


def _integral_balanced_with_degrees(side_sizes, per_side_deg: List[int]):
    """All integral w >= 0 on the complete hypergraph with deg = per_side_deg[t]
    on every side-t vertex, by backtracking over edges in lexicographic order."""
    edges = _all_edges(side_sizes)
    d = len(side_sizes)
    results = []
    remaining: Dict[Tuple[int, int], int] = {}
    for t, a in enumerate(side_sizes, start=1):
        for j in range(1, a + 1):
            remaining[(t, j)] = per_side_deg[t - 1]
    # For pruning: after position i, can vertex (t, j) still gain degree?
    later_support = [set() for _ in range(len(edges) + 1)]
    for i in range(len(edges) - 1, -1, -1):
        later_support[i] = later_support[i + 1] | {
            (t, j) for t, j in enumerate(edges[i], start=1)}

    weights: Dict[Edge, int] = {}

    def rec(i):
        if i == len(edges):
            if all(v == 0 for v in remaining.values()):
                results.append(dict(weights))
            return
        if any(v > 0 and vert not in later_support[i]
               for vert, v in remaining.items()):
            return
        e = edges[i]
        verts = [(t, j) for t, j in enumerate(e, start=1)]
        cap = min(remaining[v] for v in verts)
        for w in range(cap + 1):
            if w:
                for v in verts:
                    remaining[v] -= 1
                weights[e] = w
            rec(i + 1)
        for v in verts:
            remaining[v] += cap
        weights.pop(e, None)

    rec(0)
    return results


def hilbert_basis(side_sizes, norm_cap: int):
    """Inclusion-minimal generating set of the integral balanced semigroup.

    Enumerates integral balanced vectors in order of total weight |w| (which
    must be a multiple of every side size) and keeps those not dominated by a
    previously found generator.  Raises CapExceeded when the cap finds no
    generator (the all-ones weighting is balanced, so the basis is never
    empty) or a generator in the top half of the searched range, i.e. when
    closure within the cap cannot be asserted.
    """
    sizes = check_side_sizes(side_sizes)
    if norm_cap < 0:
        raise ValueError(f"norm cap must be >= 0, got {norm_cap}")
    if prod(sizes) > 12:
        raise ValueError("cone too large for desk-scale enumeration")
    step = lcm(*sizes)
    basis: List[IntegralBalanced] = []
    for norm in range(step, norm_cap + 1, step):
        per_side = [norm // a for a in sizes]
        for w in _integral_balanced_with_degrees(sizes, per_side):
            cand = IntegralBalanced(sizes, w)
            if any(cand.dominates(g) for g in basis):
                continue
            basis.append(cand)
    if not basis:
        raise CapExceeded(f"no generator of norm <= {norm_cap}")
    if any(g.norm() > norm_cap // 2 for g in basis):
        raise CapExceeded(
            f"generator of norm > {norm_cap // 2} found; cap {norm_cap} does "
            "not certify closure")
    return basis


def decompose(w: IntegralBalanced, basis) -> Optional[List[IntegralBalanced]]:
    """Express w as a sum of basis elements (backtracking), or None."""
    basis = list(basis)
    rest = w.as_dict()

    def rec(start, chosen):
        if not any(rest.values()):
            return list(chosen)
        for idx in range(start, len(basis)):
            g = basis[idx]
            if all(rest.get(e, 0) >= x for e, x in g.weights):
                for e, x in g.weights:
                    rest[e] -= x
                chosen.append(g)
                found = rec(idx, chosen)
                chosen.pop()
                for e, x in g.weights:
                    rest[e] += x
                if found is not None:
                    return found
        return None

    return rec(0, [])
