"""Integral generators of the balanced-weight cone, certified complete up to
a norm cap by the one pass that finds them.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Dict, List, Set, Tuple

from .hypergraph import (PartiteHypergraph, WeightFunction, _all_edges, check_side_sizes,
                         is_balanced)
from .rational import checked

Edge = Tuple[int, ...]
Vector = Tuple[int, ...]  # one weight per edge of `_all_edges`, in its order


class CapExceeded(Exception):
    """The norm cap was reached before the generating set closed."""


def _balanced_vectors(edges: List[Edge], later: List[Set], remaining: Dict):
    """Yield every integral w >= 0 on edges that brings each vertex's count in
    `remaining` down to exactly 0, in lexicographic order; `later[i]` holds
    the vertices that edges[i:] touch.  One loop pops frames (prefix,
    remaining), cut when a positive count is on no later edge (at the end,
    any positive count), and pushes its children from the top weight down,
    so the lowest pops first; no Python frame is added per edge."""
    stack = [((), remaining)]
    while stack:
        prefix, remaining = stack.pop()
        i = len(prefix)
        if any(v > 0 and vert not in later[i] for vert, v in remaining.items()):
            continue
        if i == len(edges):
            yield prefix
            continue
        verts = list(enumerate(edges[i], start=1))
        for w in range(min(remaining[v] for v in verts), -1, -1):
            child = remaining.copy()
            for v in verts:
                child[v] -= w
            stack.append((prefix + (w,), child))


def hilbert_basis(side_sizes, norm_cap: int) -> List[WeightFunction]:
    """Inclusion-minimal generating set of the integral balanced semigroup.

    Enumerates the integral balanced vectors on the complete hypergraph in
    order of total weight |w| (a multiple of every side size) and keeps those
    that dominate no earlier generator.  A vector w that dominates a
    generator g leaves w - g, which is balanced, nonnegative and of smaller
    norm, so by induction on the norm w is a sum of generators.  That w - g
    was enumerated is checked, not assumed: a miss means the enumerator
    dropped a vector, and is a RuntimeError.

    Raises CapExceeded when the cap finds no generator (the all-ones
    weighting is balanced, so the basis is never empty) or a generator in the
    top half of the searched range, i.e. when closure within the cap cannot
    be asserted.
    """
    sizes = check_side_sizes(side_sizes)
    if checked(norm_cap, int, "norm cap") < 0:
        raise ValueError(f"norm cap must be >= 0, got {norm_cap}")
    if prod(sizes) > 12:
        raise ValueError("cone too large for desk-scale enumeration")
    edges = _all_edges(sizes)
    later = [set() for _ in range(len(edges) + 1)]
    for i in range(len(edges) - 1, -1, -1):
        later[i] = later[i + 1] | set(enumerate(edges[i], start=1))
    step = lcm(*sizes)
    seen: Set[Vector] = set()
    basis: List[Vector] = []
    for norm in range(step, norm_cap + 1, step):
        remaining = {(t, j): norm // a for t, a in enumerate(sizes, start=1)
                     for j in range(1, a + 1)}
        for w in _balanced_vectors(edges, later, remaining):
            g = next((g for g in basis if all(x >= y for x, y in zip(w, g))), None)
            if g is None:
                basis.append(w)
            elif tuple(x - y for x, y in zip(w, g)) not in seen:
                raise RuntimeError(f"{w} minus generator {g} is balanced but was "
                                   "not enumerated")
            seen.add(w)
    complete = PartiteHypergraph(sizes, edges)
    gens = [WeightFunction({e: x for e, x in zip(edges, g) if x}) for g in basis]
    if not all(is_balanced(complete, f) for f in gens):
        raise RuntimeError("an enumerated generator is not balanced")
    if not gens:
        raise CapExceeded(f"no generator of norm <= {norm_cap}")
    if any(sum(g) > norm_cap // 2 for g in basis):
        raise CapExceeded(
            f"generator of norm > {norm_cap // 2} found; cap {norm_cap} does "
            "not certify closure")
    return gens
