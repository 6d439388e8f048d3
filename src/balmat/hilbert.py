"""Integral generators of the balanced-weight cone, Birkhoff-style
decomposition, and the Hall matching-extension step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm, prod
from typing import Dict, List, Optional, Tuple

from .hypergraph import PartiteHypergraph, WeightFunction, _all_edges, check_side_sizes

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
        items = tuple(sorted((tuple(e), int(w)) for e, w in weights.items() if w))
        if not items:
            raise ValueError("must not be identically zero")
        # side sizes, edge arity and range
        sizes = PartiteHypergraph(side_sizes, [e for e, _ in items]).side_sizes
        deg: Dict[Tuple[int, int], int] = {}
        for e, w in items:
            if w < 0:
                raise ValueError("weights must be nonnegative")
            for t, j in enumerate(e, start=1):
                deg[(t, j)] = deg.get((t, j), 0) + w
        for t, a in enumerate(sizes, start=1):
            col = [deg.get((t, j), 0) for j in range(1, a + 1)]
            if any(x != col[0] for x in col):
                raise ValueError(f"degrees not constant on side {t}")
        object.__setattr__(self, "side_sizes", sizes)
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


# --- Birkhoff decomposition -------------------------------------------------


def birkhoff_decompose(w: IntegralBalanced) -> List[Tuple[Edge, ...]]:
    """Write a balanced integral bipartite weighting as a sum of perfect
    matching indicators (greedy extraction; Hall guarantees each step).

    Returns a list of matchings with multiplicity; each matching is a sorted
    tuple of (row, col) edges.
    """
    if len(w.side_sizes) != 2 or w.side_sizes[0] != w.side_sizes[1]:
        raise ValueError("requires square bipartite side sizes (n, n)")
    n = w.side_sizes[0]
    rest = w.as_dict()
    out: List[Tuple[Edge, ...]] = []
    while any(rest.values()):
        support = {(i, j) for (i, j), x in rest.items() if x > 0}
        match = _perfect_matching(n, support)
        if match is None:
            raise ValueError("input is not balanced: support has no perfect matching")
        delta = min(rest[e] for e in match)
        for e in match:
            rest[e] -= delta
        out.extend([match] * delta)
    return out


def _perfect_matching(n: int, support) -> Optional[Tuple[Edge, ...]]:
    adj: Dict[int, List[int]] = {i: [] for i in range(1, n + 1)}
    for i, j in sorted(support):
        adj[i].append(j)
    match_col, stuck = _kuhn(range(1, n + 1), adj)
    if stuck is not None:
        return None
    return tuple(sorted((i, j) for j, i in match_col.items()))


def _kuhn(keys, options):
    """Kuhn's augmenting paths: give each key, in order, a distinct one of its
    options (tried in list order).  Returns (option -> key, None), or stops at
    the first key that cannot be served: (partial assignment, that key)."""
    match: Dict[object, object] = {}
    for key in keys:
        if not _augment(key, options, match, set()):
            return match, key
    return match, None


def _augment(key, options, match, seen) -> bool:
    for x in options[key]:
        if x in seen:
            continue
        seen.add(x)
        if x not in match or _augment(match[x], options, match, seen):
            match[x] = key
            return True
    return False


# --- Hall extension step ----------------------------------------------------


def hall_extend(h_prime: PartiteHypergraph, matching, w_prime: WeightFunction):
    """Extend a d-partite matching by one coordinate using distinct
    representatives among side-(d+1) vertices of weight >= 1 fibers.

    Returns (extended matching, None), or (None, violators) when Hall's
    condition fails: violators is a set of matching edges whose fibers
    together hold exactly one side-(d+1) vertex fewer than there are edges.
    """
    d = h_prime.d - 1
    matching = [tuple(e) for e in matching]
    wdict = w_prime.as_dict()
    proj_support = {e[:d] for e, x in wdict.items() if x > 0}
    for e in matching:
        if len(e) != d:
            raise ValueError("matching edges must have d coordinates")
        if e not in proj_support:
            raise ValueError(f"matching edge {e} not in the projected support")
    fibers: Dict[Edge, List[int]] = {
        e: sorted({ep[d] for ep, x in wdict.items() if x >= 1 and ep[:d] == e})
        for e in matching}

    match_rep, stuck = _kuhn(matching, fibers)  # representative j -> matching edge
    if stuck is not None:
        return None, _hall_violators(stuck, match_rep, fibers)
    assigned = {e: j for j, e in match_rep.items()}
    extended = tuple(sorted(e + (assigned[e],) for e in matching))
    for e1, e2 in itertools.combinations(extended, 2):
        if any(a == b for a, b in zip(e1, e2)):
            raise RuntimeError(f"extension is not a matching: {e1} meets {e2}")
    return extended, None


def _hall_violators(stuck, match_rep, fibers):
    """The edges that alternating paths over Kuhn's assignment reach from the
    stuck edge.  Every vertex in their fibers is assigned to one of them (else
    Kuhn would have served the stuck edge), and the stuck edge has none."""
    reached = [stuck]
    for e in reached:
        for j in fibers[e]:
            if match_rep[j] not in reached:
                reached.append(match_rep[j])
    return tuple(sorted(reached))
