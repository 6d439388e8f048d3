"""Search harnesses: exhaustive/sampled minimum-nu search over fractionally
balanced hypergraphs, and seeded random instance generators used by the
verification suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .dinterval import DInterval, coverable
from .hypergraph import (Multigraph, PartiteHypergraph, WeightFunction,
                         _all_edges, balanced_certificate, check_side_sizes, degrees, nu)
from .rational import checked
from .topology import Graph, canonical_key

EXHAUSTIVE_UNIVERSE_CAP = 9  # potential-edge universes beyond this are refused


@dataclass(frozen=True)
class SearchReport:
    side_sizes: Tuple[int, ...]
    min_nu: Optional[int]
    witness: Optional[PartiteHypergraph]
    exhaustive: bool
    examined: int       # hypergraphs whose balance was tested
    balanced_count: int  # of those, how many were fractionally balanced


def canonical_form(side_sizes, edges):
    """Key of an edge set up to side-internal relabelings: equal for two edge
    sets exactly when such a relabeling maps one onto the other."""
    colour = {(t, j): t for t, a in enumerate(side_sizes, 1) for j in range(1, a + 1)}
    return canonical_key(colour, [frozenset(enumerate(e, 1)) for e in edges])


def bm_search_exhaustive(side_sizes) -> SearchReport:
    """Exact minimum nu over all fractionally balanced hypergraphs on the
    given sides, up to side-internal relabeling."""
    sizes = check_side_sizes(side_sizes)
    universe = _all_edges(sizes)
    if len(universe) > EXHAUSTIVE_UNIVERSE_CAP:
        raise ValueError(
            f"universe of {len(universe)} edges exceeds the exhaustive cap "
            f"{EXHAUSTIVE_UNIVERSE_CAP}; use sampled mode")
    seen = set()
    best_nu = None
    witness = None
    examined = balanced = 0
    for r in range(1, len(universe) + 1):
        for support in itertools.combinations(universe, r):
            key = canonical_form(sizes, support)
            if key in seen:
                continue
            seen.add(key)
            examined += 1
            h = PartiteHypergraph(sizes, support)
            if balanced_certificate(h) is None:
                continue
            balanced += 1
            val = nu(h)
            if best_nu is None or val < best_nu:
                best_nu, witness = val, h
    return SearchReport(sizes, best_nu, witness, True, examined, balanced)


def bm_search_sampled(side_sizes, seed, trials: int,
                      edge_cap: Optional[int] = None) -> SearchReport:
    """Seeded random search; reports an upper bound on the true minimum.

    Each trial draws its randomness from a seed derived from (seed, trial),
    and a candidate holds between max(side_sizes) and edge_cap edges, so an
    edge cap below the largest side is a ValueError.
    """
    sizes = check_side_sizes(side_sizes)
    if checked(trials, int, "trials") < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    universe = _all_edges(sizes)
    if edge_cap is None:
        edge_cap = min(len(universe), 3 * max(sizes))
    if checked(edge_cap, int, "edge cap") < max(sizes):
        raise ValueError(f"edge cap must be >= the largest side {max(sizes)}, got {edge_cap}")
    hits = []  # (nu, edges) of each balanced candidate
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        size = rng.randint(max(sizes), min(len(universe), edge_cap))
        support = tuple(sorted(rng.sample(universe, size)))
        h = PartiteHypergraph(sizes, support)
        if balanced_certificate(h) is not None:
            hits.append((nu(h), support))
    if not hits:
        return SearchReport(sizes, None, None, False, trials, 0)
    val, support = min(hits)
    return SearchReport(sizes, val, PartiteHypergraph(sizes, support), False,
                        trials, len(hits))


# --- Seeded generators for the verification suites ---------------------------


def random_graph(seed) -> Graph:
    """Seeded Erdos-Renyi-style graph on 6-8 vertices, of random density."""
    rng = random.Random(f"graph:{seed}")
    n = rng.randint(6, 8)
    p = rng.choice([Fraction(1, 5), Fraction(7, 20), Fraction(1, 2)])
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if Fraction(rng.randint(0, 19), 20) < p]
    return Graph(n, edges)


def random_knn_balanced(k: int, n: int, seed):
    """A balanced (k, n, n) instance: each side-1 vertex carries t random
    permutation rows of weight 1 (the same t for every row, so all three
    sides have constant degree)."""
    rng = random.Random(f"knn:{seed}")
    t = rng.choice([1, 1, 1, 2])
    weights: Dict[Tuple[int, int, int], Fraction] = {}
    for x in range(1, k + 1):
        for _ in range(t):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            for j in range(1, n + 1):
                e = (x, j, perm[j - 1])
                weights[e] = weights.get(e, Fraction(0)) + 1
    h = PartiteHypergraph((k, n, n), list(weights))
    return h, WeightFunction(weights)


def random_weighted_multigraph(seed):
    """A bipartite (multi)graph on 2-3 rows and 2-4 columns with f-values in
    {1, 2}, column degrees <= 2, plus the smallest admissible s (row degrees
    <= 2s).  Returns (g, f, s)."""
    rng = random.Random(f"conf:{seed}")
    rows = rng.randint(2, 3)
    cols = rng.randint(2, 4)
    weights: Dict[Tuple[int, int, int], int] = {}
    for c in range(1, cols + 1):
        style = rng.choice(["one", "one", "two_cells", "double"])
        if style == "one":
            weights[(rng.randint(1, rows), c, 0)] = 1
        elif style == "double":
            weights[(rng.randint(1, rows), c, 0)] = 2
        else:
            r1, r2 = rng.sample(range(1, rows + 1), 2)
            weights[(r1, c, 0)] = 1
            weights[(r2, c, 0)] = 1
    g = Multigraph(rows, cols, list(weights))
    f = WeightFunction({e: Fraction(w) for e, w in weights.items()})
    s = max(1, -(-max(d for (t, _), d in degrees(g, f).items() if t == 1) // 2))
    return g, f, s


def random_two_interval_family(seed, m: int):
    """A family of <= 8 two-intervals not pierceable by m points per line
    (found by seeded rejection sampling; endpoints on a 1/12 grid).  For
    m >= 3 a ValueError: there is no such family for m >= 4, as one point per
    member pierces it, and for m = 3 the sampling almost never draws one."""
    if checked(m, int, "m") >= 4:
        raise ValueError(f"m must be <= 2, got {m}: 4 points per line pierce any 8 two-intervals")
    if m == 3:
        raise ValueError("m must be <= 2, got 3: families of 8 two-intervals with no "
                         "(3,3)-cover exist, but rejection sampling does not reach them")
    rng = random.Random(f"tardos:{m}:{seed}")
    q = 12
    while True:
        size = rng.randint(4 if m == 1 else 6, 8)
        family = []
        for _ in range(size):
            parts = []
            for _t in range(2):
                lo = rng.randint(0, q - 2)
                hi = rng.randint(lo + 1, min(q, lo + 1 + rng.randint(1, 3)))
                parts.append((Fraction(lo, q), Fraction(hi, q)))
            family.append(DInterval(parts))
        if coverable(family, (m, m)) is None:
            return family
