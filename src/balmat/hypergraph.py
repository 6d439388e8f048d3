"""d-partite hypergraphs, weight functions, balance certificates, nu and nu*.

Indices are 1-based throughout, matching the usual [a_t] convention; an edge
of a d-partite hypergraph is a d-tuple (j_1, ..., j_d) with j_t in [a_t].
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .rational import LPProblem, Optimal, ONE, ZERO, checked, exact, lp_solve, over_lcd

Edge = Tuple[int, ...]
Vertex = Tuple[int, int]  # (side, index), both 1-based


@dataclass(frozen=True)
class PartiteHypergraph:
    side_sizes: Tuple[int, ...]
    edges: Tuple[Edge, ...]  # sorted, duplicate-free

    def __init__(self, side_sizes, edges):
        sizes = check_side_sizes(side_sizes)
        es = sorted({tuple(checked(j, int, "edge coordinate") for j in e) for e in edges})
        for e in es:
            if len(e) != len(sizes):
                raise ValueError(f"edge {e} has wrong arity")
            if any(not 1 <= j <= a for j, a in zip(e, sizes)):
                raise ValueError(f"edge {e} out of range for sides {sizes}")
        object.__setattr__(self, "side_sizes", sizes)
        object.__setattr__(self, "edges", tuple(es))

    @property
    def d(self) -> int:
        return len(self.side_sizes)


def check_side_sizes(side_sizes) -> Tuple[int, ...]:
    """The side sizes as a tuple, when they are a non-empty list of ints
    >= 1; else a ValueError."""
    sizes = tuple(checked(a, int, "side size") for a in side_sizes)
    if not sizes or min(sizes) < 1:
        raise ValueError(f"side sizes must be naturals >= 1, got {sizes}")
    return sizes


def _all_edges(side_sizes) -> List[Edge]:
    """Every edge of the complete d-partite hypergraph, in lexicographic order."""
    return [tuple(e) for e in itertools.product(*(range(1, a + 1) for a in side_sizes))]


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative rational weights on (a subset of) a hypergraph's edges."""

    weights: Tuple[Tuple[Edge, Fraction], ...]

    def __init__(self, weights):
        items = []
        for e, w in weights.items():
            w = exact(w, "weight")
            if w < 0:
                raise ValueError(f"negative weight on {e}")
            items.append((tuple(e), w))
        object.__setattr__(self, "weights", tuple(sorted(items)))

    def as_dict(self) -> Dict[Edge, Fraction]:
        return dict(self.weights)

    def total(self) -> Fraction:
        return sum((w for _, w in self.weights), ZERO)


def check_hosted(h, f: WeightFunction):
    """Every weighted edge of f is an edge of h, a PartiteHypergraph or a
    Multigraph: only `h.edges` is read."""
    edge_set = set(h.edges)
    for e, _ in f.weights:
        if e not in edge_set:
            raise ValueError(f"weighted edge {e} not in hypergraph")


def degrees(h, f: WeightFunction) -> Dict[Vertex, Fraction]:
    """deg_f(t, j), the weight f puts on the edges through vertex j of side t,
    for every vertex of h, a PartiteHypergraph or a Multigraph, sides in
    order, then indices.  An edge's vertices are its first len(h.side_sizes)
    coordinates, so a multigraph edge's label is none of them."""
    check_hosted(h, f)
    d = len(h.side_sizes)
    deg = {(t, j): ZERO for t, a in enumerate(h.side_sizes, start=1) for j in range(1, a + 1)}
    for e, w in f.weights:
        for v in enumerate(e[:d], start=1):
            deg[v] += w
    return deg


def is_balanced(h, f: WeightFunction) -> bool:
    """Exact per-side constant-degree check, h as for `degrees`."""
    deg = degrees(h, f)
    for t, a in enumerate(h.side_sizes, start=1):
        side = [deg[(t, j)] for j in range(1, a + 1)]
        if any(x != side[0] for x in side):
            return False
    return True


def balanced_certificate(h: PartiteHypergraph) -> Optional[WeightFunction]:
    """A nonzero balanced weighting normalized to |f| = 1, or None.

    Side t's degrees sum to |f|, so under the caps deg_f(t, j) <= 1/a_t the
    total |f| is at most 1, and |f| = 1 exactly when every degree on side t
    equals 1/a_t.  Any nonzero balanced weighting scales to such an f, so one
    exists exactly when the capped fractional matching reaches 1.
    """
    if len({v for e in h.edges for v in enumerate(e, start=1)}) < sum(h.side_sizes):
        return None  # isolated vertex: its degree can never reach 1/a_t
    res = _capped_matching(h, lambda a: Fraction(1, a))
    if res.value < 1:
        return None
    return WeightFunction({e: x for e, x in zip(h.edges, res.point) if x > 0})


def nu_star(h: PartiteHypergraph) -> Fraction:
    """Fractional matching number: max |f| s.t. deg_f <= 1, f >= 0."""
    return _capped_matching(h, lambda a: ONE).value


def _capped_matching(h: PartiteHypergraph, cap) -> Optimal:
    """max |f| over f >= 0 on h.edges with deg_f(t, j) <= cap(a_t) at each
    vertex (t, j), sides in order, then indices; its certificate checked.

    The LP counts f in units of 1/L, L the lcm of the caps' denominators, so
    its right sides are the integers L * cap(a_t) and its rows stay 0/1; the
    dual, a vertex cover, is the same for both, and the point and value are
    divided by L."""
    lcd, (caps,) = over_lcd([[cap(a) for a in h.side_sizes]])
    rows = [([int(e[t - 1] == j) for e in h.edges], c)
            for t, (a, c) in enumerate(zip(h.side_sizes, caps), start=1) for j in range(1, a + 1)]
    res = lp_solve(LPProblem(len(h.edges), rows, [1] * len(h.edges)))
    res = Optimal(res.value / lcd, [x / lcd for x in res.point], res.dual)
    _check_cover(h, cap, res)
    return res


def _check_cover(h: PartiteHypergraph, cap, res: Optimal):
    """RuntimeError unless res.point is an f >= 0 within the caps and
    res.dual a fractional vertex cover y (y >= 0, y summed over each edge's
    vertices >= 1), both of total res.value: by weak duality both are then
    optimal.  Shares no code with the simplex: it reads only the returned
    rationals and checks each clause on their numerators over one common
    denominator D, so the cover's total, sum(cap * y), is compared at D^2."""
    caps = [c for a in h.side_sizes for c in [cap(a)] * a]  # per vertex, in order
    if len(res.point) == len(h.edges) and len(res.dual) == len(caps):
        big, (f, y, caps, (value,)) = over_lcd([res.point, res.dual, caps, [res.value]])
        offsets = list(itertools.accumulate(h.side_sizes, initial=-1))
        at = [[o + j for o, j in zip(offsets, e)] for e in h.edges]  # vertex positions
        deg = [0] * len(caps)
        for vs, x in zip(at, f):
            for v in vs:
                deg[v] += x
        if (min(f, default=0) >= 0 and min(y, default=0) >= 0
                and all(map(operator.le, deg, caps))
                and all(sum(y[v] for v in vs) >= big for vs in at)
                and sum(f) == value and sum(map(operator.mul, caps, y)) == value * big):
            return
    raise RuntimeError("capped fractional matching LP answer fails its "
                       "primal-dual certificate")


def nu(h: PartiteHypergraph) -> int:
    """Exact maximum matching size."""
    return len(max_matching(h))


def max_matching(h: PartiteHypergraph) -> Tuple[Edge, ...]:
    """A maximum matching, as a sorted tuple of edges, by branch and bound.

    A node's remaining edges are one int mask `live` over edge indices, in
    `h.edges` order.  Vertex (t, j) is number offsets[t] + j - 1, in (side,
    index) order, and three tables are built once per call: `inc[v]`, the
    edges through vertex v; `conflict[i]`, the edges that meet edge i; and
    each vertex's side.  One pass over the vertices live at the parent reads
    each degree as `(inc[v] & live).bit_count()`, the live vertices of each
    side, and the branching vertex v: least positive degree, lowest number
    first.  Its edges i, in index order, lead to `live & ~conflict[i]`, then
    the skip to `live & ~inc[v]`.  Cut a node with c chosen edges when
    c + u <= len(best), for u the fewest live vertices on a side or the
    len(best) - c that a table local to the call, keyed by `live`, stored
    once a node with those edges was explored.  Such a subtree cannot
    strictly beat `best`, so the witness is that of the uncut search."""
    offsets = list(itertools.accumulate(h.side_sizes, initial=0))
    at = [[o + j - 1 for o, j in zip(offsets, e)] for e in h.edges]
    inc = [0] * offsets[-1]
    for i, vs in enumerate(at):
        for v in vs:
            inc[v] |= 1 << i
    conflict = []
    for vs in at:
        meet = 0
        for v in vs:
            meet |= inc[v]
        conflict.append(meet)
    side = [t for t, a in enumerate(h.side_sizes) for _ in range(a)]
    best: List[int] = []
    _matching_branch((1 << len(at)) - 1, range(len(inc)), [], best, (inc, conflict, side, h.d), {})
    return tuple(h.edges[i] for i in sorted(best))


def _matching_branch(live: int, verts, chosen: List[int], best: List[int],
                     tables, table):
    """Extend `chosen` from the edge indices in `live`, whose vertices are
    among `verts`; with no table entry, u = the number of edges in `live`."""
    if len(chosen) > len(best):
        best[:] = chosen
    c, n = len(chosen), live.bit_count()
    if c + table.get(live, n) <= len(best):
        return
    inc, conflict, side, d = tables
    counts = [0] * d
    kept = []
    low = n + 1
    for v in verts:
        k = (inc[v] & live).bit_count()
        if k:
            kept.append(v)
            counts[side[v]] += 1
            if k < low:
                low, pick = k, v
    if c + min(counts) <= len(best):
        return
    through = inc[pick] & live
    rest = through
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest ^= 1 << i
        chosen.append(i)
        _matching_branch(live & ~conflict[i], kept, chosen, best, tables, table)
        chosen.pop()
    _matching_branch(live & ~through, kept, chosen, best, tables, table)
    table[live] = len(best) - c


def nu_oracle(h: PartiteHypergraph) -> int:
    """Exact matching number by a forward DP that shares no code with
    `max_matching`: each vertex of a largest side s, in turn, stays unmatched
    or takes one of its edges.  An edge is held as the bitmask of its
    vertices off side s, and after each vertex of s the DP holds every
    reachable bitmask of vertices used off s, with the most edges that reach
    it; a largest s keeps that bitmask short.  The answer is the most edges
    over the bitmasks left after the last vertex.  No recursion, so the
    size of s sets no depth."""
    s = h.side_sizes.index(max(h.side_sizes))
    offsets = list(itertools.accumulate(h.side_sizes, initial=0))
    masks: List[List[int]] = [[] for _ in range(h.side_sizes[s])]
    for e in h.edges:
        masks[e[s] - 1].append(sum(1 << (offsets[t] + j - 1)
                                   for t, j in enumerate(e) if t != s))
    reach = {0: 0}  # bitmask of the vertices used off s -> most edges using them
    for edges in masks:
        after = dict(reach)
        for used, count in reach.items():
            for m in edges:
                if not m & used and after.get(used | m, -1) <= count:
                    after[used | m] = count + 1
        reach = after
    return max(reach.values())


# --- Neighborhood multigraphs ----------------------------------------------


@dataclass(frozen=True)
class Multigraph:
    """Bipartite multigraph with sides B (rows, side 1) and C (columns,
    side 2), sizes as `check_side_sizes` accepts; parallel edges carry
    labels.  `side_sizes` and `edges` are read as a PartiteHypergraph's are,
    so `degrees` and `is_balanced` take either."""

    b_size: int
    c_size: int
    edges: Tuple[Tuple[int, int, object], ...]  # (b, c, label), labels distinct

    def __init__(self, b_size, c_size, edges):
        b_size, c_size = check_side_sizes((b_size, c_size))
        es = tuple(sorted((checked(b, int, "endpoint"), checked(c, int, "endpoint"), lab)
                          for b, c, lab in edges))
        if len({e for e in es}) != len(es):
            raise ValueError("labeled edges must be distinct")
        for b, c, _ in es:
            if not (1 <= b <= b_size and 1 <= c <= c_size):
                raise ValueError(f"edge endpoint out of range: {(b, c)}")
        object.__setattr__(self, "b_size", b_size)
        object.__setattr__(self, "c_size", c_size)
        object.__setattr__(self, "edges", es)

    @property
    def side_sizes(self) -> Tuple[int, int]:
        return self.b_size, self.c_size


def neighborhood(h: PartiteHypergraph, K) -> Multigraph:
    """N_H(K) for d = 3: one labeled (b, c) edge per edge (x, b, c), x in K.

    The label keeps the source vertex x, so identical neighborhoods of two
    elements of K stay distinct (multiset semantics).
    """
    if h.d != 3:
        raise ValueError("neighborhood extraction is implemented for d = 3 only")
    K = {checked(x, int, "member of K") for x in K}
    if any(not 1 <= x <= h.side_sizes[0] for x in K):
        raise ValueError("K must be a subset of side 1")
    edges = [(b, c, x) for (x, b, c) in h.edges if x in K]
    return Multigraph(h.side_sizes[1], h.side_sizes[2], edges)


# --- Random balanced instances ---------------------------------------------


def random_balanced(side_sizes, seed, layers: int):
    """Deterministic random balanced instance: the sum of `layers` templates.

    Supported shapes: d >= 2 sides, sides 1..d-1 of one size n and side d of
    size rn for a natural r.  A template has n disjoint stars: the i-th has
    an edge through vertex i of side 1, vertex p_t(i) of each middle side t
    (p_t a random permutation) and each vertex of the i-th block of r on a
    shuffled side d.  So all sides equal gives permutation-matchings, and
    (n, rn) unions of n disjoint K_{1,r}.  The returned weight function
    counts each edge's templates.
    """
    sizes = check_side_sizes(side_sizes)
    if checked(layers, int, "layers") < 1:
        raise ValueError("layers must be >= 1")
    n = sizes[0]
    if len(sizes) < 2 or any(a != n for a in sizes[:-1]) or sizes[-1] % n:
        raise ValueError(f"unsupported size pattern {sizes}")
    r = sizes[-1] // n
    rng = random.Random(seed)
    weights: Dict[Edge, int] = {}
    for _ in range(layers):
        perms = [list(range(1, a + 1)) for a in sizes[1:]]
        for p in perms:
            rng.shuffle(p)
        *middle, last = perms
        for i in range(n):
            for c in last[i * r:(i + 1) * r]:
                e = (i + 1, *(p[i] for p in middle), c)
                weights[e] = weights.get(e, 0) + 1
    h = PartiteHypergraph(sizes, list(weights))
    return h, WeightFunction({e: Fraction(w) for e, w in weights.items()})
