"""d-partite hypergraphs, weight functions, balance certificates, nu and nu*.

Indices are 1-based throughout, matching the usual [a_t] convention; an edge
of a d-partite hypergraph is a d-tuple (j_1, ..., j_d) with j_t in [a_t].
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .rational import LPProblem, Optimal, ONE, ZERO, checked, lp_solve

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

    def vertices(self):
        for t, a in enumerate(self.side_sizes, start=1):
            for j in range(1, a + 1):
                yield (t, j)


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
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight on {e}")
            items.append((tuple(e), w))
        object.__setattr__(self, "weights", tuple(sorted(items)))

    def as_dict(self) -> Dict[Edge, Fraction]:
        return dict(self.weights)

    def total(self) -> Fraction:
        return sum((w for _, w in self.weights), ZERO)


def check_hosted(h: PartiteHypergraph, f: WeightFunction):
    edge_set = set(h.edges)
    for e, _ in f.weights:
        if e not in edge_set:
            raise ValueError(f"weighted edge {e} not in hypergraph")


def degrees(h: PartiteHypergraph, f: WeightFunction) -> Dict[Vertex, Fraction]:
    deg = {v: ZERO for v in h.vertices()}
    for e, w in f.weights:
        for t, j in enumerate(e, start=1):
            deg[(t, j)] += w
    return deg


def is_balanced(h: PartiteHypergraph, f: WeightFunction) -> bool:
    """Exact per-side constant-degree check."""
    check_hosted(h, f)
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
    deg = degrees(h, WeightFunction({e: 1 for e in h.edges}))
    if any(d == 0 for d in deg.values()):
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
    vertex (t, j), sides in order, then indices; its certificate checked."""
    rows = [([int(e[t - 1] == j) for e in h.edges], cap(a))
            for t, a in enumerate(h.side_sizes, start=1) for j in range(1, a + 1)]
    res = lp_solve(LPProblem(len(h.edges), rows, [1] * len(h.edges)))
    if not isinstance(res, Optimal):
        raise RuntimeError(f"capped fractional matching LP returned {res!r}; it is "
                           f"feasible (f = 0) and bounded (deg_f <= cap)")
    _check_cover(h, cap, res)
    return res


def _check_cover(h: PartiteHypergraph, cap, res: Optimal):
    """RuntimeError unless res.point is an f >= 0 within the caps and
    res.dual a fractional vertex cover y (y >= 0, y summed over each edge's
    vertices >= 1), both of total res.value: by weak duality both are then
    optimal.  Shares no code with the simplex."""
    f, vertices = res.point, list(h.vertices())
    y = dict(zip(vertices, res.dual))
    deg = dict.fromkeys(vertices, ZERO)
    for e, x in zip(h.edges, f):
        for v in enumerate(e, start=1):
            deg[v] += x
    if not (len(f) == len(h.edges) and len(res.dual) == len(vertices)
            and min(f, default=ZERO) >= 0 and min(res.dual, default=ZERO) >= 0
            and all(deg[t, j] <= cap(h.side_sizes[t - 1]) for t, j in vertices)
            and all(sum(y[v] for v in enumerate(e, start=1)) >= 1 for e in h.edges)
            and sum(f) == res.value
            == sum(cap(h.side_sizes[t - 1]) * y[t, j] for t, j in vertices)):
        raise RuntimeError("capped fractional matching LP answer fails its "
                           "primal-dual certificate")


def nu(h: PartiteHypergraph) -> int:
    """Exact maximum matching size."""
    return len(max_matching(h))


def max_matching(h: PartiteHypergraph) -> Tuple[Edge, ...]:
    """A maximum matching, as a sorted tuple of edges, by branch and bound.

    Vertex (t, j) is a bit, in (side, index) order; an edge ORs its d bits.
    Branch on the vertex of least positive degree, lowest bit first: its
    edges in sorted order, then the skip.  Cut a node with c chosen edges
    when c + u <= len(best), for u the fewest vertices its edges meet on a
    side or the len(best) - c that a table local to the call, keyed by the
    tuple of edges, stored once a node with them was explored.  Such a subtree
    cannot strictly beat `best`, so the witness is that of the uncut search."""
    offsets = list(itertools.accumulate(h.side_sizes, initial=0))
    vertex_bits = [tuple(1 << (offsets[t] + j - 1) for t, j in enumerate(e)) for e in h.edges]
    bits = {sum(vb): vb for vb in vertex_bits}  # edge mask -> its vertices' bits
    sides = [((1 << a) - 1) << o for a, o in zip(h.side_sizes, offsets)]
    best: List[int] = []
    _matching_branch(list(bits), [], best, bits, sides, {})
    return tuple(e for m, e in zip(bits, h.edges) if m in best)


def _matching_branch(edges: List[int], chosen: List[int], best: List[int], bits, sides, table):
    """Extend `chosen` from the edge masks `edges`; with no table entry, u = len(edges)."""
    if len(chosen) > len(best):
        best[:] = chosen
    c, key = len(chosen), tuple(edges)
    if c + table.get(key, len(edges)) <= len(best):
        return
    union = functools.reduce(operator.or_, edges)
    if c + min((union & side).bit_count() for side in sides) <= len(best):
        return
    degree = collections.Counter(itertools.chain.from_iterable(map(bits.__getitem__, edges)))
    v = min(zip(degree.values(), degree))[1]
    for e in [f for f in edges if f & v]:
        chosen.append(e)
        _matching_branch([f for f in edges if not f & e], chosen, best, bits, sides, table)
        chosen.pop()
    _matching_branch([f for f in edges if not f & v], chosen, best, bits, sides, table)
    table[key] = len(best) - c


def nu_oracle(h: PartiteHypergraph) -> int:
    """Exact matching number by a memoised DP that shares no code with
    `max_matching`: each vertex of a largest side s, in turn, stays unmatched
    or takes one of its edges.  An edge is held as the bitmask of its
    vertices off side s, and a state is (position on s, bitmask of the
    vertices used off s); a largest s keeps that bitmask short."""
    s = h.side_sizes.index(max(h.side_sizes))
    offsets = list(itertools.accumulate(h.side_sizes, initial=0))
    masks: List[List[int]] = [[] for _ in range(h.side_sizes[s])]
    for e in h.edges:
        masks[e[s] - 1].append(sum(1 << (offsets[t] + j - 1)
                                   for t, j in enumerate(e) if t != s))
    return _oracle_state(masks, 0, 0, {})


def _oracle_state(masks, i, used, memo) -> int:
    """The most disjoint edges at positions i, i+1, ... of the DP side whose
    masks miss `used`; `memo` maps (i, used) to that number.

    Not a closure, for the reason `topology._bron_kerbosch` gives."""
    if i == len(masks):
        return 0
    if (i, used) not in memo:
        memo[i, used] = max([_oracle_state(masks, i + 1, used, memo)]
                            + [1 + _oracle_state(masks, i + 1, used | m, memo)
                               for m in masks[i] if not m & used])
    return memo[i, used]


# --- Neighborhood multigraphs ----------------------------------------------


@dataclass(frozen=True)
class Multigraph:
    """Bipartite multigraph with sides B, C; parallel edges carry labels."""

    b_size: int
    c_size: int
    edges: Tuple[Tuple[int, int, object], ...]  # (b, c, label), labels distinct

    def __init__(self, b_size, c_size, edges):
        b_size, c_size = checked(b_size, int, "side size"), checked(c_size, int, "side size")
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


def neighborhood(h: PartiteHypergraph, K) -> Multigraph:
    """N_H(K) for d = 3: one labeled (b, c) edge per edge (x, b, c), x in K.

    The label keeps the source vertex x, so identical neighborhoods of two
    elements of K stay distinct (multiset semantics).
    """
    if h.d != 3:
        raise ValueError("neighborhood extraction is implemented for d = 3 only")
    K = set(K)
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
    if layers < 1:
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
