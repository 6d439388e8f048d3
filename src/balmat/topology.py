"""Simplicial complexes, rational homology, connectivity, the Meshulam game.

Connectivity eta follows the convention "largest homologically k-connected k,
plus 2": scanning j = -1, 0, 1, ... the first nonvanishing reduced Betti
number at j gives eta = j + 1.  The void complex (no faces at all) has eta 0,
and so does the complex whose only face is the empty set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .hypergraph import (Multigraph, PartiteHypergraph, WeightFunction, max_matching,
                         neighborhood)
from .rational import ZERO, checked, rank_of_rows

# Game value for "an isolated vertex appeared".  It stays the float math.inf
# because the benchmark's exact renderer (bench/workloads.py, text()) prints
# only that float, as "inf", and its game checks compare values with
# == math.inf; a non-float value ordered above every int must change both.
INFINITE = math.inf


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: FrozenSet[FrozenSet[int]]  # vertices are 1..vertex_count

    def __init__(self, vertex_count, edges):
        if checked(vertex_count, int, "vertex count") < 0:
            raise ValueError("vertex count must be >= 0")
        es = set()
        for e in edges:
            u, v = e
            if checked(u, int, "vertex") > checked(v, int, "vertex"):
                u, v = v, u
            if u == v:
                raise ValueError("loops are not allowed")
            if not (1 <= u and v <= vertex_count):
                raise ValueError(f"edge {(u, v)} out of range")
            es.add(frozenset((u, v)))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(es))


class SimplicialComplex:
    """A complex on the vertices 1..vertex_count, given by its facets;
    downward closure is implicit, and two complexes are equal when their
    facets are.

    facets == () means the void complex (no faces); a single empty facet
    means the complex whose only face is the empty set.  The complex of
    `independence_complex(g)` lists its faces from g and finds its facets
    only when `.facets` is first read.
    """

    # Faces are listed level by level: each face (v1 < ... < vk) carries a
    # state bitmask, and a vertex v > vk extends it when state & _key[v] is
    # nonzero, giving the state state & _child[v].  Given facets, the state
    # is the set of facets that contain the face, and _key[v] = _child[v] is
    # the set of facets that contain v.  For an independence complex, the
    # state is the set of vertices adjacent to no vertex of the face, _key[v]
    # is {v} and _child[v] the set of non-neighbours of v.  _start is the
    # state of the empty face, 0 when the complex is void.

    def __init__(self, vertex_count, facets):
        if checked(vertex_count, int, "vertex count") < 0:
            raise ValueError("vertex count must be >= 0")
        fs = list({frozenset(checked(v, int, "facet vertex") for v in f) for f in facets})
        # Bit i of containing[v] is set when fs[i] contains v.  A facet is
        # maximal iff the only facet containing all its vertices is itself.
        containing: Dict[int, int] = {}
        for i, f in enumerate(fs):
            for v in f:
                containing[v] = containing.get(v, 0) | 1 << i
        everything = (1 << len(fs)) - 1
        maximal = []
        for i, f in enumerate(fs):
            supersets = everything
            for v in f:
                supersets &= containing[v]
            if supersets == 1 << i:
                maximal.append(f)
        for f in maximal:
            if any(not 1 <= v <= vertex_count for v in f):
                raise ValueError("facet vertex out of range")
        self.vertex_count = vertex_count
        self._facets = tuple(sorted(maximal, key=sorted))
        self._graph = None
        self._start = everything
        self._key = self._child = [containing.get(v, 0) for v in range(vertex_count + 1)]

    @classmethod
    def _independence(cls, g: Graph) -> "SimplicialComplex":
        """The independence complex of g, for g with at least one vertex."""
        n = g.vertex_count
        c = cls.__new__(cls)
        c.vertex_count = n
        c._facets = None
        c._graph = g
        c._start = (2 << n) - 2  # bits 1..n
        c._key = [1 << v for v in range(n + 1)]
        closed = list(c._key)  # v and its neighbours
        for u, v in g.edges:
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        c._child = [c._start & ~mask for mask in closed]
        return c

    @property
    def facets(self) -> Tuple[FrozenSet[int], ...]:
        if self._facets is None:
            self._facets = tuple(sorted(_maximal_independent_sets(self._graph), key=sorted))
        return self._facets

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.facets) == (other.vertex_count, other.facets)

    def __hash__(self):
        return hash((self.vertex_count, self.facets))

    def __repr__(self):
        return f"SimplicialComplex(vertex_count={self.vertex_count!r}, facets={self.facets!r})"

    @property
    def is_void(self) -> bool:
        return not self._start

    def _face_levels(self):
        """Yield the face lists of dimension -1, 0, 1, ..., each sorted, while
        they are not empty.  Each level extends the one before it, face by
        face in order and by increasing vertices, so it comes out sorted."""
        if self.is_void:
            return
        key, child = self._key, self._child
        top = self.vertex_count + 1
        level = [((), self._start)]
        while level:
            yield [face for face, _ in level]
            level = [(face + (v,), state & child[v]) for face, state in level
                     for v in range(face[-1] + 1 if face else 1, top) if state & key[v]]

    def faces_of_dim(self, j: int) -> List[Tuple[int, ...]]:
        """The j-dimensional faces, sorted; [()] for j = -1 unless void."""
        if j < -1:
            return []
        return next(itertools.islice(self._face_levels(), j + 1, None), [])


def _boundary_rank(lower: List[Tuple[int, ...]], upper: List[Tuple[int, ...]],
                   ceiling: int) -> int:
    """Rank of the boundary map from span(upper) to span(lower), given an
    upper bound on it (see `rank_of_rows`).  One row per face of upper, the
    transpose of the boundary matrix, built only as the elimination reads it."""
    idx = {f: i for i, f in enumerate(lower)}
    rows = ({idx[face[:i] + face[i + 1:]]: (-1) ** i for i in range(len(face))}
            for face in upper)
    return rank_of_rows(rows, ceiling)


def betti(c: SimplicialComplex, j: int) -> int:
    """dim of the j-th reduced rational homology group (j >= -1), from the
    faces of dimensions j - 1, j and j + 1 alone; the second rank takes the
    ceiling that `_betti_scan` explains."""
    if j < -1:
        raise ValueError("j must be >= -1")
    lower, fj, upper = (c.faces_of_dim(i) for i in (j - 1, j, j + 1))
    rank_in = _boundary_rank(lower, fj, len(lower))
    return len(fj) - rank_in - _boundary_rank(fj, upper, len(fj) - rank_in)


def _betti_scan(c: SimplicialComplex, top: int):
    """Yield (j, b_j), b_j the j-th reduced Betti number, for j = -1, 0, ...,
    top while faces of dimension j exist.  Each face list is built once, from
    the one below it, and each boundary rank computed once, since the rank of
    the boundary into dimension j enters both b_j and b_{j+1}.  Two face
    lists are held at a time.

    The rank of the boundary out of dimension j + 1 is computed with the
    ceiling len(fj) - rank_in, the dimension of the kernel of the boundary
    out of dimension j: since the boundary of a boundary is zero, the image
    of the one lies in the kernel of the other.  Reaching the ceiling means
    b_j = 0, and the rank found is exact either way.
    """
    levels = c._face_levels()
    fj = next(levels, [])
    rank_in = 0  # rank of the boundary out of dimension j
    for j in range(-1, top + 1):
        if not fj:
            return
        upper = next(levels, [])
        rank_up = _boundary_rank(fj, upper, len(fj) - rank_in)
        yield j, len(fj) - rank_in - rank_up
        fj, rank_in = upper, rank_up


@dataclass(frozen=True)
class Eta:
    """Connectivity answer: exact value, or a certified lower bound (the cap)."""

    value: int
    exact: bool

    def at_least(self, k: int) -> bool:
        return self.value >= k


def eta(c: SimplicialComplex, cap: int) -> Eta:
    """Homological connectivity, scanned up to the cap.

    Returns Eta(j + 1, exact=True) for the smallest j with nonvanishing
    reduced homology, or Eta(cap, exact=False) when everything up to
    dimension cap - 2 vanishes.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if c.is_void:
        return Eta(0, True)
    for j, b in _betti_scan(c, cap - 2):
        if b != 0:
            return Eta(j + 1, True)
    return Eta(cap, False)


# --- Independence / matching complexes --------------------------------------


def _maximal_independent_sets(g: Graph) -> List[FrozenSet[int]]:
    """Bron-Kerbosch on the complement graph (maximal cliques there)."""
    n = g.vertex_count
    non_adj = {v: set() for v in range(1, n + 1)}
    adj = {v: set() for v in range(1, n + 1)}
    for e in g.edges:
        u, v = sorted(e)
        adj[u].add(v)
        adj[v].add(u)
    for v in range(1, n + 1):
        non_adj[v] = set(range(1, n + 1)) - adj[v] - {v}

    out: List[FrozenSet[int]] = []
    _bron_kerbosch(set(), set(range(1, n + 1)), set(), non_adj, out)
    return out


def _bron_kerbosch(r, p, x, non_adj, out):
    """Append to out each maximal clique of non_adj that contains r, takes
    its other vertices from p and none from x (with pivoting).

    Not a closure: a recursive closure refers to itself through its cell,
    and that cycle keeps the sets it holds alive until the next cyclic
    garbage collection."""
    if not p and not x:
        out.append(frozenset(r))
        return
    u = max(p | x, key=lambda w: len(non_adj[w] & p))
    for v in sorted(p - non_adj[u]):
        _bron_kerbosch(r | {v}, p & non_adj[v], x & non_adj[v], non_adj, out)
        p = p - {v}
        x = x | {v}


def independence_complex(g: Graph) -> SimplicialComplex:
    """Faces are the independent sets of g, facets the maximal ones."""
    if g.vertex_count == 0:
        return SimplicialComplex(0, [frozenset()])
    return SimplicialComplex._independence(g)


def line_graph(mg: Multigraph) -> Graph:
    """One vertex per labeled edge; adjacency = sharing an endpoint.

    Parallel edges share both endpoints, hence are adjacent.
    """
    cells = list(mg.edges)
    n = len(cells)
    edges = []
    for i in range(n):
        for k in range(i + 1, n):
            if cells[i][0] == cells[k][0] or cells[i][1] == cells[k][1]:
                edges.append((i + 1, k + 1))
    return Graph(n, edges)


def matching_complex(mg: Multigraph) -> SimplicialComplex:
    """The matching complex M(G) = I(L(G)), vertices numbered like line_graph."""
    return independence_complex(line_graph(mg))


# --- Meshulam's game --------------------------------------------------------


CANONICAL_LEAF_BUDGET = 1000  # search-tree leaves before the labeled key


def canonical_key(colour, edges):
    """Isomorphism key of a hypergraph whose vertices carry int colours: two
    keys are equal exactly when a colour-preserving bijection maps one edge
    set onto the other.  Past CANONICAL_LEAF_BUDGET leaves the key is
    ("labeled", sorted edges), equal only for equal edge sets.

    Individualisation-refinement (McKay-Piperno 2014): the key is the least
    edge list relabelled by a leaf, a discrete refined colouring.  A vertex
    whose exchange with the first of its cell maps the edge set onto itself
    reaches the same leaves as that first vertex, so it is skipped.
    """
    edges = [frozenset(e) for e in edges]
    edge_set = set(edges)
    incident = {v: [e for e in edges if v in e] for v in colour}
    neighbours = {v: [u for e in es for u in e if u != v] for v, es in incident.items()}
    best, leaves, stack = None, 0, [_refine(colour, neighbours)]
    while stack:
        c = stack.pop()
        sizes = Counter(c.values())
        if len(sizes) == len(c):
            leaves += 1
            if leaves > CANONICAL_LEAF_BUDGET:
                return ("labeled", tuple(sorted(tuple(sorted(e)) for e in edges)))
            form = tuple(sorted(tuple(sorted(c[v] for v in e)) for e in edges))
            best = form if best is None else min(best, form)
            continue
        target = min(k for k, size in sizes.items() if size > 1)
        cell = [v for v in c if c[v] == target]
        for v in cell:
            swap = {cell[0]: v, v: cell[0]}
            if v == cell[0] or any(frozenset(swap.get(u, u) for u in e) not in edge_set
                                   for e in incident[cell[0]] + incident[v]):
                stack.append(_refine({u: 2 * k + (u != v) for u, k in c.items()}, neighbours))
    return ("canon", tuple(sorted(Counter(colour.values()).items())), best)


def _refine(colour, neighbours):
    """Split colour classes by the multiset of neighbouring colours until none
    splits; the classes come back renumbered 0, 1, ... in order."""
    count = len(set(colour.values()))
    while True:
        sig = {v: (k, tuple(sorted([colour[u] for u in neighbours[v]])))
               for v, k in colour.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        refined = {v: rank[s] for v, s in sig.items()}
        if len(rank) in (count, len(colour)):
            return refined
        colour, count = refined, len(rank)


def _canonical_edges(edges: FrozenSet[FrozenSet[int]]):
    """Isomorphism key for a graph with no isolated vertices."""
    return canonical_key({v: 0 for e in edges for v in e}, edges)


# A game position is (verts, edges): the vertices still alive and the edges
# among them that CON has not deleted.  Values are memoised across calls under
# each position's labelled edge set and under its canonical key.  The memo is
# module-global on purpose: the `ind-psi` check and the `game` benchmark
# evaluate many graphs that share subpositions, and a memo cleared on each
# psi call made the benchmark's `game` workload about twice as slow.  Every
# entry is an exact value, so sharing it cannot change a result.
_PSI_MEMO: Dict[object, object] = {}


def psi(g: Graph):
    """Game value Psi(G): an int, or INFINITE when CON can force an isolated
    vertex (equivalently, one exists already)."""
    return _psi_value(frozenset(range(1, g.vertex_count + 1)), g.edges)


def _psi_value(verts: FrozenSet[int], edges: FrozenSet[FrozenSet[int]]):
    """Exact value of the CON/NON deletion-explosion game at a position.

    CON offers an edge e; NON deletes it (the game goes on at G - e) or
    explodes it (at G ⊖ e, one explosion more), so
    psi(G) = max over e of min(psi(G - e), psi(G ⊖ e) + 1).  The exploded
    positions are small, so they are evaluated first: b(e) = psi(G ⊖ e) + 1
    bounds the value of edge e from above.  Edges are then tried in
    decreasing b(e), ties in sorted edge order, and the loop stops at the
    first edge with b(e) <= best, since no later edge can raise best (an
    alpha-beta cut, Knuth-Moore 1975).  The cut only skips deletion
    subtrees, so the value returned and every memo entry stay exact.
    """
    if not verts:
        return 0
    covered = {v for e in edges for v in e}
    if covered != verts:
        return INFINITE  # an isolated vertex: contractible, infinitely connected
    # The labelled position first: a repeat of it needs no canonical key.
    key = edges if edges in _PSI_MEMO else _canonical_edges(edges)
    hit = _PSI_MEMO.get(key)
    if hit is not None:
        _PSI_MEMO[edges] = hit
        return hit
    booms = [(_psi_value(*_explode(verts, edges, u, v)) + 1, (u, v))
             for u, v in sorted(tuple(sorted(e)) for e in edges)]
    booms.sort(key=lambda b: b[0], reverse=True)  # stable: ties keep edge order
    best = 0
    for boom, e in booms:
        if boom <= best:
            break
        # min(deleted, boom) returns deleted on a tie, so an infinite value
        # is always the INFINITE object itself, never INFINITE + 1.
        val = min(_psi_value(verts, edges - {frozenset(e)}), boom)
        if val > best:
            best = val
    _PSI_MEMO[edges] = _PSI_MEMO[key] = best
    return best


def _explode(verts, edges, u, v):
    """The position after NON explodes edge uv: u, v and every neighbour of
    either are removed, with all edges that touch them."""
    adj = {u, v}
    for e in edges:
        if u in e or v in e:
            adj |= e
    new_verts = verts - adj
    new_edges = frozenset(e for e in edges if not (e & adj))
    return new_verts, new_edges


# --- Topological Hall checker ----------------------------------------------


@dataclass
class HallReport:
    all_K_pass: bool
    failing_K: Optional[Tuple[int, ...]]
    matching: Optional[Tuple[Tuple[int, ...], ...]]


def hall_check(h: PartiteHypergraph, deficiency: int) -> HallReport:
    """Check eta(M(N_H(K))) >= |K| - deficiency for every K inside side 1.

    On success also exhibits a matching of size a_1 - deficiency, as promised
    by the deficiency form of the topological Hall theorem: the first edges
    of the sorted `max_matching` witness.
    """
    if h.d != 3:
        raise ValueError("hall_check supports d = 3 only")
    if deficiency < 0:
        raise ValueError(f"deficiency must be >= 0, got {deficiency}")
    a1 = h.side_sizes[0]
    if a1 > 12:
        raise ValueError("side 1 too large for subset enumeration")
    for size in range(1, a1 + 1):
        for K in itertools.combinations(range(1, a1 + 1), size):
            need = len(K) - deficiency
            if need < 1:
                continue
            complex_ = matching_complex(neighborhood(h, K))
            if not eta(complex_, cap=need).at_least(need):
                return HallReport(False, K, None)
    matching = max_matching(h)
    if len(matching) < a1 - deficiency:
        raise RuntimeError(f"every K passed, yet the largest matching has "
                           f"{len(matching)} < {a1 - deficiency} edges")
    return HallReport(True, None, matching[:max(a1 - deficiency, 0)])


# --- CON's four-phase certificate strategy ----------------------------------


def con_certificate(g: Multigraph, f: WeightFunction, s) -> int:
    """Explosion count when CON plays the four-phase row/column order and NON
    replies exactly optimally, in Meshulam's game on the line graph L(g).

    Requires f integral with values in {0, 1, 2}, row degrees <= 2s and
    column degrees <= 2.  Leftover mutually-disconnected cells cost one
    explosion each (the real game value there is infinite, so this only
    lowers the count).  The result is >= ceil(|f| / (2s + 2)).
    """
    s = Fraction(s)
    if s < 1:
        raise ValueError("s must be >= 1")
    cells = list(g.edges)
    weights = f.as_dict()
    w = {}
    for cell in cells:
        x = weights.get(cell, ZERO)
        if x not in (0, 1, 2):
            raise ValueError("weights must be in {0, 1, 2}")
        w[cell] = int(x)
    row_deg, col_deg = Counter(), Counter()
    for (b, c, _), x in w.items():
        row_deg[b] += x
        col_deg[c] += x
    if any(d > 2 * s for d in row_deg.values()):
        raise ValueError("row degree exceeds 2s")
    if any(d > 2 for d in col_deg.values()):
        raise ValueError("column degree exceeds 2")

    lg = line_graph(g)  # vertex i is cells[i - 1]
    offers = sorted((_con_phase(cells[i - 1], cells[k - 1], w), i, k)
                    for i, k in map(sorted, lg.edges))
    order = [frozenset((i, k)) for _, i, k in offers]
    result = _con_value(frozenset(range(1, len(cells) + 1)), lg.edges, order, {})
    bound = con_lower_bound(sum(w.values()), s)
    if result < bound:
        raise RuntimeError(f"certificate value {result} is below its bound {bound}")
    return result


def _con_phase(p, q, w) -> int:
    """The phase in which CON offers the pair of adjacent cells p, q: the
    first that applies of (1) a row pair of weight >= 2, (2) a column pair of
    two 1s, (3) a row pair of weights 0 and 1, (4) any other pair."""
    same_row = p[0] == q[0]
    if same_row and w[p] + w[q] >= 2:
        return 1
    if p[1] == q[1] and w[p] == w[q] == 1:
        return 2
    if same_row and {w[p], w[q]} == {0, 1}:
        return 3
    return 4


def _con_value(verts, edges, order, memo) -> int:
    """Explosions CON forces from a game position by offering the first edge
    of order still present, against NON's best replies; a position without
    edges counts one explosion per vertex left.  memo is per call, keyed by
    position."""
    offer = next((e for e in order if e in edges), None)
    if offer is None:
        return len(verts)
    hit = memo.get((verts, edges))
    if hit is not None:
        return hit
    u, v = offer
    boom_verts, boom_edges = _explode(verts, edges, u, v)
    value = min(_con_value(verts, edges - {offer}, order, memo),
                _con_value(boom_verts, boom_edges, order, memo) + 1)
    memo[(verts, edges)] = value
    return value


def con_lower_bound(f_total, s) -> int:
    """ceil(|f| / (2s + 2)), the certified connectivity bound."""
    return math.ceil(Fraction(f_total) / (2 * Fraction(s) + 2))
