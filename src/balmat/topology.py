"""Simplicial complexes, rational homology, connectivity, the Meshulam game.

Connectivity eta follows the convention "largest homologically k-connected k,
plus 2": scanning j = -1, 0, 1, ... the first nonvanishing reduced Betti
number at j gives eta = j + 1.  The void complex (no faces at all) has eta 0,
and so does the complex whose only face is the empty set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .hypergraph import Multigraph, PartiteHypergraph, WeightFunction, degrees, max_matching
from .rational import ZERO, add_row, checked, exact

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
    """A complex on the vertices 1..vertex_count, the downward closure of the
    given sets.

    No sets means the void complex (no faces); a single empty set means the
    complex whose only face is the empty set.  A face is an int mask, bit v
    for vertex v.  Faces are listed by one walk, for given sets and for
    `independence_complex(g)` alike, and `.facets` reads the faces of that
    walk that no vertex extends.  For given sets that read lists every face,
    exponentially many in the size of the largest set; only the benchmark
    tracer and the tests use it.
    """

    # Each face carries a state bitmask.  The vertices that extend a face
    # are those its state owns, less the face, and adding vertex v takes the
    # state to state & _child[v]; _start is the state of the empty face, 0
    # when the complex is void.  Given sets: bit i of a state is set i and
    # owns its vertices, the mask _sets[i], so a face's state is the sets
    # that contain it and _child[v] the sets that contain v.  An independence
    # complex has _sets None: its state is bit 0 plus the vertices outside
    # the face adjacent to none of it, bit v owning vertex v, and bit 0 keeps
    # the state of every face nonzero.

    def __init__(self, vertex_count, facets):
        if checked(vertex_count, int, "vertex count") < 0:
            raise ValueError("vertex count must be >= 0")
        fs = {frozenset(checked(v, int, "facet vertex") for v in f) for f in facets}
        vertices = sorted(set().union(*fs))
        if vertices and not 1 <= vertices[0] <= vertices[-1] <= vertex_count:
            raise ValueError("facet vertex out of range")
        self.vertex_count = vertex_count
        self._start = (1 << len(fs)) - 1
        self._sets = [sum(1 << v for v in f) for f in fs]
        self._child = [0] * (vertices[-1] + 1 if vertices else 1)
        for i, f in enumerate(fs):
            for v in f:
                self._child[v] |= 1 << i

    @property
    def facets(self) -> Tuple[FrozenSet[int], ...]:
        return tuple(sorted((frozenset(_indices(face)) for level in self._levels()
                             for face, state in level if not self._free(face, state)), key=sorted))

    @property
    def is_void(self) -> bool:
        return not self._start

    def _free(self, face: int, state: int) -> int:
        """The mask of the vertices that extend the face."""
        if self._sets is None:
            return state & ~1
        owned = 0
        for i in _indices(state):
            owned |= self._sets[i]
        return owned & ~face

    def _levels(self):
        """Yield the (face, state) lists of dimension -1, 0, 1, ..., while
        they are not empty.  A face is extended only by the vertices below
        its lowest one, in increasing order.  So each face is listed once, as
        its top vertices, a face of the level before, plus its lowest vertex,
        and a level built from a level in increasing mask order comes out in
        increasing mask order, with no sort."""
        child = self._child
        level = [(0, self._start)] if self._start else []
        while level:
            yield level
            upper = []
            for face, state in level:
                below = self._free(face, state) & (face & -face) - 1
                while below:
                    bit = below & -below
                    upper.append((face | bit, state & child[bit.bit_length() - 1]))
                    below ^= bit
            level = upper


def _indices(mask: int):
    """The positions of the set bits of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def betti(c: SimplicialComplex, j: int) -> int:
    """dim of the j-th reduced rational homology group (j >= -1), read off
    `_betti_scan`; 0 when the complex has no faces of dimension j."""
    if checked(j, int, "j") < -1:
        raise ValueError("j must be >= -1")
    return next((b for i, b in _betti_scan(c, j) if i == j), 0)


def _betti_scan(c: SimplicialComplex, top: int):
    """Yield (j, b_j), b_j the j-th reduced Betti number over Q, for
    j = -1, 0, ..., top while faces of dimension j exist.

    Step j ranks the coboundary delta_j out of dimension j over Q, as
    Ripser ranks it over a field (Bauer 2021), in `_coboundary_pivots`.
    Its rank is at most the ceiling len(level) - rank_in, rank_in being
    that of delta_{j-1}, since ker delta_j holds the image of delta_{j-1};
    and b_j is the ceiling less the rank.  Clearing (Chen-Kerber 2011)
    skips the j-faces P that led a pivot at step j - 1.  Those pivots lead
    an echelon basis of the image of delta_{j-1}, also after a stop at the
    ceiling, where the rank is full; so for each tau in P the image holds
    a cochain x that is 1 at tau and 0 on the rest of P, and
    delta_j x = 0 writes row tau of delta_j through the rows outside P.
    Between steps only the pivot faces are kept, and level j + 1 is never
    listed for step j.
    """
    levels = c._levels()
    cleared, rank_in = {}, 0  # pivots of step j - 1; the rank of delta_{j-1}
    for j in range(-1, top + 1):
        level = next(levels, [])
        if not level:
            return
        ceiling = len(level) - rank_in
        cleared = _coboundary_pivots(c, level, cleared, ceiling)
        rank_in = len(cleared)
        yield j, ceiling - rank_in


def _coboundary_pivots(c: SimplicialComplex, level, cleared, ceiling: int) -> dict:
    """The pivots, keyed by coface, of the elimination over Q of the signed
    coboundary rows of the faces of the level outside cleared, in the
    level's order, stopped once it holds `ceiling` of them.

    Each row is reduced on its largest coface by `add_row`, fraction-free.
    A face with no coface has no row.  A row whose largest coface, the face
    plus its highest free vertex, leads no pivot yet becomes a pivot
    unreduced, an emergent pair (Bauer 2021, section 3.4), so it is stored
    as (face, free) and not built.  `_coboundary` builds a row only when
    its largest coface is taken, and a stored pivot the first time such a
    row reads it: that pivot was never reduced, so the row built then is
    exactly its own."""
    pivots: dict = {}
    for face, state in level:
        if len(pivots) == ceiling:
            break
        if face in cleared:
            continue
        free = c._free(face, state)
        if not free:
            continue
        lead = face | 1 << free.bit_length() - 1
        if lead not in pivots:
            pivots[lead] = (face, free)
        else:
            add_row(pivots, _coboundary(face, free), _coboundary)
    return pivots


def _coboundary(face: int, free: int) -> Dict[int, int]:
    """The signed coboundary row of a face as {coface mask: sign}, one coface
    face | bit per vertex of free, of sign (-1)^i when i vertices of the face
    lie below the new one: the transpose of the boundary whose facet without
    the i-th lowest vertex has sign (-1)^i."""
    row = {}
    while free:
        bit = free & -free
        row[face | bit] = -1 if (face & bit - 1).bit_count() & 1 else 1
        free ^= bit
    return row


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
    if checked(cap, int, "cap") < 1:
        raise ValueError("cap must be >= 1")
    if c.is_void:
        return Eta(0, True)
    for j, b in _betti_scan(c, cap - 2):
        if b != 0:
            return Eta(j + 1, True)
    return Eta(cap, False)


# --- Independence / matching complexes --------------------------------------


def _independence(closed: List[int], start: int) -> SimplicialComplex:
    """The independence complex of the graph on 1..len(closed) - 1 in which
    closed[v] is the mask of v and its neighbours (closed[0] = 0), induced on
    the vertex bits of start; start also holds bit 0."""
    c = SimplicialComplex.__new__(SimplicialComplex)  # the tables below are all it holds
    c.vertex_count = len(closed) - 1
    c._start, c._sets = start, None
    c._child = [~mask for mask in closed]
    return c


def independence_complex(g: Graph) -> SimplicialComplex:
    """Faces are the independent sets of g, facets the maximal ones: the
    faces whose state is bit 0 alone."""
    n = g.vertex_count
    closed = [0] + [1 << v for v in range(1, n + 1)]
    for u, v in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return _independence(closed, (2 << n) - 1)


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


def _conflicts(cells) -> List[int]:
    """closed[i], for the cell (row, column) cells[i - 1], is the mask of
    the cells in its row or its column, itself among them; closed[0] = 0."""
    rows: Dict[int, int] = defaultdict(int)
    cols: Dict[int, int] = defaultdict(int)
    for i, (b, c) in enumerate(cells, 1):
        rows[b] |= 1 << i
        cols[c] |= 1 << i
    return [0] + [rows[b] | cols[c] for b, c in cells]


def matching_complex(mg: Multigraph) -> SimplicialComplex:
    """The matching complex M(G) = I(L(G)), vertices numbered like line_graph.
    The closed neighbourhood of cell i in L(G) is read straight off one mask
    per row and one per column, with no line graph built."""
    return _independence(_conflicts([(b, c) for b, c, _ in mg.edges]), (2 << len(mg.edges)) - 1)


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


# A game position is (verts, edges), two int masks: vertex v is bit v, and
# edge {u, v}, u < v, is bit (v - 1)(v - 2)/2 + u - 1 in every graph.
# _PAIRS[i] is the edge (u, v) of bit i and _INCIDENT[v] the mask of the
# edges at v, both extended by _position.  _PSI_MEMO is module-global on
# purpose: the `ind-psi` check and the `game` benchmark evaluate many graphs
# that share subpositions, and a memo cleared on each psi call made `game`
# about twice as slow.  Every entry is exact, so sharing changes no result.
_PAIRS: List[Tuple[int, int]] = []
_INCIDENT: List[int] = [0]
KEY_EDGES = 11
_PSI_MEMO: Dict[object, object] = {}


def _position(g: Graph) -> Tuple[int, int]:
    for v in range(len(_INCIDENT), g.vertex_count + 1):
        _INCIDENT[1:] = [m | _bit(u, v) for u, m in enumerate(_INCIDENT[1:], 1)]
        _INCIDENT.append(sum(_bit(u, v) for u in range(1, v)))
        _PAIRS.extend((u, v) for u in range(1, v))
    return (2 << g.vertex_count) - 2, sum(_bit(*sorted(e)) for e in g.edges)


def _bit(u: int, v: int) -> int:
    return 1 << (v - 1) * (v - 2) // 2 + u - 1


def psi(g: Graph):
    """Game value Psi(G): an int, or INFINITE when CON can force an isolated
    vertex (equivalently, one exists already).

    psi meets no position with an isolated vertex, so an edge mask alone
    fixes a position, and _PSI_MEMO holds each value under its edge mask;
    a position of at least KEY_EDGES edges also under its canonical key.
    A smaller one has fewer than 2^KEY_EDGES labelled subpositions, which
    cost less to evaluate than its key.  Both keys map to the exact value,
    so the threshold decides only how much work is shared, never a result.
    """
    if len({v for e in g.edges for v in e}) < g.vertex_count:
        return INFINITE
    return _psi_value(*_position(g))


def _psi_value(verts: int, edges: int):
    """Exact game value at a position without isolated vertices.

    CON offers an edge e; NON deletes it (the game goes on at G - e) or
    explodes it (at G ⊖ e, one explosion more), so
    psi(G) = max over e of min(psi(G - e), psi(G ⊖ e) + 1).  The exploded
    positions are small, so they are evaluated first: b(e) = psi(G ⊖ e) + 1
    bounds the value of edge e from above.  Edges are then tried in
    decreasing b(e), ties in sorted (u, v) order, and the loop stops at the
    first edge with b(e) <= best, since no later edge can raise best (an
    alpha-beta cut, Knuth-Moore 1975).  The cut only skips deletion
    subtrees, so the value returned and every memo entry stay exact.
    """
    if not edges:
        return 0
    hit = _PSI_MEMO.get(edges)
    if hit is not None:
        return hit
    pairs, todo = [], edges
    while todo:
        pairs.append(_PAIRS[(todo & -todo).bit_length() - 1])
        todo &= todo - 1
    pairs.sort()
    key = edges if len(pairs) < KEY_EDGES else _canonical_edges(frozenset(map(frozenset, pairs)))
    hit = _PSI_MEMO.get(key)
    if hit is not None:
        _PSI_MEMO[edges] = hit
        return hit
    booms = []
    for u, v in pairs:
        left, rest = _explode(verts, edges, u, v)
        lone = left  # ends nonzero when some vertex of left has no edge in rest
        while lone and rest & _INCIDENT[(lone & -lone).bit_length() - 1]:
            lone &= lone - 1
        booms.append(((INFINITE if lone else _psi_value(left, rest)) + 1, u, v))
    booms.sort(key=lambda b: b[0], reverse=True)  # stable: ties keep edge order
    best = 0
    for boom, u, v in booms:
        if boom <= best:
            break
        rest = edges & ~_bit(u, v)
        # min(deleted, boom) returns deleted on a tie, and max keeps best on
        # one, so an infinite value is the INFINITE object, never INFINITE + 1.
        best = max(best, min(_psi_value(verts, rest) if rest & _INCIDENT[u] and rest & _INCIDENT[v]
                             else INFINITE, boom))
    _PSI_MEMO[edges] = _PSI_MEMO[key] = best
    return best


def _explode(verts: int, edges: int, u: int, v: int) -> Tuple[int, int]:
    """The position after NON explodes edge uv: u, v and every neighbour of
    either are removed, with all edges that touch them."""
    touching, gone, cut = edges & (_INCIDENT[u] | _INCIDENT[v]), 0, 0
    while touching:
        a, b = _PAIRS[(touching & -touching).bit_length() - 1]
        gone |= 1 << a | 1 << b
        touching &= touching - 1
    todo = gone
    while todo:
        cut |= _INCIDENT[(todo & -todo).bit_length() - 1]
        todo &= todo - 1
    return verts & ~gone, edges & ~cut


# --- Topological Hall checker ----------------------------------------------


@dataclass
class HallReport:
    all_K_pass: bool
    failing_K: Optional[Tuple[int, ...]]
    matching: Optional[Tuple[Tuple[int, ...], ...]]


def hall_check(h: PartiteHypergraph, deficiency: int) -> HallReport:
    """Check eta(M(N_H(K))) >= |K| - deficiency for every K inside side 1.

    Two edges of H conflict when they share a vertex of side 2 or side 3;
    the conflict masks are built once, over all of H's edges.  M(N_H(K)) is
    the independence complex of the conflicts induced on the edges through
    K, so each K's complex is those masks walked from bit 0 plus those
    edges, with no neighbourhood multigraph or line graph built per K.

    On success also exhibits a matching of size a_1 - deficiency, as promised
    by the deficiency form of the topological Hall theorem: the first edges
    of the sorted `max_matching` witness.
    """
    if h.d != 3:
        raise ValueError("hall_check supports d = 3 only")
    if checked(deficiency, int, "deficiency") < 0:
        raise ValueError(f"deficiency must be >= 0, got {deficiency}")
    a1 = h.side_sizes[0]
    if a1 > 12:
        raise ValueError("side 1 too large for subset enumeration")
    closed = _conflicts([(b, c) for _, b, c in h.edges])
    through = [0] * (a1 + 1)  # through[x]: the edges through vertex x of side 1
    for i, (x, _, _) in enumerate(h.edges, 1):
        through[x] |= 1 << i
    for size in range(1, a1 + 1):
        for K in itertools.combinations(range(1, a1 + 1), size):
            need = len(K) - deficiency
            if need < 1:
                continue
            complex_ = _independence(closed, 1 | sum(through[x] for x in K))
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

    Requires f on edges of g, with values in {0, 1, 2}, row degrees <= 2s
    and column degrees <= 2, the degrees being `degrees(g, f)` on sides 1
    and 2.  Leftover mutually-disconnected cells cost one explosion each
    (the real game value there is infinite, so this only lowers the count).
    The result is >= ceil(|f| / (2s + 2)).  The game is played on `psi`'s
    int positions of L(g), with the same explosion move.
    """
    deg = degrees(g, f)
    s = exact(s, "s")
    if s < 1:
        raise ValueError("s must be >= 1")
    cells = list(g.edges)
    weights = f.as_dict()
    w = {cell: weights.get(cell, ZERO) for cell in cells}
    if any(x not in (0, 1, 2) for x in w.values()):
        raise ValueError("weights must be in {0, 1, 2}")
    for (side, _), d in deg.items():  # every row before any column
        if d > (2 * s if side == 1 else 2):
            raise ValueError("row degree exceeds 2s" if side == 1 else "column degree exceeds 2")

    lg = line_graph(g)  # vertex i is cells[i - 1]
    offers = sorted((_con_phase(cells[i - 1], cells[k - 1], w), i, k)
                    for i, k in map(sorted, lg.edges))
    order = [(_bit(i, k), i, k) for _, i, k in offers]
    result = _con_value(*_position(lg), order, {})
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
    """Explosions CON forces by offering the first (mask, u, v) of order still
    present, against NON's best replies; one per vertex left once no edge is."""
    offer = next((o for o in order if o[0] & edges), None)
    if offer is None:
        return verts.bit_count()
    if (verts, edges) not in memo:
        bit, u, v = offer
        memo[verts, edges] = min(_con_value(verts, edges & ~bit, order, memo),
                                 _con_value(*_explode(verts, edges, u, v), order, memo) + 1)
    return memo[verts, edges]


def con_lower_bound(f_total, s) -> int:
    """ceil(|f| / (2s + 2)), the certified connectivity bound."""
    return math.ceil(exact(f_total, "|f|") / (2 * exact(s, "s") + 2))
