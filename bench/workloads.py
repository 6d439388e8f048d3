"""Seeded inputs, timed items and output checks for each workload.

`build(name, seed)` generates every input up front and returns a list of
`Item`s.  `Item.run()` makes the timed calls into balmat; `Item.check(result)`
runs afterwards, untimed, and returns `(ok, text)`: whether the result meets
the paper's claim or an independent oracle, and an exact rendering of the
result's invariant part (rationals as "p/q") that goes into the digest.
Items call balmat through module attributes at call time, so the wrappers
that `tracing.Tracer` installs see every call.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from balmat import cakecheck as C
from balmat import constructions as K
from balmat import dinterval as D
from balmat import hypergraph as H
from balmat import search as S
from balmat import topology as T

GEN_STRIDE = 100_000  # generator seeds of workload seed s start at s * GEN_STRIDE


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def text(x) -> str:
    """Exact, canonical rendering: rationals as "p/q", infinity as "inf"."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        if x == math.inf:
            return "inf"
        raise TypeError(f"float {x!r} in an exact result")
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(text(y) for y in x) + ")"
    if x is None:
        return "-"
    return str(x)


def _perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def relabel_graph(g, rng):
    p = _perm(rng, g.vertex_count)
    return T.Graph(g.vertex_count, [tuple(p[v - 1] for v in e) for e in g.edges])


def relabel_hypergraph(h, rng):
    """A side-internal relabelling: same nu, another branching order."""
    ps = [_perm(rng, a) for a in h.side_sizes]
    return H.PartiteHypergraph(
        h.side_sizes, [tuple(ps[t][j - 1] for t, j in enumerate(e)) for e in h.edges])


def relabel_multigraph(g, f, rng):
    pb, pc = _perm(rng, g.b_size), _perm(rng, g.c_size)
    move = lambda e: (pb[e[0] - 1], pc[e[1] - 1], e[2])
    g2 = H.Multigraph(g.b_size, g.c_size, [move(e) for e in g.edges])
    if f is None:
        return g2, None
    return g2, H.WeightFunction({move(e): w for e, w in f.weights})


def is_matching(edges, allowed) -> bool:
    allowed = set(allowed)
    return all(e in allowed for e in edges) and all(
        all(a != b for a, b in zip(e, f)) for e, f in itertools.combinations(edges, 2))


def bipartite_nu(g) -> int:
    """Maximum matching of a bipartite multigraph by augmenting paths."""
    adj = {}
    for b, c, _ in g.edges:
        adj.setdefault(b, set()).add(c)
    match_c = {}

    def augment(b, seen):
        for c in sorted(adj.get(b, ())):
            if c not in seen:
                seen.add(c)
                if c not in match_c or augment(match_c[c], seen):
                    match_c[c] = b
                    return True
        return False

    return sum(augment(b, set()) for b in sorted(adj))


# --- hall ---------------------------------------------------------------------

# (k, n), instances with one permutation row per side-1 vertex, with two rows.
# Two-row instances of (3,5) and (4,5) cost 0.13-1.8 s each and would make a
# sample's time depend on how many the seed draws, so only the small shapes
# carry them; the count of each kind is fixed.
HALL_PLAN = [((2, 3), 30, 10), ((3, 4), 30, 10), ((3, 5), 60, 0), ((4, 5), 30, 0)]


def hall_items(seed):
    items = []
    for (k, n), one_row, two_rows in HALL_PLAN:
        want = {1: one_row, 2: two_rows}
        deficiency = k - min(k, -(-n // 2))
        i = seed * GEN_STRIDE
        while want[1] or want[2]:
            h, f = S.random_knn_balanced(k, n, seed=i)
            i += 1
            rows = int(f.total() / (k * n))
            if not want.get(rows):
                continue
            want[rows] -= 1

            def check(report, h=h, need=k - deficiency):
                ok = (report.all_K_pass and report.failing_K is None
                      and len(report.matching) == need
                      and is_matching(report.matching, h.edges))
                return ok, text((report.all_K_pass, len(report.matching)))

            items.append(Item("hall_check",
                              lambda h=h, d=deficiency: T.hall_check(h, d), check))
    return items


# --- game ---------------------------------------------------------------------

GAME_CAP = 6
GAME_RANDOM_GRAPHS = 60  # random_graph seeds 0..59, as in the ind-psi check
GAME_MULTIGRAPHS = 100  # random_weighted_multigraph seeds, as in matching-bound


def all_small_graphs(max_n=5):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(pairs)):
            yield T.Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _psi_eta_check(g):
    def check(result):
        val, e = result
        covered = {v for edge in g.edges for v in edge}
        need = GAME_CAP if val == math.inf else min(int(val), GAME_CAP)
        ok = (need <= 0 or e.at_least(need))
        if len(covered) < g.vertex_count:
            ok = ok and val == math.inf  # an isolated vertex: CON has already won
        return ok, text((val, e.value, e.exact))
    return check


def _psi_eta(g):
    return T.psi(g), T.eta(T.independence_complex(g), cap=GAME_CAP)


def _matching_bound_check(f, s):
    bound = math.ceil(f.total() / (2 * s + 2))

    def check(result):
        game, cert = result
        ok = (game == math.inf or game >= bound) and cert >= bound
        return ok, text((game, cert))
    return check


def game_items(seed):
    """Seed 0 is the verify-all labelling; any other seed relabels the graphs
    on <= 5 vertices and the multigraphs.

    Psi of a dense 8-vertex graph costs 0.05-15 s cold, so drawing fresh
    graphs per seed made one sample cost 1.9-27 s.  Relabelling the random
    graphs as well moved single items by +-25 % and the p99 item by a third
    between seeds, since the labels steer which subgraphs psi explores, so
    they keep their verify-all labels at every seed.
    """
    rng = random.Random(f"game:{seed}")
    relabel = (lambda g: g) if seed == 0 else (lambda g: relabel_graph(g, rng))
    graphs = [relabel(g) for g in all_small_graphs()]
    graphs += [S.random_graph(seed=i) for i in range(GAME_RANDOM_GRAPHS)]
    items = [Item("psi+eta", lambda g=g: _psi_eta(g), _psi_eta_check(g)) for g in graphs]
    for i in range(GAME_MULTIGRAPHS):
        g, f, s = S.random_weighted_multigraph(seed=i)
        if len(g.edges) > 10:
            continue
        if seed != 0:
            g, f = relabel_multigraph(g, f, rng)
        items.append(Item(
            "psi(L)+con",
            lambda g=g, f=f, s=s: (T.psi(T.line_graph(g)), T.con_certificate(g, f, s)),
            _matching_bound_check(f, s)))
    return items


# --- search -------------------------------------------------------------------

LP_SHAPES = [(3, 3, 3), (5, 5, 5), (8, 8, 8), (3, 3, 6), (5, 5, 10), (3, 6),
             (6, 12), (3, 3, 3, 3), (4, 4, 4, 4)]
LP_PER_SHAPE = 12  # with 6, the median item moved by a tenth between seeds
DRISKO = [(6, 2), (7, 3)]  # (n, relabelled copies); drisko(8) is 0.8-1.8 s alone
NNN = range(6, 12)
NNN_COPIES = 2
ORACLE_EDGES = 16  # nu_oracle is unpruned; run it only up to this many edges
SAMPLED_TRIALS = 100
CAKE_Q = 6
# random_two_interval_family seeds 0..24 per m at every workload seed: the
# first half of the verify-all tardos inputs.  The generator redraws until a
# family has no cover, so an m = 2 family costs 1 to 95 `coverable` calls;
# with seeds shifted by the workload seed, 50 such families took 3.4 to
# 5.1 s over four seeds.
TARDOS_FAMILIES = 25


def _tardos(seed, m):
    """`random_two_interval_family` runs its `coverable` rejection test on
    every candidate, so that cost is timed with the rainbow matching."""
    family = S.random_two_interval_family(seed=seed, m=m)
    return family, D.rainbow_matching(D.DIntervalFamilies(2, [family] * (m + 1)), m + 1)


def _tardos_check(m):
    def check(result):
        family, rainbow = result
        # No (m, m)-cover: the claim is m + 1 pairwise disjoint members.
        ok = (D.coverable(family, (m, m)) is None
              and rainbow is not None and len(rainbow) == m + 1
              and len({i for i, _ in rainbow}) == m + 1
              and all(not any(lo1 < hi2 and lo2 < hi1 for (lo1, hi1), (lo2, hi2)
                              in zip(a.parts, b.parts))
                      for (_, a), (_, b) in itertools.combinations(rainbow, 2)))
        return ok, text(([iv.parts for iv in family],
                         [(i, iv.parts) for i, iv in rainbow or ()]))
    return check


def search_items(seed):
    rng = random.Random(f"search:{seed}")
    base = seed * GEN_STRIDE
    items = []
    for shape in LP_SHAPES:
        for j in range(LP_PER_SHAPE):
            h, _ = H.random_balanced(shape, seed=base + j, layers=1 + j % 3)
            d, nu_star = len(shape), Fraction(min(shape))  # nu* = min a_t when balanced

            def cert_check(cert, h=h):
                ok = (cert is not None and cert.total() == 1 and H.is_balanced(h, cert))
                return ok, text(cert is not None)

            items.append(Item("nu_star", lambda h=h: H.nu_star(h),
                              lambda v, n=nu_star: (v == n, text(v))))
            items.append(Item("balanced_certificate",
                              lambda h=h: H.balanced_certificate(h), cert_check))
            # Furedi: nu >= ceil(nu* / (d - 1)); LP duality: nu <= nu*.
            items.append(Item(
                "nu", lambda h=h: H.nu(h),
                lambda v, lo=math.ceil(nu_star / (d - 1)), hi=nu_star: (lo <= v <= hi, text(v))))
    constructions = [(K.drisko(n)[0], n - 1) for n, copies in DRISKO for _ in range(copies)]
    constructions += [(K.nnn_tight(n)[0], -(-n // 2)) for n in NNN for _ in range(NNN_COPIES)]
    for h, claimed in constructions:
        h = relabel_hypergraph(h, rng)

        def nu_check(v, h=h, claimed=claimed):
            ok = v == claimed and (len(h.edges) > ORACLE_EDGES or H.nu_oracle(h) == v)
            return ok, text(v)

        items.append(Item("nu", lambda h=h: H.nu(h), nu_check))

    def sampled_check(report):
        # Balanced (n,n,n) hypergraphs have nu >= ceil(n/2).
        w = report.witness
        ok = (report.min_nu is not None and report.min_nu >= 2 and w is not None
              and H.balanced_certificate(w) is not None and H.nu(w) == report.min_nu)
        return ok, text((report.min_nu, report.examined, report.balanced_count))

    items.append(Item("bm_search_sampled",
                      lambda: S.bm_search_sampled((3, 3, 3), seed, SAMPLED_TRIALS),
                      sampled_check))
    items.append(Item(
        "bm_search_exhaustive", lambda: S.bm_search_exhaustive((2, 2, 2)),
        lambda r: (r.min_nu == 1, text((r.min_nu, r.examined, r.balanced_count)))))
    for n in (2, 3):
        for inst in (C.instance_2n2_nn(n), C.instance_nn_2n2(n)):
            items.append(Item(
                "grid_max", lambda inst=inst: C.grid_max(inst, CAKE_Q),
                lambda r, n=n: (r[0] <= n - 1 and r[1] is not None, text(r[0]))))
    for m in (1, 2):
        for i in range(TARDOS_FAMILIES):
            items.append(Item("tardos", lambda i=i, m=m: _tardos(i, m),
                              _tardos_check(m)))
    return items


# --- homology-nonzero -----------------------------------------------------------

CHESSBOARDS = [(4, 5), (4, 6), (5, 5), (5, 6)]
# zeta_counterexample(n) keeps its labels at every seed: a relabelling of
# zeta(4) doubled its cost at one seed in five.
ZETA = (3, 4)
# The random bipartite graphs: (b, c, edges) and count.  One class with a
# fixed edge count keeps the items alike (p10-p90 cost within 2x), so the
# median and tail item fall among many similar items; with four classes of
# different cost they fell in the gaps between classes and moved by a
# quarter between seeds.
BIPARTITE = (5, 5, 15)
BIPARTITE_COUNT = 80


def _eta_item(g, cap, check):
    return Item("eta", lambda: T.eta(T.matching_complex(g), cap=cap), check)


def _eta_check(lower, upper=None, exact=False):
    def check(e):
        ok = e.value >= lower and (upper is None or e.value <= upper) and (e.exact or not exact)
        return ok, text((e.value, e.exact))
    return check


def homology_items(seed):
    rng = random.Random(f"homology:{seed}")
    items = []
    for m, n in CHESSBOARDS:
        g = H.Multigraph(m, n, [(b, c, 0) for b in range(1, m + 1) for c in range(1, n + 1)])
        # Bjorner-Lovasz-Vrecica-Zivaljevic: eta(M_{m,n}) >= min(m, n, (m+n+1)//3);
        # a scan to the top dimension must end on a nonzero Betti number.
        items.append(_eta_item(g, min(m, n) + 1,
                               _eta_check(min(m, n, (m + n + 1) // 3), exact=True)))
    for n in ZETA:
        g, _ = K.zeta_counterexample(n)
        # H_{n-2}(M(G)) != 0, so eta <= n - 1; bipartite: eta >= nu / 2.
        items.append(_eta_item(g, n + 1, _eta_check(-(-bipartite_nu(g) // 2), n - 1, True)))
    b, c, size = BIPARTITE
    cells = list(itertools.product(range(1, b + 1), range(1, c + 1)))
    for _ in range(BIPARTITE_COUNT):
        g = H.Multigraph(b, c, [(x, y, 0) for x, y in rng.sample(cells, size)])
        nu = bipartite_nu(g)
        # Aharoni-Berger-Ziv: eta(M(G)) >= nu(G) / 2 for bipartite G.
        items.append(_eta_item(g, nu + 1, _eta_check(-(-nu // 2))))
    return items


WORKLOADS = {
    "hall": hall_items,
    "game": game_items,
    "search": search_items,
    "homology-nonzero": homology_items,
}


def build(name, seed):
    return WORKLOADS[name](seed)
