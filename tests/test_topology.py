import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmat import topology
from balmat.hypergraph import Multigraph, PartiteHypergraph, WeightFunction, _all_edges
from balmat.topology import (INFINITE, Eta, Graph, SimplicialComplex, _canonical_edges,
                             betti, canonical_key, con_certificate, con_lower_bound, eta,
                             hall_check, independence_complex, line_graph,
                             matching_complex, psi)
from balmat.search import canonical_form, random_knn_balanced, random_weighted_multigraph


def circle():
    return SimplicialComplex(3, [{1, 2}, {2, 3}, {1, 3}])


def test_betti_circle():
    assert betti(circle(), -1) == 0
    assert betti(circle(), 0) == 0
    assert betti(circle(), 1) == 1


def test_betti_two_points():
    c = SimplicialComplex(2, [{1}, {2}])
    assert betti(c, 0) == 1  # one extra component in reduced homology


def test_betti_full_simplex_vanishes():
    c = SimplicialComplex(4, [{1, 2, 3, 4}])
    for j in range(-1, 4):
        assert betti(c, j) == 0


def test_graph_rejects_loops():
    with pytest.raises(ValueError, match="loops"):
        Graph(2, [(1, 1)])


def test_vertex_counts_must_be_ints():
    for make in (Graph, SimplicialComplex):
        for count in (2.0, True, Fraction(2)):
            with pytest.raises(ValueError, match="vertex count must be int"):
                make(count, [])


def test_vertices_must_be_ints():
    for bad in (1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match="vertex must be int"):
            Graph(3, [(bad, 2)])
        with pytest.raises(ValueError, match="facet vertex must be int"):
            SimplicialComplex(3, [[bad, 2]])


def test_betti_rejects_dimension_below_minus_one():
    with pytest.raises(ValueError, match="j must be >= -1"):
        betti(circle(), -2)


def test_betti_empty_complex():
    # the complex whose only face is the empty set: H~_{-1} is nontrivial
    c = SimplicialComplex(0, [frozenset()])
    assert betti(c, -1) == 1


def test_eta_conventions():
    assert eta(SimplicialComplex(0, []), 6).value == 0          # void
    assert eta(SimplicialComplex(0, [frozenset()]), 6).value == 0
    assert eta(SimplicialComplex(2, [{1}, {2}]), 6).value == 1  # disconnected
    assert eta(circle(), 6) .value == 2
    capped = eta(SimplicialComplex(3, [{1, 2, 3}]), 6)
    assert capped.value == 6 and not capped.exact


def reduced_euler(c):
    """The reduced Euler characteristic from the face counts: an oracle for
    `betti` that does not use it (the empty face has dimension -1)."""
    return sum((-1) ** j * len(c.faces_of_dim(j)) for j in range(-1, c.vertex_count))


def test_euler_characteristic():
    assert reduced_euler(circle()) == -1  # -1 + 3 - 3
    sphere = SimplicialComplex(4, [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}])
    # reduced chi of S^2 is 1
    assert reduced_euler(sphere) == 1
    assert betti(sphere, 2) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sets(st.integers(1, 5), min_size=1, max_size=3),
                min_size=1, max_size=6))
def test_euler_equals_alternating_betti(facets):
    c = SimplicialComplex(5, facets)
    top = max(len(f) for f in c.facets) - 1
    chi = sum((-1) ** j * betti(c, j) for j in range(-1, top + 1))
    assert chi == reduced_euler(c)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8))
def test_facets_are_the_maximal_sets(sets):
    fs = {frozenset(f) for f in sets}
    maximal = {f for f in fs if not any(f < g for g in fs)}
    assert set(SimplicialComplex(6, sets).facets) == maximal


def faces_from_facets(c, j):
    """Oracle for `faces_of_dim`: every (j + 1)-subset of a facet, sorted."""
    if not c.facets or j < -1:
        return []
    if j == -1:
        return [()]
    return sorted({face for f in c.facets for face in itertools.combinations(sorted(f), j + 1)})


@st.composite
def graphs(draw, max_vertices):
    n = draw(st.integers(0, max_vertices))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else [])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8))
def test_faces_of_facet_complex_match_facet_subsets(sets):
    c = SimplicialComplex(6, sets)
    for j in range(-2, 7):
        assert c.faces_of_dim(j) == faces_from_facets(c, j)


@settings(max_examples=100, deadline=None)
@given(graphs(10))
def test_faces_of_independence_complex_match_facet_subsets(g):
    c = independence_complex(g)
    for j in range(-2, g.vertex_count + 1):
        assert c.faces_of_dim(j) == faces_from_facets(c, j)


@settings(max_examples=100, deadline=None)
@given(graphs(8))
def test_independence_complex_facets_are_maximal_independent_sets(g):
    """Compared before its facets are read, then after: equal complexes, equal
    hashes, and the facets Bron-Kerbosch finds on demand are the maximal
    independent sets found by brute force."""
    n = g.vertex_count
    independent = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(1, n + 1), k)
                   if not any(frozenset(e) in g.edges for e in itertools.combinations(s, 2))]
    expected = SimplicialComplex(n, [s for s in independent
                                     if not any(s < t for t in independent)])
    assert independence_complex(g) == expected
    c = independence_complex(g)
    assert hash(c) == hash(expected) and not c.is_void
    assert c.facets == expected.facets


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8),
       st.integers(1, 6))
def test_eta_scan_matches_definition(facets, cap):
    c = SimplicialComplex(6, facets)
    if c.is_void:
        expected = Eta(0, True)
    else:
        first = next((j for j in range(-1, cap - 1) if betti(c, j) != 0), None)
        expected = Eta(cap, False) if first is None else Eta(first + 1, True)
    assert eta(c, cap) == expected


def test_rp2_has_no_rational_homology():
    """The 6-vertex RP^2 has H_1 = Z/2: zero over Q, nonzero over F_2.  A
    rank decided modulo 2 and reported as exact would read betti_1 = 1."""
    rp2 = SimplicialComplex(6, [{1, 2, 4}, {1, 2, 6}, {1, 3, 5}, {1, 3, 6}, {1, 4, 5},
                                {2, 3, 4}, {2, 3, 5}, {2, 5, 6}, {3, 4, 6}, {4, 5, 6}])
    faces = {j: rp2.faces_of_dim(j) for j in range(3)}
    assert [len(faces[j]) for j in range(3)] == [6, 15, 10]

    def rank_mod2(lower, upper):
        idx = {f: i for i, f in enumerate(lower)}
        rows = [sum(1 << idx[f[:i] + f[i + 1:]] for i in range(len(f))) for f in upper]
        rank = 0
        while rows:
            r = rows.pop()
            if r:
                low = r & -r
                rows = [x ^ r if x & low else x for x in rows]
                rank += 1
        return rank

    assert len(faces[1]) - rank_mod2(faces[0], faces[1]) - rank_mod2(faces[1], faces[2]) == 1
    for j in range(-1, 3):
        assert betti(rp2, j) == 0
    assert eta(rp2, cap=4) == Eta(4, False)


def test_independence_complex_path():
    g = Graph(3, [(1, 2), (2, 3)])
    c = independence_complex(g)
    assert frozenset({1, 3}) in c.facets
    assert frozenset({2}) in c.facets


def test_matching_complex_is_independence_of_line_graph():
    mg = Multigraph(2, 2, [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)])
    assert matching_complex(mg) == independence_complex(line_graph(mg))
    # the 4-cycle's matching complex is two disjoint edges of pairings
    assert eta(matching_complex(mg), 6).value == 1


def test_psi_basics():
    assert psi(Graph(0, [])) == 0
    assert psi(Graph(2, [(1, 2)])) == 1
    assert psi(Graph(3, [(1, 2), (2, 3)])) == 1
    assert psi(Graph(4, [(1, 2), (3, 4)])) == 2
    assert psi(Graph(3, [(1, 2)])) is INFINITE  # isolated vertex


def test_psi_matching_of_m_edges():
    for m in range(1, 8):
        edges = [(2 * i + 1, 2 * i + 2) for i in range(m)]
        assert psi(Graph(2 * m, edges)) == m
    # 13 * 11 * 9 * 7 * 5 * 3 leaves after pruning: past the budget, so the key is labeled
    assert _canonical_edges(Graph(14, edges).edges)[0] == "labeled"


def least_relabelling(colour, edges):
    """Brute-force oracle: the least sorted edge list over every
    colour-preserving permutation of the vertices."""
    classes = {}
    for v in sorted(colour):
        classes.setdefault(colour[v], []).append(v)
    cells = list(classes.values())
    best = None
    for images in itertools.product(*(itertools.permutations(c) for c in cells)):
        image = {v: w for cell, imgs in zip(cells, images) for v, w in zip(cell, imgs)}
        form = sorted(sorted(image[v] for v in e) for e in edges)
        best = form if best is None else min(best, form)
    return best


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_against_brute_force(data):
    n = data.draw(st.integers(2, 6))
    colour = dict(enumerate(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), 1))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    e1, e2 = [data.draw(st.sets(st.sampled_from(pairs))) for _ in range(2)]
    # any relabelling, applied to the colours and the edges alike
    p = dict(zip(range(1, n + 1), data.draw(st.permutations(range(1, n + 1)))))
    assert canonical_key(colour, e1) == canonical_key(
        {p[v]: k for v, k in colour.items()}, [{p[v] for v in e} for e in e1])
    assert (canonical_key(colour, e1) == canonical_key(colour, e2)) == (
        least_relabelling(colour, e1) == least_relabelling(colour, e2))


def test_canonical_key_where_refinement_alone_fails():
    # Regular graphs: colour refinement leaves one class, so only the
    # individualisation tells them (and their vertices) apart.
    c3_c4 = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    c7 = [(i, i % 7 + 1) for i in range(1, 8)]
    prism = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    k33 = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
    rng = random.Random(0)
    keys = {}
    for name, edges in [("c3_c4", c3_c4), ("c7", c7), ("prism", prism), ("k33", k33)]:
        n = max(max(e) for e in edges)
        for _ in range(20):
            p = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            key = _canonical_edges(frozenset(frozenset((p[u], p[v])) for u, v in edges))
            assert keys.setdefault(name, key) == key
    assert len(set(keys.values())) == 4


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (1, 3, 3)]), st.data())
def test_canonical_form_against_brute_force(sizes, data):
    universe = _all_edges(sizes)
    e1, e2 = [data.draw(st.sets(st.sampled_from(universe))) for _ in range(2)]
    perms = [data.draw(st.permutations(range(1, a + 1))) for a in sizes]
    relabelled = [tuple(perms[t][j - 1] for t, j in enumerate(e)) for e in e1]
    assert canonical_form(sizes, e1) == canonical_form(sizes, relabelled)
    colour = {(t, j): t for t, a in enumerate(sizes, 1) for j in range(1, a + 1)}
    oracle = [least_relabelling(colour, [set(enumerate(e, 1)) for e in es]) for es in (e1, e2)]
    assert (canonical_form(sizes, e1) == canonical_form(sizes, e2)) == (oracle[0] == oracle[1])


def test_psi_isomorphism_invariance():
    g1 = Graph(4, [(1, 2), (2, 3), (3, 4)])
    g2 = Graph(4, [(4, 3), (3, 2), (2, 1)])
    assert psi(g1) == psi(g2)


def psi_unpruned(verts, edges, memo):
    """Oracle for psi: max over every edge e of min(psi(G - e),
    psi(G exploded at e) + 1), with no cut, no early exit and no canonical
    key; memo is keyed by the labelled position."""
    if not verts:
        return 0
    if {v for e in edges for v in e} != verts:
        return math.inf
    if (verts, edges) not in memo:
        best = 0
        for e in edges:
            gone = {v for f in edges if f & e for v in f}
            boom = psi_unpruned(verts - gone, frozenset(f for f in edges if not f & gone), memo)
            best = max(best, min(psi_unpruned(verts, edges - {e}, memo), boom + 1))
        memo[verts, edges] = best
    return memo[verts, edges]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_psi_against_unpruned_oracle(data):
    """The explosion-first cut skips only subtrees: psi, from a cold memo and
    from the shared warm one, equals the unpruned game value, an infinite
    value is the INFINITE object itself, and every labelled position left in
    the cold memo holds its exact value."""
    n = data.draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    g = Graph(n, data.draw(st.sets(st.sampled_from(pairs), max_size=10)) if pairs else [])
    oracle = {}
    expected = psi_unpruned(frozenset(range(1, n + 1)), g.edges, oracle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_PSI_MEMO", {})
        cold = psi(g)
        for key, value in topology._PSI_MEMO.items():
            if isinstance(key, frozenset):
                verts = frozenset(v for e in key for v in e)
                assert value == psi_unpruned(verts, key, oracle), sorted(map(sorted, key))
    for value in (cold, psi(g)):
        assert value == expected
        assert (value is INFINITE) == (expected == math.inf)


def test_psi_lower_bounds_eta_of_independence_complex():
    g = Graph(4, [(1, 2), (3, 4)])
    val = psi(g)
    assert eta(independence_complex(g), cap=4).at_least(val)


def test_hall_check_pasch_deficiency():
    h = PartiteHypergraph((2, 2, 2),
                          [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)])
    report = hall_check(h, deficiency=1)
    assert report.all_K_pass
    assert len(report.matching) == 1
    # with deficiency 0 the full K = {1,2} demands eta >= 2, which fails
    report0 = hall_check(h, deficiency=0)
    assert not report0.all_K_pass
    assert report0.failing_K == (1, 2)


def test_hall_check_input_checks():
    with pytest.raises(ValueError, match="d = 3 only"):
        hall_check(PartiteHypergraph((2, 2), [(1, 1)]), 0)
    with pytest.raises(ValueError, match="side 1 too large"):
        hall_check(PartiteHypergraph((13, 1, 1), []), 0)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_hall_check_random_knn_matching(k, n, seed):
    h, _ = random_knn_balanced(k, n, seed=seed)
    deficiency = k - min(k, -(-n // 2))
    report = hall_check(h, deficiency)
    assert report.all_K_pass
    assert len(report.matching) == k - deficiency
    assert set(report.matching) <= set(h.edges)
    assert all(a != b for e, f in itertools.combinations(report.matching, 2)
               for a, b in zip(e, f))


def test_con_certificate_bound_and_errors():
    g = Multigraph(1, 2, [(1, 1, 0), (1, 2, 0)])
    f = WeightFunction({(1, 1, 0): 2, (1, 2, 0): 2})
    s = 2
    assert con_certificate(g, f, s) >= con_lower_bound(f.total(), s)
    with pytest.raises(ValueError):
        con_certificate(g, WeightFunction({(1, 1, 0): 3}), 2)
    with pytest.raises(ValueError):
        con_certificate(g, f, Fraction(1, 2))
    row = Multigraph(1, 3, [(1, c, 0) for c in (1, 2, 3)])
    with pytest.raises(ValueError, match="row degree exceeds 2s"):
        con_certificate(row, WeightFunction({e: 1 for e in row.edges}), 1)
    column = Multigraph(2, 1, [(1, 1, 0), (2, 1, 0)])
    with pytest.raises(ValueError, match="column degree exceeds 2"):
        con_certificate(column, WeightFunction({e: 2 for e in column.edges}), 1)


def test_con_certificate_single_heavy_cell():
    g = Multigraph(1, 1, [(1, 1, 0)])
    f = WeightFunction({(1, 1, 0): 2})
    assert con_certificate(g, f, 1) == 1


# con_certificate at random_weighted_multigraph seeds 0-99; any change to
# CON's offer order or to the game engine that alters a value fails here.
CON_VALUES = [1, 1, 2, 3, 1, 2, 2, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 2, 2, 1,
              2, 1, 2, 2, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 2, 2, 3,
              2, 2, 2, 1, 2, 3, 1, 1, 1, 2, 2, 2, 2, 2, 1, 2, 1, 1, 3, 2,
              2, 1, 2, 2, 1, 1, 1, 2, 1, 2, 2, 2, 2, 1, 2, 1, 2, 2, 3, 2,
              2, 1, 3, 1, 1, 2, 2, 2, 2, 2, 1, 2, 2, 1, 2, 2, 2, 1, 2, 2]


def test_con_certificate_pinned_values():
    """CON's fixed strategy is one of psi's strategies, and leftover cells
    cost a finite count where psi's value is infinite, so the certificate
    never exceeds psi(L(G)); here it is strictly below on 51 seeds."""
    strict = 0
    for seed, expected in enumerate(CON_VALUES):
        g, f, s = random_weighted_multigraph(seed)
        value = con_certificate(g, f, s)
        assert value == expected, seed
        game = psi(line_graph(g))
        assert value <= game
        strict += value < game
    assert strict == 51


def test_con_certificate_zero_weight_cells():
    # weight-0 cells and a parallel pair: the two row pairs of weights 0 and 1
    # (phase 3) are offered before the other pairs (phase 4); offered in
    # plain pair order, CON would force 2 explosions here
    g = Multigraph(4, 3, [(2, 2, 1), (3, 2, 0), (3, 3, 2), (3, 3, 3), (4, 3, 4)])
    f = WeightFunction({(3, 3, 2): 1})
    assert con_certificate(g, f, 1) == 1


def test_con_lower_bound_values():
    assert con_lower_bound(8, 1) == 2
    assert con_lower_bound(9, 1) == 3
