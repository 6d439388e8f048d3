import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balmat import topology
from balmat.hypergraph import (Multigraph, PartiteHypergraph, WeightFunction, _all_edges,
                               neighborhood)
from balmat.rational import rank_of_rows
from balmat.topology import (INFINITE, Eta, Graph, SimplicialComplex, _canonical_edges,
                             betti, canonical_key, con_certificate, con_lower_bound, eta,
                             hall_check, independence_complex, line_graph,
                             matching_complex, psi)
from balmat.search import canonical_form, random_knn_balanced, random_weighted_multigraph
from test_rational import dense_fraction_rank


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
    for bad in (True, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="j must be int"):
            betti(circle(), bad)


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


def test_walk_stops_at_the_largest_vertex_of_a_set():
    """A complex's memory follows its sets, not its vertex count."""
    tracemalloc.start()
    try:
        assert eta(SimplicialComplex(10**6, [[1, 2]]), 3) == Eta(3, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_eta_cap_must_be_int():
    for cap in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="cap must be int"):
            eta(circle(), cap)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        eta(circle(), 0)


def faces_of_dim(c, j):
    """The j-dimensional faces of c as sorted vertex tuples, in lexicographic
    order, off its face walk; [()] for j = -1 unless c is void.  The walk
    must list the level's vertex masks in increasing order."""
    if j < -1:
        return []
    masks = [face for face, _ in next(itertools.islice(c._levels(), j + 1, None), [])]
    assert all(a < b for a, b in zip(masks, masks[1:]))
    return sorted(tuple(v for v in range(mask.bit_length()) if mask >> v & 1) for mask in masks)


def reduced_euler(c):
    """The reduced Euler characteristic from the face counts: an oracle for
    `betti` that does not use it (the empty face has dimension -1)."""
    return sum((-1) ** j * len(faces_of_dim(c, j)) for j in range(-1, c.vertex_count))


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


def maximal_sets(sets):
    fs = {frozenset(f) for f in sets}
    return {f for f in fs if not any(f < g for g in fs)}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8))
@example([])  # void: no facets
@example([set()])  # the empty face is the one facet
@example([{1, 2}, {1, 2}, {1}])  # a repeated set is one facet
def test_facets_are_the_maximal_sets(sets):
    assert SimplicialComplex(6, sets).facets == tuple(sorted(maximal_sets(sets), key=sorted))


def faces_from_sets(sets, j):
    """Oracle for the face walk: every (j + 1)-subset of a set, sorted."""
    if not sets or j < -1:
        return []
    return sorted({face for f in sets for face in itertools.combinations(sorted(f), j + 1)})


def independent_sets(g):
    """Every independent set of g, by brute force."""
    n = g.vertex_count
    return [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)
            if not any(frozenset(e) in g.edges for e in itertools.combinations(s, 2))]


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
        assert faces_of_dim(c, j) == faces_from_sets(sets, j)


@settings(max_examples=100, deadline=None)
@given(graphs(10))
@example(Graph(0, []))
def test_faces_of_independence_complex_match_facet_subsets(g):
    c = independence_complex(g)
    faces = independent_sets(g)
    for j in range(-2, g.vertex_count + 1):
        assert faces_of_dim(c, j) == faces_from_sets(faces, j)


@settings(max_examples=100, deadline=None)
@given(graphs(8))
@example(Graph(0, []))
def test_independence_complex_walk_matches_its_facet_complex(g):
    """The two encodings of one complex list the same faces at every level."""
    c = independence_complex(g)
    given_sets = SimplicialComplex(g.vertex_count, maximal_sets(independent_sets(g)))
    for j in range(-1, g.vertex_count + 1):
        assert faces_of_dim(c, j) == faces_of_dim(given_sets, j)


@settings(max_examples=100, deadline=None)
@given(graphs(8))
def test_independence_complex_facets_are_maximal_independent_sets(g):
    """The facets the face walk finds are the maximal independent sets found
    by brute force, as the complex of those sets reads them."""
    expected = SimplicialComplex(g.vertex_count, maximal_sets(independent_sets(g)))
    c = independence_complex(g)
    assert not c.is_void
    assert (c.vertex_count, c.facets) == (expected.vertex_count, expected.facets)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8),
       st.integers(1, 6))
@example(facets=[{1, 2}, {1, 3, 4, 5}, {2, 3}], cap=3)  # b_1 = 1 below faces of dimension 2
def test_eta_scan_matches_definition(facets, cap):
    """`betti` and `eta` both read `_betti_scan`; the oracle takes each Betti
    number from the faces of dimensions j - 1, j and j + 1 alone, and ranks
    their dense signed boundary matrices by Gauss-Jordan over `Fraction`
    with no ceiling, sharing no code with the scan's coboundary steps."""
    c = SimplicialComplex(6, facets)

    def rank(lower, upper):
        idx = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = [0] * len(lower)
            for i in range(len(f)):
                row[idx[f[:i] + f[i + 1:]]] = (-1) ** i
            rows.append(row)
        return dense_fraction_rank(rows, len(lower))

    oracle = []
    for j in range(-1, cap - 1):
        lower, fj, upper = (faces_of_dim(c, i) for i in (j - 1, j, j + 1))
        oracle.append(len(fj) - rank(lower, fj) - rank(fj, upper))
    assert [betti(c, j) for j in range(-1, cap - 1)] == oracle
    if c.is_void:
        expected = Eta(0, True)
    else:
        first = next((j - 1 for j, b in enumerate(oracle) if b != 0), None)
        expected = Eta(cap, False) if first is None else Eta(first + 1, True)
    assert eta(c, cap) == expected


def rp2():
    """The 6-vertex triangulation of the real projective plane."""
    return SimplicialComplex(6, [{1, 2, 4}, {1, 2, 6}, {1, 3, 5}, {1, 3, 6}, {1, 4, 5},
                                 {2, 3, 4}, {2, 3, 5}, {2, 5, 6}, {3, 4, 6}, {4, 5, 6}])


def test_rp2_has_no_rational_homology():
    """The 6-vertex RP^2 has H_1 = Z/2: zero over Q, nonzero over F_2.  A
    rank decided modulo 2 and reported as exact would read betti_1 = 1."""
    c = rp2()
    faces = {j: faces_of_dim(c, j) for j in range(3)}
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
        assert betti(c, j) == 0
    assert eta(c, cap=4) == Eta(4, False)


def dense_betti(faces):
    """Reduced Betti numbers over Q of the complex whose faces are given as
    sets (the empty face among them), one per dimension -1 .. top, from
    dense boundary matrices: b_j = |F_j| - rank d_j - rank d_{j+1}."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    top = max(by_dim, default=-2)

    def boundary_rank(j):  # d_j from dimension j to j - 1
        if j - 1 not in by_dim or j not in by_dim:
            return 0
        lower = {f: i for i, f in enumerate(by_dim[j - 1])}
        rows = []
        for f in by_dim[j]:
            row = [0] * len(lower)
            for i in range(len(f)):
                row[lower[f[:i] + f[i + 1:]]] = (-1) ** i
            rows.append(row)
        return dense_fraction_rank(rows, len(lower))

    return [len(by_dim.get(j, [])) - boundary_rank(j) - boundary_rank(j + 1)
            for j in range(-1, top + 1)]


def check_scan_against_dense_oracle(c, faces):
    """`betti` at every dimension, and `eta` at every cap, against the dense
    oracle on the faces listed by brute force."""
    oracle = dense_betti(faces)
    dims = len(oracle)
    assert [betti(c, j) for j in range(-1, dims + 1)] == oracle + [0, 0]
    for cap in range(1, dims + 3):
        if not faces:
            expected = Eta(0, True)
        else:
            first = next((i for i, b in enumerate(oracle[:cap]) if b), None)  # j = i - 1
            expected = Eta(cap, False) if first is None else Eta(first, True)
        assert eta(c, cap) == expected


def suspension(facets, apexes):
    return [set(f) | {a} for f in facets for a in apexes]


RP2 = [{1, 2, 4}, {1, 2, 6}, {1, 3, 5}, {1, 3, 6}, {1, 4, 5},
       {2, 3, 4}, {2, 3, 5}, {2, 5, 6}, {3, 4, 6}, {4, 5, 6}]
# RP^2, a tetrahedron on its triangle 124, and a 2-sphere on 8..11
RP2_BALL_SPHERE = (RP2 + [{1, 2, 4, 7}]
                   + [set(t) for t in itertools.combinations(range(8, 12), 3)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(1, 7), max_size=5), max_size=7))
@example(RP2)  # H_1 = Z/2: b = 0 over Q, 1 over GF(2) in dimensions 1 and 2
@example(suspension(RP2, (7, 8)))  # the torsion moves up to dimension 2
@example(RP2 + [{7, 8}, {8, 9}, {7, 9}])  # RP^2 and a circle: b_0 = b_1 = 1
@example(RP2_BALL_SPHERE)  # step 2 clears 15 of 17 triangles, one row left: b_2 = 1
@example([])
@example([set()])
def test_scan_matches_dense_oracle_on_given_sets(sets):
    c = SimplicialComplex(11, sets)
    faces = {frozenset(x) for f in sets for k in range(len(f) + 1)
             for x in itertools.combinations(f, k)}
    check_scan_against_dense_oracle(c, faces)


@settings(max_examples=60, deadline=None)
@given(graphs(7))
@example(Graph(6, [(1, 2), (3, 4), (5, 6)]))  # I(3 K_2) is an octahedron: b_2 = 1
@example(Graph(0, []))
def test_scan_matches_dense_oracle_on_independence_complexes(g):
    check_scan_against_dense_oracle(independence_complex(g), independent_sets(g))


def boundary(face):
    """The boundary of a face as {facet mask: sign}, the sign of the facet
    without the i-th lowest vertex being (-1)^i."""
    return {face ^ 1 << v: (-1) ** (face & (1 << v) - 1).bit_count()
            for v in range(face.bit_length()) if face >> v & 1}


def scan_steps(c):
    """(level, cleared, ceiling, upper) for each step of the scan of c,
    cleared being the pivots of the step before, ceiling the bound the
    scan passes, and upper the next level's faces."""
    levels, cleared = list(c._levels()), {}
    for j, level in enumerate(levels):
        upper = [face for face, _ in levels[j + 1]] if j + 1 < len(levels) else []
        ceiling = len(level) - len(cleared)
        yield level, cleared, ceiling, upper
        cleared = topology._coboundary_pivots(c, level, cleared, ceiling)


def coboundary_rows(level, upper):
    """Each face's signed coboundary row, read off the boundaries of the
    next level: (face, {coface: sign})."""
    return [(face, {u: boundary(u)[face] for u in upper if u & face == face})
            for face, _ in level]


def restricted_rank(rows, cols):
    """The rank over Q of the rows restricted to the columns cols, as a
    dense matrix ranked by Gauss-Jordan over `Fraction`."""
    cols = sorted(cols)
    return dense_fraction_rank([[row.get(u, 0) for u in cols] for _, row in rows], len(cols))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8))
@example(RP2)
def test_coboundary_pivots_lead_the_span_and_bound_the_rational_rank(sets):
    """At each step, run with the pivots of the step before cleared and
    stopped at the ceiling, the pivot count is the rational rank of the
    boundary out of the next level, and the pivot keys lead the span of
    every coboundary row of the level, cleared ones included: a coface
    leads a vector of the span exactly when the rank of the rows restricted
    to the cofaces from it up exceeds that from the next one up.  So the
    rows restricted to the pivot columns have rank |P|, which is what lets
    the next step clear them."""
    c = SimplicialComplex(6, sets)
    for level, cleared, ceiling, upper in scan_steps(c):
        pivots = topology._coboundary_pivots(c, level, cleared, ceiling)
        assert len(pivots) == rank_of_rows(boundary(u) for u in upper)
        rows = coboundary_rows(level, upper)
        ranks = [restricted_rank(rows, upper[i:]) for i in range(len(upper) + 1)]
        assert set(pivots) == {u for i, u in enumerate(upper) if ranks[i] > ranks[i + 1]}
        assert restricted_rank(rows, pivots) == len(pivots)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 7), max_size=5), max_size=7))
@example(RP2)
@example(RP2_BALL_SPHERE)
def test_lazy_coboundary_rank_equals_the_boundary_rank(sets):
    """At every step each face's signed coboundary row is the transpose of
    the boundary rows of the next level, and the pivots of the rows outside
    those of the step before number the rational rank of the whole boundary
    out of the next level, and lead rows independent on their own columns:
    clearing loses no rank over Q, torsion or not."""
    c = SimplicialComplex(11, sets)
    for level, cleared, ceiling, upper in scan_steps(c):
        rows = coboundary_rows(level, upper)
        for (face, state), (_, row) in zip(level, rows):
            assert topology._coboundary(face, c._free(face, state)) == row
        pivots = topology._coboundary_pivots(c, level, cleared, ceiling)
        assert len(pivots) == rank_of_rows(boundary(u) for u in upper)
        assert restricted_rank(rows, pivots) == len(pivots)


def test_clearing_after_a_torsion_step():
    """On RP2_BALL_SPHERE the steps -1 to 3 stop at ceilings 1, 10, 15, 2
    and 0.  Step 1 reaches its ceiling 15 = rank_Q delta_1 on the 15 edges
    that step 0 left, where the 2-torsion of RP^2 holds the GF(2) rank to
    14.  Step 2 clears those 15 of its 17 triangles; of the 2 left one has
    a coface, 124 under the tetrahedron, and its rank 1 against the
    ceiling 17 - 15 = 2 leaves b_2 = 1, the sphere.  A clearing that lost
    that row would read b_2 = 2."""
    c = SimplicialComplex(11, RP2_BALL_SPHERE)
    steps = [(level, cleared, ceiling, topology._coboundary_pivots(c, level, cleared, ceiling))
             for level, cleared, ceiling, _ in scan_steps(c)]
    assert [(len(level), len(cleared), ceiling, len(pivots))
            for level, cleared, ceiling, pivots in steps] == [
        (1, 0, 1, 1), (11, 1, 10, 9), (24, 9, 15, 15), (17, 15, 2, 1), (1, 1, 0, 0)]
    # the faces outside cleared that have a coface, one row each
    assert [sum(face not in cleared and c._free(face, state) != 0 for face, state in level)
            for level, cleared, _, _ in steps] == [1, 10, 15, 1, 0]
    level, cleared, _, pivots = steps[3]  # j = 2
    assert [face for face, state in level if face not in cleared
            and c._free(face, state)] == [0b10110]  # 124
    assert list(topology._betti_scan(c, 4)) == [(-1, 0), (0, 1), (1, 0), (2, 1), (3, 0)]


def eager_reads(rows, ceiling):
    """An eager elimination over Q, in `Fraction`s, of rows given as
    (face, {coface: sign}), each reduced on its largest coface and stopped
    at ceiling pivots.  Returns its pivot keys, the faces whose largest
    coface was taken when they came, and the faces of the unreduced pivots
    that some later row read."""
    pivots, collided, read = {}, [], set()  # largest coface -> (row, face if unreduced)
    for face, row in rows:
        if len(pivots) == ceiling:
            break
        row = {u: Fraction(x) for u, x in row.items()}
        if row and max(row) in pivots:
            collided.append(face)
        unreduced = face
        while row:
            pivot = pivots.get(max(row))
            if pivot is None:
                pivots[max(row)] = (row, unreduced)
                break
            if pivot[1] is not None:
                read.add(pivot[1])
            f = row[max(row)] / pivot[0][max(row)]
            row = {u: x for u in row.keys() | pivot[0].keys()
                   if (x := row.get(u, 0) - f * pivot[0].get(u, 0))}
            unreduced = None
    return set(pivots), collided, read


def record_builds(monkeypatch):
    """The faces whose signed rows `_coboundary` builds from now on, in order."""
    built, build = [], topology._coboundary
    monkeypatch.setattr(topology, "_coboundary", lambda face, free: built.append(face) or
                        build(face, free))
    return built


def check_lazy_builds(c, level, cleared, ceiling, upper):
    """The lazy elimination's pivots against the eager one's, and its row
    builds: one per row whose largest coface was taken, and one per
    unreduced pivot such a row read; an emergent row is built no more."""
    rows = [(face, row) for face, row in coboundary_rows(level, upper) if face not in cleared]
    expected, collided, read = eager_reads(rows, ceiling)
    with pytest.MonkeyPatch.context() as m:
        built = record_builds(m)
        assert set(topology._coboundary_pivots(c, level, cleared, ceiling)) == expected
    assert Counter(built) == Counter(collided) + Counter(read)
    return len(rows), len(collided), len(built)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 7), max_size=5), max_size=7))
@example(RP2)  # step 1: two rows collide, five rows built, no zero row
@example([{2, 5}, {1, 2, 4}, {1, 3, 5}, {3, 4, 5}])  # step 1 reads edge 12's pivot twice
def test_lazy_builds_match_the_eager_elimination(sets):
    c = SimplicialComplex(9, sets)
    for step in scan_steps(c):
        check_lazy_builds(c, *step)


def test_two_segments_build_only_the_colliding_row_and_its_pivot(monkeypatch):
    """Two disjoint segments 12 and 34.  Step 0 clears vertex 4, the lead of
    the empty face.  Vertex 1 leads 12 and is stored unbuilt; vertex 2's
    largest coface is 12 too, so its row is built, and so is vertex 1's when
    vertex 2 reads it, and their sum is zero: b_0 = 1.  Vertex 3, leading
    34, is stored unbuilt.  No other step builds a row."""
    c = SimplicialComplex(4, [{1, 2}, {3, 4}])
    assert [check_lazy_builds(c, *step) for step in scan_steps(c)] == [
        (1, 0, 0), (3, 1, 2), (0, 0, 0)]
    built = record_builds(monkeypatch)
    assert [b for _, b in topology._betti_scan(c, 1)] == [0, 1, 0]
    assert built == [0b100, 0b10]  # vertex 2's row, then vertex 1's


def test_hall_workload_builds_rows_only_on_collisions(monkeypatch):
    """Each complex `hall_check` scans for a (2, 3) instance of the hall
    benchmark at seed 0, the first whose scan meets a collision, builds
    exactly the rows `check_lazy_builds` allows: of its 12 rows one
    collides, and it builds its own row and that of the pivot it reads."""
    h, _ = random_knn_balanced(2, 3, seed=16)
    steps, scan = [], topology._coboundary_pivots
    monkeypatch.setattr(topology, "_coboundary_pivots", lambda c, level, cleared, ceiling: (
        steps.append((c, level, cleared, ceiling)) or scan(c, level, cleared, ceiling)))
    assert hall_check(h, 0).all_K_pass
    monkeypatch.undo()
    totals = Counter()
    for c, level, cleared, ceiling in steps:
        upper = [face for face, _ in next(itertools.islice(
            c._levels(), level[0][0].bit_count() + 1, None), [])]
        rows, collided, built = check_lazy_builds(c, level, cleared, ceiling, upper)
        totals.update(rows=rows, collided=collided, built=built)
    assert totals == Counter(rows=12, collided=1, built=2)


def test_independence_complex_path():
    g = Graph(3, [(1, 2), (2, 3)])
    assert independence_complex(g).facets == (frozenset({1, 3}), frozenset({2}))


def test_matching_complex_is_independence_of_line_graph():
    mg = Multigraph(2, 2, [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)])
    c, expected = matching_complex(mg), independence_complex(line_graph(mg))
    assert (c.vertex_count, c.facets) == (expected.vertex_count, expected.facets)
    # the 4-cycle's matching complex is two disjoint edges of pairings
    assert eta(matching_complex(mg), 6).value == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3),
       st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)), max_size=9))
def test_matching_complex_from_conflict_masks_matches_the_line_graph(b, c, cells):
    """Parallel cells share a row and a column; the masks read both."""
    mg = Multigraph(b, c, [(x, y, lab) for x, y, lab in cells if x <= b and y <= c])
    got, expected = matching_complex(mg), independence_complex(line_graph(mg))
    assert (got.vertex_count, got.facets) == (expected.vertex_count, expected.facets)


@settings(max_examples=60, deadline=None)
@given(h=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda sizes: st.sets(st.sampled_from(_all_edges(sizes)), max_size=14).map(
        lambda edges: PartiteHypergraph(sizes, edges))))
def test_hall_check_complexes_match_the_neighbourhood_matching_complexes(h):
    """`hall_check` walks one set of conflict masks from each K's edges.
    Each complex it hands to `eta` has, at every cap, the `eta` of
    M(N_H(K)).  The recorder passes every K, so all are reached; the
    matching check that follows may then refuse, and this test ignores it."""
    seen = []

    def recorded(complex_, cap):
        seen.append(complex_)
        return Eta(cap, False)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(topology, "eta", recorded)
        try:
            hall_check(h, 0)
        except RuntimeError:
            pass
    subsets = [K for size in range(1, h.side_sizes[0] + 1)
               for K in itertools.combinations(range(1, h.side_sizes[0] + 1), size)]
    assert len(seen) == len(subsets)
    for complex_, K in zip(seen, subsets):
        expected = matching_complex(neighborhood(h, K))
        for cap in range(1, len(K) + 2):
            assert eta(complex_, cap) == eta(expected, cap)


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


def test_canonical_key_of_a_star_prunes_twin_leaves(monkeypatch):
    """The leaves of K_{1,200} are twins: exchanging two maps the edge set onto
    itself, so each level individualises one leaf and skips the rest."""
    calls = []
    refine = topology._refine

    def counted(colour, neighbours):
        calls.append(1)
        return refine(colour, neighbours)

    monkeypatch.setattr(topology, "_refine", counted)
    key = _canonical_edges(frozenset(frozenset((0, v)) for v in range(1, 201)))
    assert key[0] == "canon"
    assert len(calls) <= 400


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


# Edge {u, v}, u < v, is bit (v - 1)(v - 2)/2 + u - 1 of a psi position.
EDGE_OF_BIT = {(v - 1) * (v - 2) // 2 + u - 1: frozenset((u, v))
               for v in range(2, 16) for u in range(1, v)}


def edges_of_mask(mask):
    return frozenset(EDGE_OF_BIT[i] for i in range(mask.bit_length()) if mask >> i & 1)


def test_psi_positions_use_the_global_edge_bits():
    for v in range(2, 16):
        for u in range(1, v):
            g = Graph(15, [(v, u)])
            assert topology._position(g) == ((1 << 16) - 2, 1 << (v - 1) * (v - 2) // 2 + u - 1)
            assert topology._PAIRS[(v - 1) * (v - 2) // 2 + u - 1] == (u, v)
            assert topology._INCIDENT[u] & topology._INCIDENT[v] == topology._position(g)[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_psi_against_unpruned_oracle(data):
    """The explosion-first cut skips only subtrees: psi, from a cold memo and
    from the shared warm one, equals the unpruned game value, and an infinite
    value is the INFINITE object itself.  Every edge mask left in the cold
    memo holds the exact value of its position, and from KEY_EDGES edges up
    so does its canonical key.  The cold run is made twice: with KEY_EDGES
    as it is, and with 0, which keys every position."""
    n = data.draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    g = Graph(n, data.draw(st.sets(st.sampled_from(pairs), max_size=10)) if pairs else [])
    oracle = {}
    expected = psi_unpruned(frozenset(range(1, n + 1)), g.edges, oracle)
    colds = []
    for key_edges in (topology.KEY_EDGES, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "_PSI_MEMO", {})
            mp.setattr(topology, "KEY_EDGES", key_edges)
            colds.append(psi(g))
            memo = topology._PSI_MEMO
        masks = [key for key in memo if isinstance(key, int)]
        assert bool(masks) == (bool(g.edges) and len({v for e in g.edges for v in e}) == n)
        assert len(masks) <= len(memo) <= 2 * len(masks)
        for mask in masks:
            edges = edges_of_mask(mask)
            verts = frozenset(v for e in edges for v in e)
            assert memo[mask] == psi_unpruned(verts, edges, oracle), sorted(map(sorted, edges))
            if len(edges) >= key_edges:
                assert memo[_canonical_edges(edges)] == memo[mask]
    for value in colds + [psi(g)]:
        assert value == expected
        assert (value is INFINITE) == (expected == math.inf)


def test_psi_keys_only_positions_of_at_least_key_edges():
    """Below KEY_EDGES edges the labelled memo is the only memo: no position
    with fewer edges is keyed, and the larger ones are."""
    sizes = []

    def recording(edges):
        sizes.append(len(edges))
        return canonical_key({v: 0 for e in edges for v in e}, edges)

    k = topology.KEY_EDGES
    matching = Graph(2 * k, [(2 * i + 1, 2 * i + 2) for i in range(k)])
    dense = Graph(8, random.Random(3).sample(list(itertools.combinations(range(1, 9), 2)), 14))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_PSI_MEMO", {})
        mp.setattr(topology, "_canonical_edges", recording)
        assert psi(matching) == k  # explosions reach every smaller matching
        psi(dense)
        memo = topology._PSI_MEMO
    assert min(sizes) == k and max(sizes) == 14
    large = [key for key in memo if isinstance(key, int) and key.bit_count() >= k]
    assert 0 < sum(isinstance(key, tuple) for key in memo) <= len(large)


def test_psi_keyed_positions_are_relabelling_invariant():
    """Graphs of KEY_EDGES to KEY_EDGES + 3 edges, each under four
    relabellings, every one from a cold memo: one value per graph, the
    unpruned game value."""
    rng = random.Random(0)
    pairs = list(itertools.combinations(range(1, 9), 2))
    for extra in range(4):
        edges = rng.sample(pairs, topology.KEY_EDGES + extra)
        g = Graph(8, edges)
        expected = psi_unpruned(frozenset(range(1, 9)), g.edges, {})
        for _ in range(4):
            p = dict(zip(range(1, 9), rng.sample(range(1, 9), 8)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(topology, "_PSI_MEMO", {})
                assert psi(Graph(8, [(p[u], p[v]) for u, v in edges])) == expected


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
    pasch = PartiteHypergraph((2, 2, 2), [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)])
    for deficiency in (True, 1.5, 1.0):
        with pytest.raises(ValueError, match="deficiency must be int"):
            hall_check(pasch, deficiency)


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


@pytest.mark.parametrize("bad", [1.1, 2.0, True, "2"])
def test_con_inputs_are_int_or_fraction(bad):
    g = Multigraph(1, 2, [(1, 1, 0), (1, 2, 0)])
    f = WeightFunction({(1, 1, 0): 2, (1, 2, 0): 2})
    with pytest.raises(ValueError, match="s must be int or Fraction"):
        con_certificate(g, f, bad)
    with pytest.raises(ValueError, match="s must be int or Fraction"):
        con_lower_bound(4, bad)
    with pytest.raises(ValueError, match=r"\|f\| must be int or Fraction"):
        con_lower_bound(bad, 1)
    assert (con_lower_bound(Fraction(7, 2), Fraction(3, 4)), con_lower_bound(7, 1)) == (1, 2)


def test_con_certificate_refuses_weights_off_the_graph():
    """A weight on a cell that is not an edge of g is refused, as `degrees`
    refuses it, not dropped from the count."""
    g = Multigraph(2, 2, [(1, 1, 0), (2, 2, 0)])
    f = WeightFunction({(1, 1, 0): 1, (2, 2, 0): 1, (1, 2, 0): 2})
    with pytest.raises(ValueError, match=r"weighted edge \(1, 2, 0\) not in hypergraph"):
        con_certificate(g, f, 1)
    assert con_certificate(g, WeightFunction({(1, 1, 0): 1, (2, 2, 0): 1}), 1) == 2


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


def test_con_certificate_on_one_full_row():
    """Fifty cells in one row, each of weight 1, s = 25: L(g) is K_50, so
    NON may delete its 1,225 edges one by one, while any explosion clears
    it, and CON forces exactly one.  Only explosions add depth, so the long
    chain of deletions raises no RecursionError."""
    g = Multigraph(1, 50, [(1, c, 0) for c in range(1, 51)])
    f = WeightFunction({e: 1 for e in g.edges})
    assert con_certificate(g, f, 25) == 1


def test_con_lower_bound_values():
    assert con_lower_bound(8, 1) == 2
    assert con_lower_bound(9, 1) == 3
