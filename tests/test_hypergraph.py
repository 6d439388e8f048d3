import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balmat import hypergraph
from balmat.constructions import drisko
from balmat.rational import ONE, Optimal
from balmat.hypergraph import (Multigraph, PartiteHypergraph, WeightFunction,
                               _capped_matching, balanced_certificate, check_hosted,
                               check_side_sizes,
                               degrees, is_balanced, max_matching, neighborhood, nu,
                               nu_oracle, nu_star, random_balanced)
from test_rational import _fraction_simplex, _vertices

PASCH_EDGES = [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]


def pasch():
    return PartiteHypergraph((2, 2, 2), PASCH_EDGES)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        PartiteHypergraph((2, 2), [(1, 1, 1)])
    with pytest.raises(ValueError):
        PartiteHypergraph((2, 2), [(3, 1)])
    # duplicates collapse
    h = PartiteHypergraph((2, 2), [(1, 1), (1, 1)])
    assert h.edges == ((1, 1),)
    # non-integers are rejected, not truncated; a bool is no int
    with pytest.raises(ValueError, match="side size must be int, not float"):
        PartiteHypergraph((2.7, 2), [(1, 1)])
    with pytest.raises(ValueError, match="edge coordinate must be int, not float"):
        PartiteHypergraph((2, 2), [(1.9, 1), (2, 2)])
    with pytest.raises(ValueError, match="edge coordinate must be int, not bool"):
        PartiteHypergraph((2, 2), [(True, 1)])
    with pytest.raises(ValueError, match="side size must be int, not Fraction"):
        check_side_sizes([Fraction(2)])


def test_degrees_pasch():
    h = pasch()
    f = WeightFunction({e: Fraction(1, 4) for e in h.edges})
    deg = degrees(h, f)
    assert set(deg.values()) == {Fraction(1, 2)}
    assert is_balanced(h, f)


def test_unbalanced_weighting_detected():
    h = PartiteHypergraph((2, 2), [(1, 1), (2, 2), (1, 2)])
    f = WeightFunction({(1, 1): 1, (2, 2): 1, (1, 2): 1})
    assert not is_balanced(h, f)


def test_check_hosted():
    h = PartiteHypergraph((2, 2), [(1, 1)])
    check_hosted(h, WeightFunction({(1, 1): 1}))
    with pytest.raises(ValueError, match="not in hypergraph"):
        check_hosted(h, WeightFunction({(1, 1): 1, (2, 2): 1}))


def test_weight_function_rejects_negative():
    with pytest.raises(ValueError):
        WeightFunction({(1, 1): -1})


@pytest.mark.parametrize("bad", [0.5, 0.1, True, "1", None])
def test_weight_function_rejects_weights_that_are_not_int_or_fraction(bad):
    # Fraction(0.5) would pass for 1/2, and Fraction(0.1) is an inexact binary fraction
    with pytest.raises(ValueError, match="must be int or Fraction"):
        WeightFunction({(1, 1): bad})
    assert WeightFunction({(1, 1): 2, (2, 2): Fraction(1, 3)}).total() == Fraction(7, 3)


def test_degrees_rejects_unhosted_edge():
    h = PartiteHypergraph((3, 3), [(1, 1)])
    with pytest.raises(ValueError, match=r"weighted edge \(1, 3\) not in hypergraph"):
        degrees(h, WeightFunction({(1, 1): 1, (1, 3): 1}))
    with pytest.raises(ValueError, match="not in hypergraph"):
        is_balanced(h, WeightFunction({(1, 3): 1}))


@st.composite
def weighted_multigraphs(draw):
    """A Multigraph on 1-4 rows and 1-4 columns whose parallel edges carry
    distinct labels, and nonnegative Fraction weights on some of its edges."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(1, rows), st.integers(1, cols)), max_size=10))
    g = Multigraph(rows, cols, [(b, c, label) for label, (b, c) in enumerate(cells)])
    weighted = draw(st.sets(st.sampled_from(g.edges))) if g.edges else set()
    weights = st.fractions(min_value=0, max_value=3, max_denominator=4)
    return g, WeightFunction({e: draw(weights) for e in weighted})


@settings(max_examples=150, deadline=None)
@given(weighted_multigraphs(), st.data())
def test_degrees_on_multigraphs_match_row_and_column_sums(gf, data):
    g, f = gf
    weights = f.as_dict()
    sums = {(1, b): sum((w for (r, _, _), w in weights.items() if r == b), Fraction(0))
            for b in range(1, g.b_size + 1)}
    sums.update({(2, c): sum((w for (_, k, _), w in weights.items() if k == c), Fraction(0))
                 for c in range(1, g.c_size + 1)})
    assert degrees(g, f) == sums
    assert list(degrees(g, f)) == list(sums)  # rows, then columns, by index
    assert is_balanced(g, f) == all(
        len({x for (t, _), x in sums.items() if t == side}) == 1 for side in (1, 2))
    b, c = data.draw(st.integers(1, g.b_size)), data.draw(st.integers(1, g.c_size))
    off = WeightFunction({**weights, (b, c, len(g.edges)): 1})  # an unused label
    for check in (degrees, is_balanced):
        with pytest.raises(ValueError, match="not in hypergraph"):
            check(g, off)


def test_balanced_certificate_pasch():
    f = balanced_certificate(pasch())
    assert f is not None
    assert f.total() == 1
    assert is_balanced(pasch(), f)


def test_balanced_certificate_isolated_vertex():
    # vertex (1,2) has no edge, so no balanced weighting exists
    h = PartiteHypergraph((2, 2), [(1, 1), (1, 2)])
    assert balanced_certificate(h) is None


def test_balanced_certificate_below_one_without_isolated_vertex():
    # every vertex has an edge, yet the capped LP stops at 5/6 < 1
    h = PartiteHypergraph((2, 3), [(1, 1), (1, 2), (1, 3), (2, 1)])
    assert _capped_matching(h, lambda a: Fraction(1, a)).value == Fraction(5, 6)
    assert balanced_certificate(h) is None


def _shift(r, sizes):
    """+c on side 1 and -c on side 2 of the cover: each edge's sum stays,
    and so does the total under caps 1/a_t, but entries turn negative."""
    a, b = sizes[0], sizes[0] + sizes[1]
    c = 1 + max(r.dual)
    return [y + c for y in r.dual[:a]] + [y - c for y in r.dual[a:b]] + r.dual[b:]


# Each breaks one clause of the certificate on the pasch quadruple, whose
# vertices all have the same cap: the totals agree (dual doubled), the
# cover covers (its mass moved onto one vertex), y >= 0 (`_shift`), f keeps
# its caps (f, y and the value all doubled), the cover has one entry per
# vertex.  On the (3, 6) instance the second and third may break the
# totals as well.
CORRUPTIONS = [
    lambda r, sizes: dataclasses.replace(r, dual=[2 * y for y in r.dual]),
    lambda r, sizes: dataclasses.replace(r, dual=[sum(r.dual)] + [0] * (len(r.dual) - 1)),
    lambda r, sizes: dataclasses.replace(r, dual=_shift(r, sizes)),
    lambda r, sizes: Optimal(2 * r.value, [2 * x for x in r.point], [2 * y for y in r.dual]),
    lambda r, sizes: dataclasses.replace(r, dual=r.dual[:-1]),
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("solve", [nu_star, balanced_certificate])
def test_corrupted_lp_certificate_raises(monkeypatch, corrupt, solve):
    """The cover check rejects an LP answer that the simplex got wrong."""
    assert_corruption_raises(monkeypatch, corrupt, solve, pasch())


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("solve", [nu_star, balanced_certificate])
def test_corrupted_lp_certificate_raises_unequal_caps(monkeypatch, corrupt, solve):
    """The same on a balanced (3, 6) instance, where cap 1/a_t differs per side."""
    h, _ = random_balanced((3, 6), seed=0, layers=2)
    assert_corruption_raises(monkeypatch, corrupt, solve, h)


def assert_corruption_raises(monkeypatch, corrupt, solve, h):
    """solve(h) raises once `corrupt` alters every LP answer, and the
    `Fraction` oracle below rejects the altered answer too."""
    lp_solve = hypergraph.lp_solve
    answers = []

    def corrupted(p):
        answers.append(corrupt(lp_solve(p), h.side_sizes))
        return answers[-1]

    monkeypatch.setattr(hypergraph, "lp_solve", corrupted)
    with pytest.raises(RuntimeError, match="primal-dual certificate"):
        solve(h)
    cap = (lambda a: ONE) if solve is nu_star else (lambda a: Fraction(1, a))
    assert not fraction_cover_ok(h, cap, answers[-1])


def fraction_cover_ok(h, cap, res):
    """The cover check on `Fraction`s: f >= 0 within the caps, y >= 0
    covering every edge, and sum(f) = value = sum(cap * y)."""
    f = res.point
    vertices = [(t, j) for t, a in enumerate(h.side_sizes, start=1) for j in range(1, a + 1)]
    y = dict(zip(vertices, res.dual))
    deg = dict.fromkeys(vertices, Fraction(0))
    for e, x in zip(h.edges, f):
        for v in enumerate(e, start=1):
            deg[v] += x
    return (len(f) == len(h.edges) and len(res.dual) == len(vertices)
            and min(f, default=0) >= 0 and min(res.dual, default=0) >= 0
            and all(deg[t, j] <= cap(h.side_sizes[t - 1]) for t, j in vertices)
            and all(sum(y[v] for v in enumerate(e, start=1)) >= 1 for e in h.edges)
            and sum(f) == res.value
            == sum(cap(h.side_sizes[t - 1]) * y[t, j] for t, j in vertices))


def integer_cover_ok(h, cap, res):
    try:
        hypergraph._check_cover(h, cap, res)
    except RuntimeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_cover_check_matches_fraction_oracle(data):
    """The check on integer numerators accepts exactly the answers that the
    `Fraction` check accepts: every genuine one, and no answer with a dual
    entry shifted by a nonzero rational or a point entry raised by 1/k."""
    h = data.draw(small_hypergraphs())
    cap = data.draw(st.sampled_from([lambda a: ONE, lambda a: Fraction(1, a)]))
    res = _capped_matching(h, cap)
    assert fraction_cover_ok(h, cap, res)
    kind = data.draw(st.sampled_from(["dual", "point"] if h.edges else ["dual"]))
    if kind == "dual":
        i = data.draw(st.integers(0, len(res.dual) - 1))
        shift = data.draw(st.fractions(-2, 2, max_denominator=6))
        dual = list(res.dual)
        dual[i] += shift
        bad = dataclasses.replace(res, dual=dual)
    else:
        i = data.draw(st.integers(0, len(res.point) - 1))
        point = list(res.point)
        point[i] += Fraction(1, data.draw(st.integers(1, 6)))
        bad = dataclasses.replace(res, point=point)
    ok = integer_cover_ok(h, cap, bad)
    assert ok == fraction_cover_ok(h, cap, bad) == (kind == "dual" and shift == 0)


def test_corrupted_lp_certificate_raises_under_dash_O():
    """`python -O` strips asserts; the cover check still runs."""
    script = textwrap.dedent("""
        import dataclasses
        from balmat import constructions, hypergraph
        solve = hypergraph.lp_solve
        hypergraph.lp_solve = lambda p: dataclasses.replace(
            solve(p), dual=[2 * y for y in solve(p).dual])
        try:
            hypergraph.balanced_certificate(constructions.pasch()[0])
        except RuntimeError as err:
            print("RuntimeError:", err)
        """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("RuntimeError:"), proc.stdout


@st.composite
def small_hypergraphs(draw):
    sizes = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2)]))
    edge = st.tuples(*(st.integers(1, a) for a in sizes))
    return PartiteHypergraph(sizes, draw(st.lists(edge, max_size=5, unique=True)))


CAPS = {"cap 1": lambda a: ONE, "cap 1/a_t": lambda a: Fraction(1, a)}


@st.composite
def wider_hypergraphs(draw):
    sizes = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (3, 3, 3),
                                  (2, 3, 4)]))
    edge = st.tuples(*(st.integers(1, a) for a in sizes))
    return PartiteHypergraph(sizes, draw(st.lists(edge, max_size=10, unique=True)))


@pytest.mark.parametrize("cap", CAPS.values(), ids=CAPS.keys())
@settings(max_examples=400, deadline=None)
@given(wider_hypergraphs())
def test_capped_matching_matches_fraction_simplex(cap, h):
    """The LP that `_capped_matching` solves, on integer right sides in units
    of 1/L, takes the pivots of the rational tableau on the caps themselves:
    once scaled back, the same value, point and dual."""
    rows = [([int(e[t - 1] == j) for e in h.edges], cap(a))
            for t, a in enumerate(h.side_sizes, start=1) for j in range(1, a + 1)]
    res = _capped_matching(h, cap)
    assert (res.value, res.point, res.dual) == _fraction_simplex(
        len(h.edges), rows, [1] * len(h.edges))


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_balanced_certificate_matches_vertex_enumeration(h):
    """A certificate exists exactly when {f >= 0, deg_f(t, j) = 1/a_t} has a
    vertex, found by enumerating tight constraint sets."""
    eqs = [([int(e[t - 1] == j) for e in h.edges], Fraction(1, a))
           for t, a in enumerate(h.side_sizes, start=1) for j in range(1, a + 1)]
    f = balanced_certificate(h)
    assert (f is None) == (not _vertices(len(h.edges), eqs, []))
    if f is not None:
        assert is_balanced(h, f) and f.total() == 1


def test_nu_and_nustar_pasch():
    h = pasch()
    assert nu(h) == 1
    assert nu_star(h) == 2


def test_nu_star_empty():
    assert nu_star(PartiteHypergraph((2, 2), [])) == 0


def test_nu_matches_oracle_small():
    h = PartiteHypergraph((3, 3), [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)])
    assert nu(h) == nu_oracle(h) == 3


def test_nu_oracle_takes_a_long_side_without_recursion():
    """The DP steps once per vertex of the largest side, here 1100 of them,
    more than the interpreter's default recursion limit of 1000."""
    h = PartiteHypergraph((3, 1100), [(1, i) for i in range(1, 1101)])
    assert nu_oracle(h) == 1


@st.composite
def oracle_hypergraphs(draw):
    """(3,3,3) with up to 12 edges, unequal sides, where the choice of the
    oracle's DP side matters, with up to 20, or (4,4,4) and (3,3,3,3) with
    up to 30."""
    sizes = draw(st.sampled_from([(3, 3, 3), (2, 3, 4), (4, 2, 3), (3, 4, 2), (2, 5),
                                  (4, 4, 4), (3, 3, 3, 3)]))
    edge = st.tuples(*(st.integers(1, a) for a in sizes))
    cap = {(3, 3, 3): 12, (4, 4, 4): 30, (3, 3, 3, 3): 30}.get(sizes, 20)
    return PartiteHypergraph(sizes, draw(st.lists(edge, min_size=1, max_size=cap)))


def _is_matching_of(witness, h):
    return set(witness) <= set(h.edges) and all(
        a != b for e, f in itertools.combinations(witness, 2) for a, b in zip(e, f))


@settings(max_examples=60, deadline=None)
@given(oracle_hypergraphs())
def test_nu_agrees_with_oracle(h):
    witness = max_matching(h)
    assert nu(h) == len(witness) == nu_oracle(h)
    assert _is_matching_of(witness, h)


def test_nu_decides_drisko_8():
    h, _ = drisko(8)
    witness = max_matching(h)
    assert len(witness) == 7 == nu_oracle(h)
    assert _is_matching_of(witness, h)


def _disjoint(e, f):
    return all(a != b for a, b in zip(e, f))


def _cheap_bound(edges):
    """Upper bound on the matching number of a nonempty edge set."""
    d = len(edges[0])
    return min(len({e[t] for e in edges}) for t in range(d))


def _reference_matching(h):
    """The branch and bound on edge tuples that `max_matching` must agree
    with witness for witness, since `hall-check` prints the witness: the same
    vertex choice and edge order, with no bitmasks and no table of bounds."""
    best = []
    _reference_branch(list(h.edges), [], best)
    return tuple(sorted(best))


def _reference_branch(edges, chosen, best):
    if len(chosen) > len(best):
        best[:] = chosen
    if not edges:
        return
    if len(chosen) + _cheap_bound(edges) <= len(best):
        return
    # vertex of minimum positive degree, lowest (side, index) first
    counts = {}
    for e in edges:
        for t, j in enumerate(e, start=1):
            counts[(t, j)] = counts.get((t, j), 0) + 1
    t, j = min(counts, key=lambda u: (counts[u], u))
    for e in [e for e in edges if e[t - 1] == j]:
        chosen.append(e)
        _reference_branch([f for f in edges if _disjoint(e, f)], chosen, best)
        chosen.pop()
    _reference_branch([f for f in edges if f[t - 1] != j], chosen, best)


@st.composite
def witness_hypergraphs(draw):
    sizes = draw(st.sampled_from([(1,), (2, 5), (3, 3, 3), (2, 3, 4), (4, 4, 4), (3, 3, 3, 3)]))
    edge = st.tuples(*(st.integers(1, a) for a in sizes))
    return PartiteHypergraph(sizes, draw(st.lists(edge, max_size=30)))


@settings(max_examples=200, deadline=None)
@example(PartiteHypergraph((2, 5), []))
@given(witness_hypergraphs())
def test_max_matching_witness_matches_reference(h):
    """The bitmask search with its table of bounds returns the very witness
    of the edge-tuple search, not just one of the same size."""
    assert max_matching(h) == _reference_matching(h)


def _spy_branch(h):
    """The argument tuples of the `_matching_branch` calls `max_matching(h)`
    makes, in call order, and its witness."""
    calls = []
    branch = hypergraph._matching_branch

    def spy(*args):
        calls.append(args)
        branch(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(hypergraph, "_matching_branch", spy)
        witness = max_matching(h)
    return calls, witness


def _stored_bounds(h):
    """(remaining edges, stored bound) for every entry `max_matching(h)`
    leaves in its table of upper bounds, edges decoded from the key, a mask
    over edge indices in `h.edges` order."""
    calls, _ = _spy_branch(h)
    table = calls[0][-1]  # the table is the last argument of every call
    return [([e for i, e in enumerate(h.edges) if key >> i & 1], bound)
            for key, bound in table.items()]


@settings(max_examples=100, deadline=None)
@example(drisko(6)[0])
@given(oracle_hypergraphs())
def test_stored_bounds_are_upper_bounds(h):
    """Every bound in the table is at least the matching number of its edges,
    by the oracle: a smaller one could cut a subtree that improves `best`."""
    for edges, bound in _stored_bounds(h):
        assert nu_oracle(PartiteHypergraph(h.side_sizes, edges)) <= bound


@pytest.mark.parametrize("n, calls", [(5, 245), (6, 839), (7, 2698), (8, 8739)])
def test_search_tree_of_drisko_is_pinned(n, calls):
    """The node count of the search on drisko(n) is pinned, and its witness
    is the reference search's: a lost cut, or another branching vertex or
    edge order, changes the count even where the witness survives."""
    h, _ = drisko(n)
    spied, witness = _spy_branch(h)
    assert len(spied) == calls
    assert witness == _reference_matching(h)


def test_neighborhood_keeps_multiplicity():
    h = PartiteHypergraph((2, 2, 2), [(1, 1, 1), (2, 1, 1), (2, 2, 2)])
    mg = neighborhood(h, [1, 2])
    # (1,1) appears with two labels, one per source vertex
    assert sorted(mg.edges) == [(1, 1, 1), (1, 1, 2), (2, 2, 2)]


def test_neighborhood_rejects_bad_side():
    with pytest.raises(ValueError):
        neighborhood(PartiteHypergraph((2, 2), [(1, 1)]), [1])
    with pytest.raises(ValueError, match="subset of side 1"):
        neighborhood(pasch(), [3])


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1"])
def test_neighborhood_members_of_K_are_ints(bad):
    h = PartiteHypergraph((2, 2, 2), [(1, 1, 1)])
    with pytest.raises(ValueError, match="member of K must be int"):
        neighborhood(h, [bad])
    assert neighborhood(h, [1]).edges == ((1, 1, 1),)


def test_multigraph_distinct_labels():
    with pytest.raises(ValueError):
        Multigraph(2, 2, [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Multigraph(2, 2, [(3, 1, 0)])
    with pytest.raises(ValueError, match="endpoint must be int"):
        Multigraph(2, 2, [(1.5, 1, 0)])
    with pytest.raises(ValueError, match="side size must be int"):
        Multigraph(2.5, 2, [])


@pytest.mark.parametrize("sizes", [(-1, 2), (2, 0), (-1, -5), (0, 0)])
def test_multigraph_sides_follow_check_side_sizes(sizes):
    with pytest.raises(ValueError, match="side sizes must be naturals >= 1"):
        Multigraph(*sizes, [])
    assert Multigraph(2, 3, []).side_sizes == (2, 3)


@pytest.mark.parametrize("sizes", [(3, 3), (2, 4), (3, 3, 3), (2, 2, 4), (2, 2, 2, 6)])
def test_random_balanced_is_balanced(sizes):
    h, f = random_balanced(sizes, seed=7, layers=2)
    assert is_balanced(h, f)
    assert f.total() > 0


def test_random_balanced_input_checks():
    with pytest.raises(ValueError, match="layers must be >= 1"):
        random_balanced((2, 2), seed=0, layers=0)
    for layers in [1.5, True, "2"]:
        with pytest.raises(ValueError, match="layers must be int"):
            random_balanced((2, 2), seed=0, layers=layers)
    for sizes in [(2, 3), (3,), (2, 3, 6), (2, 2, 3)]:
        with pytest.raises(ValueError, match="unsupported size pattern"):
            random_balanced(sizes, seed=0, layers=1)


def test_random_balanced_deterministic():
    h1, f1 = random_balanced((3, 3, 3), seed=11, layers=2)
    h2, f2 = random_balanced((3, 3, 3), seed=11, layers=2)
    assert h1 == h2 and f1 == f2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_furedi_bound_random(seed, layers):
    """nu >= ceil(nu* / (d-1)) on balanced instances."""
    h, _ = random_balanced((3, 3, 3), seed=seed, layers=layers)
    assert nu(h) >= math.ceil(nu_star(h) / (h.d - 1))
