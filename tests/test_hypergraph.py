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
from hypothesis import given, settings
from hypothesis import strategies as st

from balmat import hypergraph
from balmat.rational import Optimal
from balmat.hypergraph import (Multigraph, PartiteHypergraph, WeightFunction,
                               _capped_matching, balanced_certificate, check_hosted,
                               check_side_sizes,
                               degrees, is_balanced, max_matching, neighborhood, nu,
                               nu_oracle, nu_star, random_balanced)
from test_rational import _vertices

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


def _shift(r):
    """+c on side 1 and -c on side 2 of the pasch cover: each edge's sum and
    the total stay, but entries turn negative."""
    c = 1 + max(r.dual)
    return [y + c for y in r.dual[:2]] + [y - c for y in r.dual[2:4]] + r.dual[4:]


# Each breaks one clause of the certificate on the pasch quadruple, whose
# vertices all have the same cap: the totals agree (dual doubled), the
# cover covers (its mass moved onto one vertex), y >= 0 (`_shift`), f keeps
# its caps (f, y and the value all doubled), the cover has one entry per
# vertex.
CORRUPTIONS = [
    lambda r: dataclasses.replace(r, dual=[2 * y for y in r.dual]),
    lambda r: dataclasses.replace(r, dual=[sum(r.dual)] + [0] * (len(r.dual) - 1)),
    lambda r: dataclasses.replace(r, dual=_shift(r)),
    lambda r: Optimal(2 * r.value, [2 * x for x in r.point], [2 * y for y in r.dual]),
    lambda r: dataclasses.replace(r, dual=r.dual[:-1]),
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("solve", [nu_star, balanced_certificate])
def test_corrupted_lp_certificate_raises(monkeypatch, corrupt, solve):
    """The cover check rejects an LP answer that the simplex got wrong."""
    lp_solve = hypergraph.lp_solve
    monkeypatch.setattr(hypergraph, "lp_solve", lambda p: corrupt(lp_solve(p)))
    with pytest.raises(RuntimeError, match="primal-dual certificate"):
        solve(pasch())


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


@st.composite
def oracle_hypergraphs(draw):
    """(3,3,3) with up to 12 edges, or unequal sides, where the choice of the
    oracle's DP side matters, with up to 20."""
    sizes = draw(st.sampled_from([(3, 3, 3), (2, 3, 4), (4, 2, 3), (3, 4, 2), (2, 5)]))
    edge = st.tuples(*(st.integers(1, a) for a in sizes))
    return PartiteHypergraph(sizes, draw(st.lists(edge, min_size=1,
                                                  max_size=12 if sizes == (3, 3, 3) else 20)))


@settings(max_examples=60, deadline=None)
@given(oracle_hypergraphs())
def test_nu_agrees_with_oracle(h):
    witness = max_matching(h)
    assert nu(h) == len(witness) == nu_oracle(h)
    assert set(witness) <= set(h.edges)
    assert all(a != b for e, f in itertools.combinations(witness, 2)
               for a, b in zip(e, f))


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


def test_multigraph_distinct_labels():
    with pytest.raises(ValueError):
        Multigraph(2, 2, [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Multigraph(2, 2, [(3, 1, 0)])
    with pytest.raises(ValueError, match="endpoint must be int"):
        Multigraph(2, 2, [(1.5, 1, 0)])
    with pytest.raises(ValueError, match="side size must be int"):
        Multigraph(2.5, 2, [])


@pytest.mark.parametrize("sizes", [(3, 3), (2, 4), (3, 3, 3), (2, 2, 4), (2, 2, 2, 6)])
def test_random_balanced_is_balanced(sizes):
    h, f = random_balanced(sizes, seed=7, layers=2)
    assert is_balanced(h, f)
    assert f.total() > 0


def test_random_balanced_input_checks():
    with pytest.raises(ValueError, match="layers must be >= 1"):
        random_balanced((2, 2), seed=0, layers=0)
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
