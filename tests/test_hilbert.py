import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmat.hilbert import (CapExceeded, IntegralBalanced, birkhoff_decompose,
                            decompose, hall_extend, hilbert_basis,
                            _integral_balanced_with_degrees)
from balmat.hypergraph import PartiteHypergraph, WeightFunction


def ib(sides, weights):
    return IntegralBalanced(sides, weights)


def test_integral_balanced_validation():
    with pytest.raises(ValueError):
        ib((2, 2), {})
    with pytest.raises(ValueError):
        ib((2, 2), {(1, 1): 1})  # row 2 has degree 0
    with pytest.raises(ValueError, match="nonnegative"):
        ib((2, 2), {(1, 1): -1, (2, 2): -1})
    with pytest.raises(ValueError, match="out of range"):
        ib((2, 2), {(1, 3): 1, (2, 1): 1})
    for short_or_long in ({(1,): 1, (2,): 1}, {(1, 1, 1): 1, (2, 2, 2): 1}):
        with pytest.raises(ValueError, match="wrong arity"):
            ib((2, 2), short_or_long)
    # truncated, these would be a zero weighting and weights 1 and 1
    for fractional in ({(1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)},
                       {(1, 1): Fraction(3, 2), (2, 2): 1.9}):
        with pytest.raises(ValueError, match="is not an integer"):
            ib((2, 2), fractional)
    ok = ib((2, 2), {(1, 1): 1, (2, 2): 1})
    assert ok.norm() == 2
    assert ib((2, 2), {(1, 1): Fraction(2), (2, 2): 2.0}).weights == (((1, 1), 2), ((2, 2), 2))


def test_hilbert_basis_22_is_permutations():
    basis = hilbert_basis((2, 2), 4)
    found = {g.weights for g in basis}
    assert found == {
        ((((1, 1)), 1), (((2, 2)), 1)),
        ((((1, 2)), 1), (((2, 1)), 1)),
    }


def test_hilbert_basis_33_is_permutations():
    basis = hilbert_basis((3, 3), 6)
    assert len(basis) == 6
    for g in basis:
        assert g.norm() == 3
        rows = [e[0] for e, _ in g.weights]
        cols = [e[1] for e, _ in g.weights]
        assert sorted(rows) == [1, 2, 3] and sorted(cols) == [1, 2, 3]


def test_hilbert_basis_24_is_star_unions():
    basis = hilbert_basis((2, 4), 8)
    assert len(basis) == 6  # C(4,2) ways to split columns between the rows
    for g in basis:
        assert g.norm() == 4
        assert all(w == 1 for _, w in g.weights)


def test_hilbert_cap_exceeded():
    # cap 2 finds the (2,2) generators in its top half; the other caps find
    # none, and an empty basis is never closed (all-ones is balanced)
    for sides, cap in (((2, 2), 2), ((2, 2), 0), ((2, 2), 1), ((2, 3), 5)):
        with pytest.raises(CapExceeded):
            hilbert_basis(sides, cap)


def test_decompose_completeness_22():
    basis = hilbert_basis((2, 2), 4)
    for norm in (2, 4):
        for w in _integral_balanced_with_degrees((2, 2), [norm // 2, norm // 2]):
            parts = decompose(ib((2, 2), w), basis)
            assert parts is not None
            total = {}
            for g in parts:
                for e, x in g.weights:
                    total[e] = total.get(e, 0) + x
            assert total == {e: x for e, x in ib((2, 2), w).weights}


def test_decompose_failure():
    basis = [ib((2, 2), {(1, 1): 1, (2, 2): 1})]
    assert decompose(ib((2, 2), {(1, 2): 1, (2, 1): 1}), basis) is None


def test_birkhoff_square_example():
    w = ib((2, 2), {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 2})
    matchings = birkhoff_decompose(w)
    assert len(matchings) == 3
    assert sorted(matchings).count(((1, 1), (2, 2))) == 2
    assert ((1, 2), (2, 1)) in matchings


def test_birkhoff_rejects_rectangular():
    with pytest.raises(ValueError):
        birkhoff_decompose(ib((2, 4), {(1, 1): 1, (1, 2): 1, (2, 3): 1, (2, 4): 1}))


def test_hall_extend_success():
    h = PartiteHypergraph((2, 2, 2), [(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)])
    w = WeightFunction({e: 1 for e in h.edges})
    matching = [(1, 1), (2, 2)]
    extended, violators = hall_extend(h, matching, w)
    assert violators is None
    assert len(extended) == 2
    for e1, e2 in itertools.combinations(extended, 2):
        assert all(a != b for a, b in zip(e1, e2))


def test_hall_extend_reports_violators():
    # both matching edges can only pick third coordinate 1
    h = PartiteHypergraph((2, 2, 2), [(1, 1, 1), (2, 2, 1)])
    w = WeightFunction({e: 1 for e in h.edges})
    extended, violators = hall_extend(h, [(1, 1), (2, 2)], w)
    assert extended is None
    assert set(violators) == {(1, 1), (2, 2)}


def test_hall_extend_ignores_fractional_fibers():
    # weight below 1 does not count toward a fiber
    h = PartiteHypergraph((1, 1, 2), [(1, 1, 1), (1, 1, 2)])
    w = WeightFunction({(1, 1, 1): "1/2", (1, 1, 2): 1})
    extended, violators = hall_extend(h, [(1, 1)], w)
    assert violators is None
    assert extended == ((1, 1, 2),)


def test_hall_extend_rejects_bad_matching_edges():
    h = PartiteHypergraph((2, 2, 2), [(1, 1, 1), (2, 2, 1)])
    w = WeightFunction({e: 1 for e in h.edges})
    with pytest.raises(ValueError, match="d coordinates"):
        hall_extend(h, [(1,)], w)
    with pytest.raises(ValueError, match="not in the projected support"):
        hall_extend(h, [(1, 2)], w)


def test_hall_extend_violators_are_the_alternating_closure():
    # Hall fails on all four edges (three values); the pair (2,), (4,) has
    # fibers {2} and {1, 2}, two values for two edges, and is no violator.
    edges = [(1, 1), (1, 3), (2, 2), (3, 3), (4, 1), (4, 2)]
    h = PartiteHypergraph((4, 3), edges)
    extended, violators = hall_extend(h, [(1,), (2,), (3,), (4,)],
                                      WeightFunction({e: 1 for e in edges}))
    assert extended is None
    assert violators == ((1,), (2,), (3,), (4,))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 5), st.integers(1, 4)),
                       st.sampled_from(["1/2", "1", "2"]), min_size=1))
def test_hall_extend_violators_have_too_few_values(weights):
    h = PartiteHypergraph((5, 4), list(weights))
    matching = sorted({e[:1] for e in weights})
    fibers = {e: {j for (i, j), w in weights.items() if (i,) == e and w != "1/2"}
              for e in matching}
    hall_holds = all(len(set().union(*(fibers[e] for e in sub))) >= r
                     for r in range(1, len(matching) + 1)
                     for sub in itertools.combinations(matching, r))
    extended, violators = hall_extend(h, matching, WeightFunction(weights))
    assert (extended is not None) == hall_holds
    if violators is not None:
        assert set(violators) <= set(matching)
        assert len(set().union(*(fibers[e] for e in violators))) < len(violators)
