from fractions import Fraction

import pytest

from balmat.hilbert import (CapExceeded, IntegralBalanced, decompose, hilbert_basis,
                            _integral_balanced_with_degrees)


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
