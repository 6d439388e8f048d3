import itertools

import pytest

from balmat import hilbert
from balmat.hilbert import CapExceeded, hilbert_basis
from balmat.hypergraph import _all_edges


def dense(g, sizes):
    """A generator's weights as a tuple over `_all_edges(sizes)`."""
    weights = g.as_dict()
    return tuple(weights.get(e, 0) for e in _all_edges(sizes))


def irreducible_by_brute_force(sizes, cap):
    """Every nonzero balanced vector of norm <= cap that is not the sum of two
    nonzero balanced vectors, found over all of `itertools.product`.  An
    edge's weight is at most the degree of its vertex on the largest side,
    which is at most cap // max(sizes)."""
    edges = _all_edges(sizes)
    balanced = []
    for w in itertools.product(range(cap // max(sizes) + 1), repeat=len(edges)):
        if not 0 < sum(w) <= cap:
            continue
        deg = {}
        for e, x in zip(edges, w):
            for v in enumerate(e):
                deg[v] = deg.get(v, 0) + x
        if all(len({deg[t, j] for j in range(1, a + 1)}) == 1
               for t, a in enumerate(sizes)):
            balanced.append(w)
    return {w for w in balanced
            if not any(v != w and all(x <= y for x, y in zip(v, w)) for v in balanced)}


@pytest.mark.parametrize("sizes, cap", [((2, 2), 4), ((3, 3), 6), ((2, 4), 8), ((2, 3), 12)])
def test_hilbert_basis_matches_brute_force(sizes, cap):
    basis = hilbert_basis(sizes, cap)
    found = [dense(g, sizes) for g in basis]
    assert len(set(found)) == len(found)
    assert set(found) == irreducible_by_brute_force(sizes, cap)


def test_hilbert_basis_catches_a_dropped_vector(monkeypatch):
    """An enumerator that drops the permutation {(1,2), (2,1)} at (2,2) leaves
    the all-ones vector minus the generator {(1,1), (2,2)} unaccounted for."""
    dropped = (0, 1, 1, 0)  # over the edges (1,1), (1,2), (2,1), (2,2)
    enumerate_all = hilbert._balanced_vectors
    monkeypatch.setattr(hilbert, "_balanced_vectors",
                        lambda *args: (w for w in enumerate_all(*args) if w != dropped))
    with pytest.raises(RuntimeError, match="not enumerated"):
        hilbert_basis((2, 2), 4)


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
        assert g.total() == 3
        rows = [e[0] for e, _ in g.weights]
        cols = [e[1] for e, _ in g.weights]
        assert sorted(rows) == [1, 2, 3] and sorted(cols) == [1, 2, 3]


def test_hilbert_basis_24_is_star_unions():
    basis = hilbert_basis((2, 4), 8)
    assert len(basis) == 6  # C(4,2) ways to split columns between the rows
    for g in basis:
        assert g.total() == 4
        assert all(w == 1 for _, w in g.weights)


def test_hilbert_cap_exceeded():
    # cap 2 finds the (2,2) generators in its top half; the other caps find
    # none, and an empty basis is never closed (all-ones is balanced)
    for sides, cap in (((2, 2), 2), ((2, 2), 0), ((2, 2), 1), ((2, 3), 5)):
        with pytest.raises(CapExceeded):
            hilbert_basis(sides, cap)


def test_hilbert_norm_cap_must_be_int():
    for cap in (True, 4.0, "4"):
        with pytest.raises(ValueError, match="norm cap must be int"):
            hilbert_basis((2, 2), cap)
    with pytest.raises(ValueError, match="norm cap must be >= 0"):
        hilbert_basis((2, 2), -1)
