import itertools
import math
from fractions import Fraction

import pytest

from balmat import constructions as cons
from balmat.hypergraph import (PartiteHypergraph, balanced_certificate, is_balanced,
                               nu, nu_oracle, nu_star)
from balmat.topology import betti, matching_complex
from balmat.verify import _block_nu


def test_pasch_values():
    h, f = cons.pasch()
    assert h.side_sizes == (2, 2, 2)
    assert is_balanced(h, f)
    assert nu(h) == 1 and nu_star(h) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_nnn_tight(n):
    h, f = cons.nnn_tight(n)
    assert h.side_sizes == (n, n, n)
    assert is_balanced(h, f)
    assert nu(h) == (n + 1) // 2


def test_nnn_tight_needs_n_at_least_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        cons.nnn_tight(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drisko(n):
    h, f = cons.drisko(n)
    assert h.side_sizes == (2 * n - 2, n, n)
    assert set(f.as_dict().values()) == {Fraction(1)}
    assert is_balanced(h, f)
    assert nu(h) == n - 1
    assert nu_star(h) == min(h.side_sizes)


def test_nu_oracle_decides_drisko_8():
    # 112 edges on sides (14, 8, 8): out of reach of a take/skip recursion
    h, _ = cons.drisko(8)
    assert nu_oracle(h) == 7


def test_drisko_2_is_pasch_shape():
    h, _ = cons.drisko(2)
    assert nu(h) == 1 and len(h.edges) == 4


@pytest.mark.parametrize("k,n", [(4, 5), (5, 6), (6, 7), (7, 8)])
def test_mlessn(k, n):
    h, f = cons.mlessn(k, n)
    assert is_balanced(h, f)
    v = nu(h)
    assert v == cons.mlessn_bound(k, n) == nu_oracle(h)


def test_mlessn_parameter_validation():
    with pytest.raises(ValueError):
        cons.mlessn(3, 5)   # k <= floor(3n/4)
    with pytest.raises(ValueError):
        cons.mlessn(5, 5)   # k = n


@pytest.mark.parametrize("k,n", [(2, 3), (3, 4), (4, 5), (4, 6), (6, 8)])
def test_mlessn2(k, n):
    h, f = cons.mlessn2(k, n)
    assert is_balanced(h, f)
    assert nu(h) == cons.mlessn2_bound(k, n) == (n + 1) // 2


def test_mlessn2_divisibility_required():
    with pytest.raises(ValueError):
        cons.mlessn2(5, 6)  # k - 3 = 2 does not divide 3
    for k, n in ((1, 1), (3, 1), (1, 0), (2, 0)):  # n - 1 or n would divide
        with pytest.raises(ValueError):
            cons.mlessn2(k, n)


def test_mlessn_weights_nonnegative_in_range():
    """The stated weights of mlessn and mlessn2 are >= 0 wherever their
    parameter checks pass: for odd n both w_2 and w_4 >= 0 reduce to
    n(k - floor(n/2)) >= k, which k < n and k > floor(n/2) give."""
    built = 0
    for n in range(2, 61):
        m = n // 2
        cases = [(cons.mlessn, k) for k in range(3 * n // 4 + 1, n)]
        cases += [(cons.mlessn2, k) for k in range(m + 1, n + 1) if m % (k - m) == 0]
        for construct, k in cases:
            _, f = construct(k, n)
            assert min(w for _, w in f.weights) >= 0, (construct.__name__, k, n)
            built += 1
    assert built == 634


@pytest.mark.parametrize("n,r,k", [(3, 1, 2), (3, 1, 3), (4, Fraction(3, 2), 4),
                                   (6, 1, 6), (5, 2, 10)])
def test_main_negative(n, r, k):
    h, f = cons.main_negative(n, r, k)
    assert h.side_sizes == (n, n, k)
    assert is_balanced(h, f)
    assert nu(h) == cons.main_negative_bound(n, r)


def test_main_negative_validation():
    with pytest.raises(ValueError):
        cons.main_negative(3, Fraction(1, 3), 2)  # 2r not integral
    with pytest.raises(ValueError):
        cons.main_negative(3, 1, 1)  # k below 2rn/(2r+1)
    with pytest.raises(ValueError):
        cons.main_negative(0, 1, 0)  # k = 0 would divide


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_main_negative_r_is_int_or_fraction(bad):
    with pytest.raises(ValueError, match="r must be int or Fraction"):
        cons.main_negative(5, bad, 9)
    with pytest.raises(ValueError, match="r must be int or Fraction"):
        cons.main_negative_bound(5, bad)


@pytest.mark.parametrize("bad", [4.0, True, Fraction(4)])
def test_integer_parameters_are_ints(bad):
    """A float, a bool or a Fraction is no int, even when it equals one."""
    calls = {"n": [lambda x: cons.nnn_tight(x), lambda x: cons.drisko(x),
                   lambda x: cons.mlessn(3, x), lambda x: cons.mlessn2(3, x),
                   lambda x: cons.mlessn_bound(3, x), lambda x: cons.mlessn2_bound(3, x),
                   lambda x: cons.main_negative(x, 2, 9), lambda x: cons.main_negative_bound(x, 2),
                   lambda x: cons.zeta_counterexample(x), lambda x: cons.conj_nn(x, 1)],
             "k": [lambda x: cons.mlessn(x, 4), lambda x: cons.mlessn2(x, 4),
                   lambda x: cons.mlessn_bound(x, 4), lambda x: cons.mlessn2_bound(x, 4),
                   lambda x: cons.main_negative(5, 2, x)],
             "q": [lambda x: cons.truncated_projective(x)],
             "variant": [lambda x: cons.conj_nn(4, x)]}
    for name, builders in calls.items():
        for build in builders:
            with pytest.raises(ValueError, match=f"^{name} must be int, not"):
                build(bad)


def test_zeta_counterexample_structure():
    g, f = cons.zeta_counterexample(3)
    assert g.b_size == 3 and g.c_size == 4
    deg_a = {}
    deg_b = {}
    for (b, c, _), w in f.as_dict().items():
        deg_a[b] = deg_a.get(b, Fraction(0)) + w
        deg_b[c] = deg_b.get(c, Fraction(0)) + w
    assert set(deg_a.values()) == {Fraction(2)}
    assert set(deg_b.values()) == {Fraction(3, 2)}
    assert betti(matching_complex(g), 1) != 0


def test_zeta_rejects_small_n():
    with pytest.raises(ValueError):
        cons.zeta_counterexample(2)


def test_truncated_projective():
    assert cons.truncated_projective(3).edges == cons.pasch()[0].edges
    h = cons.truncated_projective(4)
    assert h.side_sizes == (3, 3, 3, 3)
    assert nu(h) == 1  # intersecting
    assert balanced_certificate(h) is not None
    with pytest.raises(ValueError):
        cons.truncated_projective(5)  # order 4 not prime


@pytest.mark.parametrize("n,variant", [(3, 1), (4, 1), (4, 2), (5, 2),
                                       (4, 3), (5, 3), (6, 3)])
def test_conj_nn_families(n, variant):
    h = cons.conj_nn(n, variant)
    assert h.side_sizes == (n,) * n
    assert balanced_certificate(h) is not None
    assert nu(h) == 2


def test_conj_nn_variant4():
    h = cons.conj_nn(8, 4)
    assert balanced_certificate(h) is not None
    assert nu(h) == 2


def test_conj_nn_infeasible_parameters():
    with pytest.raises(ValueError):
        cons.conj_nn(3, 4)
    with pytest.raises(ValueError):
        cons.conj_nn(5, 5)


@pytest.mark.parametrize("rows, counts", [
    ([], []), ([1, 2, 3], [3]), ([0, 1, 2, 3], [2, 2]), ([0, 1, 2, 3, 4, 5], [1, 2, 3]),
    ([1, 2, 3, 4, 5, 6], [3, 2, 1]), ([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])])
def test_grid_assignments_order(rows, counts):
    """The assignments in order are the permutations of the rows, in
    lexicographic order, whose consecutive blocks of counts[0], counts[1],
    ... rows each increase, block c giving its rows column c + 1: the first
    column's choice varies slowest."""
    starts = list(itertools.accumulate([0] + counts))
    expected = [{r: col for col, (a, b) in enumerate(zip(starts, starts[1:]), 1) for r in p[a:b]}
                for p in itertools.permutations(rows)
                if all(list(p[a:b]) == sorted(p[a:b]) for a, b in zip(starts, starts[1:]))]
    got = cons._grid_assignments(rows, counts)
    assert [sorted(a.items()) for a in got] == [sorted(a.items()) for a in expected]
    assert len(got) == math.factorial(len(rows)) // math.prod(map(math.factorial, counts))


def test_block_nu():
    """nu by intersecting blocks, and None when meeting edges do not split
    into such blocks."""
    assert _block_nu(cons.truncated_projective(4)) == 1
    assert _block_nu(cons.conj_nn(4, 1)) == 2
    assert _block_nu(PartiteHypergraph((2, 2), [(1, 1), (2, 2)])) == 2
    # (1,1) and (2,2) are disjoint, yet (1,2) meets both
    assert _block_nu(PartiteHypergraph((2, 2), [(1, 1), (1, 2), (2, 2)])) is None
