"""Deterministic generators for the explicit hypergraph/graph constructions.

Each generator returns the object together with the witness weight function
(or, for the n-partite nu=2 families, just the hypergraph; a balance
certificate is recoverable by LP).  Vertex labels a_i, b_j, c_j map to
side-local 1-based indices in definition order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Tuple

from .hypergraph import Multigraph, PartiteHypergraph, WeightFunction
from .rational import checked, exact

Half = Fraction(1, 2)


def pasch() -> Tuple[PartiteHypergraph, WeightFunction]:
    """The Fano plane minus a point: (2,2,2)-balanced, intersecting, nu = 1."""
    edges = [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
    h = PartiteHypergraph((2, 2, 2), edges)
    return h, WeightFunction({e: Fraction(1, 4) for e in edges})


def nnn_tight(n: int) -> Tuple[PartiteHypergraph, WeightFunction]:
    """floor(n/2) disjoint Pasch copies (+ an isolated edge for odd n).

    (n,n,n)-balanced with maximum matching exactly ceil(n/2).
    """
    if checked(n, int, "n") < 1:
        raise ValueError("n must be >= 1")
    weights: Dict[tuple, Fraction] = {}
    for b in range(n // 2):
        o = 2 * b
        for e in [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]:
            weights[tuple(j + o for j in e)] = Fraction(1, 4)
    if n % 2 == 1:
        weights[(n, n, n)] = Half
    h = PartiteHypergraph((n, n, n), list(weights))
    return h, WeightFunction(weights)


def drisko(n: int) -> Tuple[PartiteHypergraph, WeightFunction]:
    """Drisko's configuration: sides (2n-2, n, n), f = 1, nu = n - 1."""
    if checked(n, int, "n") < 2:
        raise ValueError("n must be >= 2")
    edges = []
    for i in range(1, n):
        for j in range(1, n + 1):
            edges.append((i, j, j))
    for i in range(n, 2 * n - 1):
        for j in range(1, n + 1):
            edges.append((i, j, j % n + 1))
    h = PartiteHypergraph((2 * n - 2, n, n), edges)
    return h, WeightFunction({e: Fraction(1) for e in edges})


def _h123(k: int, n: int):
    m = n // 2
    I = range(1, m + 1)
    J = range(m + 1, k + 1)
    h1 = [(i, i, i) for i in I] + [(i, m + i, m + i) for i in I]
    h2 = ([(j, i, i + m) for i in I for j in J]
          + [(j, i + m, i) for i in I for j in J])
    h3 = [(j, n, n) for j in J]
    return h1, h2, h3


def mlessn(k: int, n: int) -> Tuple[PartiteHypergraph, WeightFunction]:
    """The bm(k,n,n) <= min(k, ~3n/4) upper-bound construction, k < n.

    Sides (k, n, n); side-1 degrees are 1 and sides 2-3 have degree k/n.
    nu <= floor(3n/4) for even n, floor((3n+1)/4) for odd n.
    """
    m = checked(n, int, "n") // 2
    if not (3 * n // 4 < checked(k, int, "k") < n):
        raise ValueError("requires floor(3n/4) < k < n")
    h1, h2, h3 = _h123(k, n)
    weights: Dict[tuple, Fraction] = {e: Half for e in h1}
    if n % 2 == 0:
        for e in h2:
            weights[e] = Fraction(1, n)
    else:
        w2 = Fraction(1, n - 1) - Fraction(k, n * (n - 1) * (k - m))
        w3 = Fraction(k, n * (k - m))
        for e in h2:
            weights[e] = w2
        for e in h3:
            weights[e] = w3
    h = PartiteHypergraph((k, n, n), list(weights))
    return h, WeightFunction(weights)


def mlessn_bound(k: int, n: int) -> int:
    """Exact nu of mlessn(k, n): x H_1-edges leave min(k-m, 2(m-x)) slots in
    H_2 (+1 via H_3 when n is odd), and every mixed count is attainable.
    The worst case over admissible k is floor(3n/4) resp. floor((3n+1)/4)."""
    m = checked(n, int, "n") // 2
    kp = checked(k, int, "k") - m
    extra = 1 if n % 2 else 0
    return max(x + min(kp, 2 * (m - x) + extra) for x in range(m + 1))


def mlessn2(k: int, n: int) -> Tuple[PartiteHypergraph, WeightFunction]:
    """The improved bound when k - floor(n/2) divides floor(n/2).

    nu <= ceil(n/2), witnessed by the block family H_4.
    """
    if checked(n, int, "n") < 2:
        raise ValueError("n must be >= 2")
    m = n // 2
    kp = checked(k, int, "k") - m
    if not (m < k) or kp <= 0 or m % kp != 0:
        raise ValueError("requires floor(n/2) < k and (k - floor(n/2)) | floor(n/2)")
    q = m // kp
    h1, _, h3 = _h123(k, n)
    h4 = []
    for i in range(1, q + 1):
        for j in range(1, kp + 1):
            base = (i - 1) * kp + j
            h4.append((j + m, base, base + m))
            h4.append((j + m, base + m, base))
    weights: Dict[tuple, Fraction] = {e: Half for e in h1}
    if n % 2 == 0:
        w4 = Fraction(kp, 2 * m)
        for e in h4:
            weights[e] = w4
    else:
        w3 = Fraction(k, n * kp)
        w4 = Fraction(kp, n - 1) - Fraction(k, n * (n - 1))
        for e in h3:
            weights[e] = w3
        for e in h4:
            weights[e] = w4
    h = PartiteHypergraph((k, n, n), list(weights))
    return h, WeightFunction(weights)


def mlessn2_bound(k: int, n: int) -> int:
    return min(checked(k, int, "k"), math.ceil(Fraction(checked(n, int, "n"), 2)))


def main_negative(n: int, r, k: int) -> Tuple[PartiteHypergraph, WeightFunction]:
    """The (n,n,k) -/-> 2rn/(2r+1) + 1 family.

    Requires rn, 2rn/(2r+1) and 2r integral, and 2rn/(2r+1) <= k <= rn.
    Sides (n, n, k); nu <= 2rn/(2r+1).
    """
    if checked(n, int, "n") < 1:
        raise ValueError("n must be >= 1")
    r = exact(r, "r")
    if r < 1:
        raise ValueError("r must be >= 1")
    rn = r * n
    big = 2 * rn / (2 * r + 1)
    if rn.denominator != 1 or big.denominator != 1 or (2 * r).denominator != 1:
        raise ValueError("rn, 2rn/(2r+1) and 2r must all be integers")
    M = int(big)
    if not M <= checked(k, int, "k") <= int(rn):
        raise ValueError("requires 2rn/(2r+1) <= k <= rn")
    N = k - M
    two_r = int(2 * r)
    x = Fraction(2 * r + 1, k) - (2 * r + 1) / rn
    y = Fraction(2 * r + 1, k)
    weights: Dict[tuple, Fraction] = {}
    for i in range(1, M + 1):
        shift = math.ceil(Fraction(i, two_r))
        for j in range(1, N + 1):
            weights[(i, i, j)] = y
        weights[(i, M + shift, N + i)] = Fraction(1)
        weights[(M + shift, i, N + i)] = Fraction(1)
        if x > 0:
            for j in range(1, M + 1):
                weights[(i, i, N + j)] = x
    h = PartiteHypergraph((n, n, k), list(weights))
    return h, WeightFunction(weights)


def main_negative_bound(n: int, r) -> int:
    r = exact(r, "r")
    return int(2 * r * checked(n, int, "n") / (2 * r + 1))


def zeta_counterexample(n: int) -> Tuple[Multigraph, WeightFunction]:
    """Bipartite witness for zeta(n, (n-1)^2) < n.

    Sides of size n and (n-1)^2; f-degrees are n-1 on side A and n/(n-1) on
    side B; the matching complex contains a nonbounding (n-2)-sphere, so
    eta(M(G)) <= n - 1.
    """
    if checked(n, int, "n") < 3:
        raise ValueError("n must be >= 3 (n = 2 degenerates: the first edge "
                         "family is empty)")
    m = n - 1
    N = m * m - m
    y = Fraction(m + 1, m + N)
    x = Fraction(1, m + N)
    weights: Dict[tuple, Fraction] = {}
    for i in range(1, m + 1):
        for j in range(1, N + 1):
            weights[(i, j, 0)] = y
        for j in range(N + 1, N + m + 1):
            weights[(i, j, 0)] = x
    for j in range(N + 1, N + m + 1):
        weights[(n, j, 0)] = Fraction(1)  # the extra vertex "a" is index n
    g = Multigraph(n, m * m, list(weights))
    return g, WeightFunction(weights)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def truncated_projective(q: int) -> PartiteHypergraph:
    """H_q: the q-partite truncated projective plane of order q - 1.

    Built from the affine plane over F_p, p = q - 1 prime: edges are the
    non-vertical lines y = sx + c plus their direction, sides are the
    vertical lines plus the directions.  Intersecting, balanced, nu = 1.
    """
    p = checked(q, int, "q") - 1
    if not _is_prime(p):
        raise ValueError("supported orders: q - 1 prime")
    edges = []
    for s in range(p):
        for c in range(p):
            edge = tuple((s * xx + c) % p + 1 for xx in range(p)) + (s + 1,)
            edges.append(edge)
    return PartiteHypergraph((p,) * q, edges)


# --- nu = 2 families for the n-partite conjecture ---------------------------


def _block_hqm(q: int, extra: int):
    """H_q^extra: H_q with its last side duplicated `extra` more times."""
    hq = truncated_projective(q)
    edges = [e + (e[-1],) * extra for e in hq.edges]
    return (q - 1, q + extra), edges


def _block_i(n: int):
    return (1, n), [(1,) * n]


def _block_ij(n: int):
    """I_n union J_n on shared vertices: sides {y_t, x_t}, x = index 2."""
    edges = [(2,) * n]
    for i in range(n):
        edges.append(tuple(2 if t == i else 1 for t in range(n)))
    return (2, n), edges


def _block_jnk(n: int, k: int):
    """J_n(k): union of the column-count blocks J^i_n on an n-by-k grid,
    for 2^(k-1) - 1 < n/2."""
    edges = []
    for i in range(1, k + 1):
        counts = [2 ** (t - 1) for t in range(1, i)]
        counts.append(n - 2 ** (i - 1) + 1)
        rows = set(range(n))
        for assignment in _grid_assignments(sorted(rows), counts):
            edges.append(tuple(assignment[row] for row in range(n)))
    return (k, n), edges


def _grid_assignments(rows, counts):
    """All ways to give column c to counts[c - 1] of the rows, each row one
    column, as dicts row -> column.  Built column by column, so the first
    column's choice varies slowest, then the second's, and so on."""
    partial = [({}, list(rows))]  # (rows given a column so far, rows left)
    for col, count in enumerate(counts, 1):
        partial = [({**done, **dict.fromkeys(chosen, col)}, [r for r in left if r not in chosen])
                   for done, left in partial for chosen in itertools.combinations(left, count)]
    return [done for done, _ in partial]


def _combine(block1, block2) -> PartiteHypergraph:
    (s1, n1), e1 = block1
    (s2, _), e2 = block2
    edges = list(e1) + [tuple(j + s1 for j in e) for e in e2]
    return PartiteHypergraph((s1 + s2,) * n1, edges)


def conj_nn(n: int, variant: int) -> PartiteHypergraph:
    """n-partite, sides of size n, balanced, nu = 2.

    Variants: (1) H_q u I_q for n = q; (2) H_q^1 u I_n u J_n for n = q + 1;
    (3) H_q^(p-2) u H_p^(q-2) for n = q + p - 2; (4) H_q^(k-1) u J_n(k) for
    n = q + k - 1 with 2^(k-1) - 1 < n/2.  Each output is a vertex-disjoint
    union of two intersecting blocks.
    """
    n = checked(n, int, "n")
    if checked(variant, int, "variant") == 1:
        return _combine(_block_hqm(n, 0), _block_i(n))
    if variant == 2:
        return _combine(_block_hqm(n - 1, 1), _block_ij(n))
    if variant == 3:
        for q in range(3, n):
            p = n + 2 - q
            if p >= 3 and _is_prime(q - 1) and _is_prime(p - 1):
                return _combine(_block_hqm(q, p - 2), _block_hqm(p, q - 2))
        raise ValueError(f"no prime-order decomposition n = q + p - 2 for n = {n}")
    if variant == 4:
        for k in range(3, n):
            q = n + 1 - k
            if q >= 3 and _is_prime(q - 1) and 2 ** (k - 1) - 1 < Fraction(n, 2):
                return _combine(_block_hqm(q, k - 1), _block_jnk(n, k))
        raise ValueError(f"no feasible (q, k) with n = q + k - 1 for n = {n}")
    raise ValueError("variant must be in {1, 2, 3, 4}")
