"""The batch verification suite: each check re-derives one of the headline
claims at desk scale and reports pass/fail with the values it saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Dict, List, Optional

from . import constructions as cons
from .cakecheck import grid_max, instance_2n2_nn, instance_nn_2n2
from .dinterval import DIntervalFamilies, rainbow_matching
from .hilbert import hilbert_basis
from .hypergraph import (PartiteHypergraph, balanced_certificate, degrees, is_balanced,
                         nu, nu_oracle, nu_star, random_balanced)
from .search import (bm_search_exhaustive, random_graph, random_knn_balanced,
                     random_two_interval_family, random_weighted_multigraph)
from .topology import (INFINITE, Graph, betti, con_certificate, con_lower_bound, eta,
                       hall_check, independence_complex, line_graph, matching_complex,
                       psi)


@dataclass
class CheckResult:
    name: str
    claim: str
    parameters: dict
    expected: object
    got: object
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "claim": self.claim,
                "parameters": self.parameters, "expected": str(self.expected),
                "got": str(self.got), "pass": self.passed}


CHECKS: Dict[str, Callable[..., CheckResult]] = {}


def _check(name):
    def deco(fn):
        CHECKS[name] = fn
        return fn
    return deco


@_check("pasch")
def check_pasch() -> CheckResult:
    """The intersecting (2,2,2) quadruple: balanced, nu = 1, nu* = 2."""
    h, _ = cons.pasch()
    got = (balanced_certificate(h) is not None, nu(h), nu_star(h))
    expected = (True, 1, Fraction(2))
    return CheckResult("pasch", "balanced, nu=1, nu*=2", {}, expected, got,
                       got == expected)


@_check("nnn")
def check_nnn() -> CheckResult:
    """Tight (n,n,n) family has nu = ceil(n/2); exhaustive (2,2,2) minimum is 1."""
    got = {}
    expected = {}
    for n in range(2, 7):
        h, f = cons.nnn_tight(n)
        expected[n] = (True, -(-n // 2))
        got[n] = (is_balanced(h, f), nu(h))
    report = bm_search_exhaustive((2, 2, 2))
    expected["search222"] = 1
    got["search222"] = report.min_nu
    return CheckResult("nnn", "nnn_tight nu = ceil(n/2); min over (2,2,2) is 1",
                       {"n": "2..6"}, expected, got, got == expected)


@_check("furedi")
def check_furedi() -> CheckResult:
    """nu >= ceil(nu*/(d-1)) on seeded random balanced instances."""
    instances = 500
    shapes = [(2, 2), (3, 3), (2, 4), (4, 4), (5, 5), (2, 2, 2), (3, 3, 3),
              (4, 4, 4), (5, 5, 5), (2, 2, 4)]
    failures = []
    for i in range(instances):
        sizes = shapes[i % len(shapes)]
        h, _ = random_balanced(sizes, seed=i, layers=1 + i % 3)
        bound = ceil(nu_star(h) / (h.d - 1))
        if nu(h) < bound:
            failures.append((sizes, i))
    return CheckResult("furedi", "nu >= ceil(nu*/(d-1))",
                       {"instances": instances}, [], failures, not failures)


@_check("ind-psi")
def check_ind_psi() -> CheckResult:
    """eta(I(G)) >= Psi(G): exhaustive <= 5 vertices, then seeded 6-8 vertex
    graphs, with eta truncated at the cap."""
    sampled, cap = 200, 6
    failures = []

    def verdict(g: Graph):
        val = psi(g)
        need = cap if val is INFINITE else min(int(val), cap)
        if need > 0 and not eta(independence_complex(g), cap=cap).at_least(need):
            failures.append(g)

    for n in range(1, 6):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        for mask in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            verdict(Graph(n, edges))
    for i in range(sampled):
        verdict(random_graph(seed=i))
    return CheckResult("ind-psi", "eta(I(G)) >= Psi(G) (capped)",
                       {"cap": cap, "sampled": sampled}, [], failures,
                       not failures)


@_check("matching-bound")
def check_matching_bound() -> CheckResult:
    """Psi(L(G)) and the explicit strategy both reach ceil(|f|/(2s+2))."""
    instances = 100
    failures = []
    for i in range(instances):
        g, f, s = random_weighted_multigraph(seed=i)
        bound = con_lower_bound(f.total(), s)
        game = psi(line_graph(g))
        cert = con_certificate(g, f, s)
        if (game is not INFINITE and game < bound) or cert < bound:
            failures.append((i, game, cert, bound))
    return CheckResult("matching-bound",
                       "Psi(L(G)) and con_certificate >= ceil(|f|/(2s+2))",
                       {"instances": instances}, [], failures, not failures)


@_check("hall")
def check_hall() -> CheckResult:
    """Topological Hall deficiency check on balanced (k,n,n) instances."""
    per_shape = 50
    failures = []
    for k, n in [(2, 3), (3, 4), (3, 5), (4, 5)]:
        deficiency = k - min(k, -(-n // 2))
        for i in range(per_shape):
            h, _ = random_knn_balanced(k, n, seed=i)
            report = hall_check(h, deficiency)
            if not report.all_K_pass or len(report.matching) < k - deficiency:
                failures.append((k, n, i, report.failing_K))
    return CheckResult("hall", "eta(M(N(K))) >= |K| - deficiency, all K",
                       {"per_shape": per_shape}, [], failures, not failures)


@_check("upper-bounds")
def check_upper_bounds() -> CheckResult:
    """The explicit upper-bound families have exactly their claimed nu:
    every case built here is decided, by `nu` and by `nu_oracle`."""
    cases = []
    for n in range(2, 9):
        for k in range(3 * n // 4 + 1, n):
            cases.append((f"mlessn({k},{n})", cons.mlessn(k, n),
                          cons.mlessn_bound(k, n)))
    for n in range(2, 11):
        m = n // 2
        for k in range(m + 1, n + 1):
            try:
                cases.append((f"mlessn2({k},{n})", cons.mlessn2(k, n),
                              cons.mlessn2_bound(k, n)))
            except ValueError:
                pass
    for n in range(2, 8):
        for r2 in range(2, 7):
            r = Fraction(r2, 2)
            try:
                big = cons.main_negative_bound(n, r)
                for k in range(big, int(r * n) + 1):
                    cases.append((f"main_negative({n},{r},{k})",
                                  cons.main_negative(n, r, k), big))
            except ValueError:
                pass
    for n in range(2, 9):
        cases.append((f"drisko({n})", cons.drisko(n), n - 1))
    failures = []
    for label, (h, f), claimed in cases:
        actual = nu(h)
        ok = (is_balanced(h, f) and actual == claimed
              and actual == nu_oracle(h))
        if not ok:
            failures.append((label, actual, claimed))
    return CheckResult("upper-bounds",
                       "generators balanced with exactly the claimed nu",
                       {"checked": len(cases)}, [],
                       failures, not failures)


def _block_nu(h: PartiteHypergraph) -> Optional[int]:
    """nu(h) when h's edges split into blocks such that two edges meet
    exactly when they share a block: a matching takes at most one edge of
    each block, and the first edges of the blocks are a matching.  None when
    the edges do not split so."""
    def meet(e, f):
        return any(x == y for x, y in zip(e, f))

    blocks: List[list] = []
    for e in h.edges:
        block = next((b for b in blocks if meet(e, b[0])), None)
        if block is None:
            blocks.append([e])
        else:
            block.append(e)
    if all(meet(e, f) == (b is c) for b in blocks for c in blocks
           for e in b for f in c):
        return len(blocks)
    return None


@_check("constructions")
def check_constructions() -> CheckResult:
    """H_q for q <= 8 (q - 1 prime) and every feasible conj_nn(n, variant),
    n <= 8: a balanced certificate that is_balanced accepts, nu = nu_oracle,
    and the stated nu (1 for H_q, 2 for conj_nn) by intersecting blocks."""
    cases = [(f"truncated_projective({q})", cons.truncated_projective(q), 1)
             for q in (3, 4, 6, 8)]
    for n in range(3, 9):
        for variant in range(1, 5):
            try:
                cases.append((f"conj_nn({n},{variant})", cons.conj_nn(n, variant), 2))
            except ValueError:
                pass
    failures = []
    for label, h, claimed in cases:
        f = balanced_certificate(h)
        got = (f is not None and is_balanced(h, f), nu(h), nu_oracle(h), _block_nu(h))
        if got != (True, claimed, claimed, claimed):
            failures.append((label, got))
    return CheckResult("constructions",
                       "H_q and conj_nn balanced with nu by intersecting blocks",
                       {"checked": len(cases)}, [], failures, not failures)


@_check("zeta")
def check_zeta() -> CheckResult:
    """The bipartite zeta witnesses for n = 3, 4, 5: stated degrees and
    H_{n-2}(M(G)) nonzero."""
    got = {}
    expected = {}
    for n in range(3, 6):
        g, f = cons.zeta_counterexample(n)
        deg = degrees(g, f)
        rows, cols = ({x for (t, _), x in deg.items() if t == side} for side in (1, 2))
        got[n] = (sorted(rows), sorted(cols), betti(matching_complex(g), n - 2) != 0)
        expected[n] = ([Fraction(n - 1)], [Fraction(n, n - 1)], True)
    return CheckResult("zeta", "degrees (n-1, n/(n-1)); betti(M(G), n-2) != 0",
                       {"n": "3..5"}, expected, got, got == expected)


def _star_generators(n: int, s: int):
    """Unions of n disjoint stars K_{1,s} on sides (n, s*n): for s = 1, the
    n! permutation matchings."""
    return {tuple(sorted(((row, c), 1) for c, row in split.items()))
            for split in cons._grid_assignments(range(1, s * n + 1), [s] * n)}


@_check("gordan")
def check_gordan() -> CheckResult:
    """Generating sets at (2,2), (3,3), (2,4): permutations resp. star unions.
    Completeness up to each cap rests on how `hilbert_basis` builds the set:
    it enumerates every balanced vector up to the cap, and each vector w that
    dominates a generator g leaves w - g, which it checks it enumerated."""
    plans = [((2, 2), 4, _star_generators(2, 1)),
             ((3, 3), 6, _star_generators(3, 1)),
             ((2, 4), 8, _star_generators(2, 2))]
    got = {}
    expected = {}
    ok = True
    for sizes, cap, want in plans:
        found = {g.weights for g in hilbert_basis(sizes, cap)}
        expected[sizes] = sorted(want)
        got[sizes] = sorted(found)
        ok = ok and found == want
    return CheckResult("gordan", "permutation/star generators, complete",
                       {}, "exact basis + completeness",
                       "ok" if ok else (expected, got), ok)


@_check("cake")
def check_cake() -> CheckResult:
    """Neither counterexample instance placates all agents on the 1/q grid."""
    q = 6
    got = {}
    expected = {}
    for n in (2, 3):
        for label, inst in (("2n2_nn", instance_2n2_nn(n)),
                            ("nn_2n2", instance_nn_2n2(n))):
            best, _ = grid_max(inst, q)
            got[(label, n)] = best
            expected[(label, n)] = f"<= {n - 1}"
    ok = all(got[(label, n)] <= n - 1 for label, n in got)
    return CheckResult("cake", "grid max nu^D <= n-1 at resolution q",
                       {"q": q}, expected, got, ok)


@_check("tardos")
def check_tardos() -> CheckResult:
    """Families of two-intervals with no m-per-line cover contain m+1
    pairwise disjoint members (via a rainbow matching on identical copies)."""
    per_m = 50
    failures = []
    for m in (1, 2):
        for i in range(per_m):
            family = random_two_interval_family(seed=i, m=m)
            fams = DIntervalFamilies(2, [family] * (m + 1))
            if rainbow_matching(fams, m + 1) is None:
                failures.append((m, i))
    return CheckResult("tardos", "no (m,m)-cover implies m+1 disjoint members",
                       {"per_m": per_m, "m": [1, 2]}, [], failures,
                       not failures)


def run_all(only: Optional[List[str]] = None) -> List[CheckResult]:
    names = only if only else list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    if len(set(names)) < len(names):
        raise ValueError(f"a check is named more than once: {names}")
    return [CHECKS[n]() for n in names]
