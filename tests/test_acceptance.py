"""Acceptance suite: one test per headline criterion, one printed verdict
line each.  Every numeric claim is exact (rational arithmetic throughout);
the wall-clock budgets are generous upper bounds, checked all the same.
"""

import hashlib
import time

from balmat import jsonio
from balmat.verify import CHECKS

# sha256 of each check's `verify-all` record, `jsonio.dumps(result.to_json())`:
# a refactor that claims unchanged output must keep every one of these.
DIGESTS = {
    "pasch": "0111b9cdf6e2306ba9af8c685deb5572c4c100e0ce56a37eed1cf2a643fa613e",
    "nnn": "1d50f6edba51609198779ce8abe6334ce53b899cb0de15344e965a6159362087",
    "furedi": "40bd6510ef43a8bce05daa457a36dc3f2fc64f6386454abda1995faa0fcb5bb0",
    "ind-psi": "553bcfcbb6307ae1369d35b4538ce19ddb5db5f78a447c0bbadb213a2fa76e04",
    "matching-bound": "b62c2578a1646cda5ce6d83863f6cab9be36b65c38e6bf2178df3b6c40897de2",
    "hall": "7817c5ceb8ff5882eccbfdfefbe535cba37b2f7e76ff8caf0cffbba201a09d98",
    "upper-bounds": "e5dbc460252fafc57883181e202dd6a6632ef6dbcfb32a9a2449ab8f6f2b89e8",
    "constructions": "ddd5d6fd45b5307510cca7c96a78c0c4eb7b55e0cd409761d016036573ad07ad",
    "zeta": "f8a3d844ab1c55b7cba1f04ff96ff20f05d08f47d52275382fc4fcfebcb7fd81",
    "gordan": "5de16629cdac886d880654fcb7f13bf5118c7d057563460dbf09ca3abba6de68",
    "cake": "3a3b7b498a066ecc9bc29f3bb5da6aa6f46516691ea7f6410515cbc368154035",
    "tardos": "aab8ca9b0d8eef569add3a7a5be73edecc144401fa451bbd83fb63433d4a4817",
}


def _report(tag, result, elapsed, budget):
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {tag}: {result.claim} "
          f"[{elapsed:.1f}s / {budget:.0f}s budget]")
    assert result.passed, (result.expected, result.got)
    assert elapsed < budget


def _run(tag, name, budget):
    t0 = time.monotonic()
    result = CHECKS[name]()
    _report(tag, result, time.monotonic() - t0, budget)
    record = jsonio.dumps(result.to_json()).encode()
    assert hashlib.sha256(record).hexdigest() == DIGESTS[name], record


def test_criterion_01_pasch():
    """Intersecting (2,2,2) quadruple: balanced, nu = 1, nu* = 2."""
    _run("criterion 1", "pasch", budget=1)


def test_criterion_02_nnn_tight_and_exhaustive_search():
    """nu = ceil(n/2) for the tight (n,n,n) family, n = 2..6; the exhaustive
    minimum over balanced (2,2,2) hypergraphs is 1."""
    _run("criterion 2", "nnn", budget=10)


def test_criterion_03_furedi_bound():
    """nu >= ceil(nu*/(d-1)) on 500 seeded balanced instances, d in {2,3},
    sizes up to (5,5,5)."""
    _run("criterion 3", "furedi", budget=60)


def test_criterion_04_independence_complex_vs_game():
    """eta(I(G)) >= Psi(G), exhaustively on <= 5 vertices plus 200 seeded
    graphs on 6-8 vertices, homology capped at 6."""
    _run("criterion 4", "ind-psi", budget=300)


def test_criterion_05_matching_complex_lower_bound():
    """Psi(L(G)) and the explicit strategy both reach ceil(|f|/(2s+2)) on 100
    seeded weighted instances with <= 10 line-graph vertices."""
    _run("criterion 5", "matching-bound", budget=120)


def test_criterion_06_topological_hall():
    """hall_check passes with deficiency k - min(k, ceil(n/2)) on 50 seeded
    balanced (k,n,n) instances for each (k,n) in {(2,3),(3,4),(3,5),(4,5)},
    producing a matching of the claimed size."""
    _run("criterion 6", "hall", budget=300)


def test_criterion_07_upper_bound_constructions():
    """Every one of the 72 generated upper-bound families, drisko(n) up to
    n = 8 among them, is exactly balanced and has exactly its claimed nu
    (cross-checked by an independent exhaustive oracle)."""
    _run("criterion 7", "upper-bounds", budget=120)


def test_criterion_08_zeta_counterexample():
    """The bipartite witnesses for n = 3, 4, 5 have degrees (n - 1, n/(n - 1))
    and nonvanishing (n - 2)-th homology of their matching complexes."""
    _run("criterion 8", "zeta", budget=60)


def test_criterion_09_gordan_bases():
    """Generators at (2,2) cap 4, (3,3) cap 6, (2,4) cap 8 are exactly the
    permutation/star-union indicators, complete up to the cap."""
    _run("criterion 9", "gordan", budget=120)


def test_criterion_10_cake_counterexamples():
    """grid_max at q = 6 stays <= n - 1 for both instances, n in {2, 3}."""
    _run("criterion 10", "cake", budget=600)


def test_criterion_11_two_interval_piercing():
    """100 seeded families of <= 8 two-intervals with no (m,m)-cover each
    contain m + 1 pairwise disjoint members, m in {1, 2}."""
    _run("criterion 11", "tardos", budget=120)


def test_criterion_12_construction_families():
    """H_q for q <= 8 with q - 1 prime and all 13 feasible conj_nn(n, variant)
    with n <= 8: balanced by a checked certificate, nu = nu_oracle, and the
    stated nu proved by splitting the edges into intersecting blocks."""
    _run("criterion 12", "constructions", budget=60)
