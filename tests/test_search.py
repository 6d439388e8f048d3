import pytest

from balmat import constructions
from balmat.hypergraph import PartiteHypergraph, is_balanced
from balmat.search import (bm_search_exhaustive, bm_search_sampled, canonical_form,
                           random_graph, random_knn_balanced,
                           random_two_interval_family,
                           random_weighted_multigraph)
from balmat.dinterval import coverable
from balmat.verify import CHECKS, run_all


def test_canonical_form_identifies_relabelings():
    e1 = [(1, 1), (2, 2)]
    e2 = [(1, 2), (2, 1)]  # swap side-2 labels
    assert canonical_form((2, 2), e1) == canonical_form((2, 2), e2)
    assert canonical_form((2, 2), e1) != canonical_form((2, 2), [(1, 1), (2, 1)])


def test_exhaustive_22_gives_koenig_value():
    report = bm_search_exhaustive((2, 2))
    assert report.min_nu == 2
    assert report.exhaustive


def test_exhaustive_222_finds_pasch():
    report = bm_search_exhaustive((2, 2, 2))
    assert report.min_nu == 1
    assert len(report.witness.edges) == 4


@pytest.mark.parametrize("sizes, examined, balanced", [
    ((2, 2), 6, 3), ((2, 3), 12, 3), ((2, 2, 2), 45, 30), ((3, 3), 35, 15), ((2, 4), 21, 6)])
def test_exhaustive_counts(sizes, examined, balanced):
    report = bm_search_exhaustive(sizes)
    assert (report.examined, report.balanced_count) == (examined, balanced)


def test_exhaustive_cap_enforced():
    with pytest.raises(ValueError):
        bm_search_exhaustive((3, 3, 3))


def test_sampled_333_reaches_two():
    report = bm_search_sampled((3, 3, 3), seed=0, trials=2000)
    assert report.min_nu == 2
    assert not report.exhaustive
    from balmat.hypergraph import balanced_certificate, nu
    assert balanced_certificate(report.witness) is not None
    assert nu(report.witness) == 2


def test_sampled_deterministic_and_thread_independent():
    a = bm_search_sampled((2, 2, 2), seed=5, trials=300)
    b = bm_search_sampled((2, 2, 2), seed=5, trials=300)
    assert a == b


def test_sampled_rejects_edge_cap_below_largest_side():
    for trials, cap in ((2, 2), (0, -5)):
        with pytest.raises(ValueError, match=f"edge cap must be >= the largest side 3, got {cap}"):
            bm_search_sampled((3, 3), seed=0, trials=trials, edge_cap=cap)
    assert bm_search_sampled((3, 3), seed=0, trials=2, edge_cap=3).examined == 2


def test_sampled_trials_must_be_int():
    for trials in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="trials must be int"):
            bm_search_sampled((2, 2), seed=0, trials=trials)


def test_sampled_edge_cap_must_be_int():
    # 4.0 would pass the range check and 3.5 fail inside randrange; True is no 1
    for cap in (4.0, 3.5, True):
        with pytest.raises(ValueError, match="edge cap must be int"):
            bm_search_sampled((3, 3), seed=0, trials=2, edge_cap=cap)


def test_sampled_never_below_exhaustive():
    exact = bm_search_exhaustive((2, 2, 2)).min_nu
    sampled = bm_search_sampled((2, 2, 2), seed=1, trials=500).min_nu
    assert sampled is None or sampled >= exact


def test_random_graph_seeded():
    g1, g2 = random_graph(3), random_graph(3)
    assert g1 == g2
    assert 6 <= g1.vertex_count <= 8


def test_random_knn_balanced_really_balanced():
    for seed in range(5):
        h, f = random_knn_balanced(3, 4, seed)
        assert h.side_sizes == (3, 4, 4)
        assert is_balanced(h, f)


def test_random_weighted_multigraph_constraints():
    for seed in range(10):
        g, f, s = random_weighted_multigraph(seed)
        col = {}
        row = {}
        for (b, c, _), w in f.as_dict().items():
            col[c] = col.get(c, 0) + w
            row[b] = row.get(b, 0) + w
        assert all(v <= 2 for v in col.values())
        assert all(v <= 2 * s for v in row.values())


def test_random_two_interval_family_premise():
    fam = random_two_interval_family(seed=0, m=1)
    assert len(fam) <= 8
    assert coverable(fam, (1, 1)) is None


def test_random_two_interval_family_rejects_unreachable_m():
    """Four points per line pierce any 8 two-intervals, one per member, so
    for m >= 4 the rejection sampling could never return; for m = 3 it
    almost never draws a family with no (3,3)-cover."""
    for m in (3, 4, 5):
        with pytest.raises(ValueError, match=f"m must be <= 2, got {m}"):
            random_two_interval_family(0, m=m)
    for m in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="m must be int"):
            random_two_interval_family(0, m=m)


def test_run_all_subset_and_unknown():
    results = run_all(["pasch"])
    assert len(results) == 1 and results[0].passed
    with pytest.raises(KeyError):
        run_all(["nonsense"])


def test_pasch_check_rejects_mutant(monkeypatch):
    # drop one edge and relabel another: still a hypergraph, no longer balanced
    mutant = PartiteHypergraph((2, 2, 2), [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
    monkeypatch.setattr(constructions, "pasch", lambda: (mutant, None))
    assert not CHECKS["pasch"]().passed
