import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmat import cakecheck
from balmat.cakecheck import (DivisionInstance, Partition, _nu_each,
                              grid_max, instance_2n2_nn, instance_nn_2n2, nu_D)
from balmat.hypergraph import PartiteHypergraph, nu_oracle
from balmat.rational import over_lcd

HALF = Fraction(1, 2)


def oracle(inst, p):
    """Every agent's list at the partition p, as `nu_D` asks for them."""
    return inst.lists(*over_lcd(p.cakes))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([[HALF, HALF], [1, 1]])
    with pytest.raises(ValueError):
        Partition([[Fraction(3, 2), Fraction(-1, 2)]])
    # slice lengths are ints or Fractions: no float, bool or string
    for bad in ([0.5, 0.5], [True, False], ["1/2", "1/2"]):
        with pytest.raises(ValueError, match="slice length"):
            Partition([bad])


def test_2n2_nn_needs_n_at_least_two():
    with pytest.raises(ValueError, match="n >= 2"):
        instance_2n2_nn(1)


def test_cake_inputs_must_be_int():
    # a bool is no int, and a float would reach range()
    for builder in (instance_2n2_nn, instance_nn_2n2):
        for n in (2.0, True):
            with pytest.raises(ValueError, match="n must be int"):
                builder(n)
    inst = instance_2n2_nn(2)
    for q in (2.0, True):
        with pytest.raises(ValueError, match="resolution must be int"):
            grid_max(inst, q)


def test_2n2_nn_even_split_lists():
    inst = instance_2n2_nn(2)
    p = Partition([[HALF, HALF], [HALF, HALF]])
    # threshold is 1/(n-1) = 1, so B is empty; only max-sum system pairs remain
    assert oracle(inst, p) == ({(1, 1), (2, 2)}, {(1, 2), (2, 1)})


def test_2n2_nn_degenerate_partition():
    inst = instance_2n2_nn(2)
    p = Partition([[1, 0], [1, 0]])
    assert (1, 1) in oracle(inst, p)[0]


def test_2n2_nn_nu_D_at_even_split():
    inst = instance_2n2_nn(2)
    p = Partition([[HALF, HALF], [HALF, HALF]])
    assert nu_D(inst, p) == 1


def test_nu_D_rejects_partition_of_wrong_shape():
    inst = instance_2n2_nn(2)
    third = Fraction(1, 3)
    for cakes in ([[1], [HALF, HALF]], [[HALF, HALF], [third, third, third]],
                  [[HALF, HALF]], [[HALF, HALF], [HALF, HALF], [1]]):
        with pytest.raises(ValueError, match="slice counts"):
            nu_D(inst, Partition(cakes))
    with pytest.raises(ValueError, match="slice counts"):
        nu_D(instance_nn_2n2(3), Partition([[third] * 3, [third] * 3]))


def test_nn_2n2_systems():
    inst = instance_nn_2n2(2)
    assert inst.slice_counts == (2, 2)
    p = Partition([[HALF, HALF], [1, 0]])
    # agent 1's system is {(1,1),(2,2)}; with w = (1,0) the max-sum pair is (1,1)
    acc = oracle(inst, p)[0]
    assert (1, 1) in acc


def test_nn_2n2_b_pairs_pick_joint_max():
    inst = instance_nn_2n2(3)
    p = Partition([[HALF, HALF, 0], [HALF, HALF, 0, 0]])
    for acc in oracle(inst, p):
        assert acc  # hungriness at this grid point
        for j, k in acc:
            assert 1 <= j <= 3 and 1 <= k <= 4


def test_nu_D_trivial_cases():
    always = DivisionInstance(1, (1, 1), lambda lcd, nums: ({(1, 1)},))
    p = Partition([[1], [1]])
    assert nu_D(always, p) == 1
    disjoint = DivisionInstance(
        2, (2, 2), lambda lcd, nums: ({(1, 1)}, {(2, 2)}))
    p2 = Partition([[HALF, HALF], [HALF, HALF]])
    assert nu_D(disjoint, p2) == 2


def test_nu_D_respects_componentwise_disjointness():
    clash = DivisionInstance(2, (2, 2), lambda lcd, nums: ({(1, 1)}, {(1, 2)}))
    p = Partition([[HALF, HALF], [HALF, HALF]])
    assert nu_D(clash, p) == 1  # both agents need slice 1 of cake 1


def nu_D_brute_force(inst, p):
    """Try every assignment of an acceptable vector, or nothing, to each agent."""
    choices = [[None] + sorted(acc) for acc in oracle(inst, p)]
    best = 0
    for pick in itertools.product(*choices):
        chosen = [vec for vec in pick if vec is not None]
        if all(len({vec[t] for vec in chosen}) == len(chosen)
               for t in range(len(inst.slice_counts))):
            best = max(best, len(chosen))
    return best


@st.composite
def small_instances(draw):
    """A DivisionInstance with random acceptable sets: one set per agent for
    each slice of the first cake, taken for the first longest slice of that
    cake, so the lists change over a grid and repeat across it."""
    agents = draw(st.integers(1, 4))
    slices = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    vectors = list(itertools.product(*(range(1, a + 1) for a in slices)))
    table = [tuple(draw(st.sets(st.sampled_from(vectors))) for _ in range(agents))
             for _ in range(slices[0])]

    def lists(lcd, nums):
        first = nums[0]
        return table[first.index(max(first))]

    return DivisionInstance(agents, slices, lists)


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_nu_D_matches_brute_force(inst):
    p = Partition([[Fraction(1, a)] * a for a in inst.slice_counts])
    assert nu_D(inst, p) == nu_D_brute_force(inst, p)


@pytest.mark.parametrize("agents,slices", [(1, (0,)), (0, (2, 2)), (True, (2, 2)),
                                           (1, ()), (1, (2.0, 2))])
def test_division_instance_validation(agents, slices):
    with pytest.raises(ValueError):
        DivisionInstance(agents, slices, lambda lcd, nums: (set(),))


@pytest.mark.parametrize("bad", [{(1,)}, {(1, 1, 1)}, {(3, 1)}, {(0, 1)}])
def test_nu_D_rejects_bad_oracle_vectors(bad):
    inst = DivisionInstance(2, (2, 2), lambda lcd, nums: (bad, bad))
    p = Partition([[HALF, HALF], [HALF, HALF]])
    with pytest.raises(ValueError):
        nu_D(inst, p)


@pytest.mark.parametrize("count", [1, 3])
def test_lists_must_give_one_set_per_agent(count):
    """Too few sets would drop agents from nu silently, too many add some."""
    inst = DivisionInstance(2, (2, 2), lambda lcd, nums: ({(1, 1)},) * count)
    p = Partition([[HALF, HALF], [HALF, HALF]])
    with pytest.raises(ValueError, match=f"lists gave {count} sets for 2 agents"):
        nu_D(inst, p)
    with pytest.raises(ValueError, match=f"lists gave {count} sets for 2 agents"):
        grid_max(inst, 2)


def test_oracle_idempotent_on_grid():
    inst = instance_2n2_nn(2)
    for p in reference_grid(inst.slice_counts, 4):
        assert oracle(inst, p) == oracle(inst, p)


@pytest.mark.parametrize("builder", [instance_2n2_nn, instance_nn_2n2])
def test_hungriness_on_grid(builder):
    """Every agent accepts some pair of strictly positive slices."""
    inst = builder(2)
    for p in reference_grid(inst.slice_counts, 4):
        for acc in oracle(inst, p):
            assert any(all(p.cakes[t][vec[t] - 1] > 0 for t in range(2)) for vec in acc)


def test_grid_max_trivial_instance():
    n = 2
    everything = {(j, k) for j in (1, 2) for k in (1, 2)}
    inst = DivisionInstance(n, (2, 2), lambda lcd, nums: (everything,) * n)
    best, arg = grid_max(inst, 2)
    assert best == n
    assert arg is not None


def test_compositions_in_lexicographic_order():
    """Every composition of total into parts naturals, once each, in
    lexicographic order, which fixes `grid_max`'s first argmax."""
    for total in range(9):
        for parts in range(1, 6):
            every = [c for c in itertools.product(range(total + 1), repeat=parts)
                     if sum(c) == total]
            assert cakecheck._compositions(total, parts) == every


@pytest.mark.parametrize("builder", [instance_2n2_nn, instance_nn_2n2])
def test_counterexample_grid_q4(builder):
    inst = builder(2)
    best, _ = grid_max(inst, 4)
    assert best <= 1


def test_nu_D_never_exceeds_min_side():
    inst = instance_nn_2n2(2)
    for p in reference_grid(inst.slice_counts, 3):
        assert nu_D(inst, p) <= min(inst.agent_count, min(inst.slice_counts))


# --- the oracles as first written, over every pair of slices -----------------


def reference_2n2_nn(n, i, p):
    """Agent i's list: every pair of long slices, plus the max-sum pairs of
    its diagonal or shifted-diagonal system."""
    v, w = p.cakes
    thr = Fraction(1, n - 1)
    system = ({(j, j) for j in range(1, n + 1)} if i <= n - 1
              else {(j, j % n + 1) for j in range(1, n + 1)})
    b = {(j, k) for j in range(1, n + 1) for k in range(1, n + 1)
         if v[j - 1] >= thr and w[k - 1] >= thr}
    top = max(v[j - 1] + w[k - 1] for j, k in system)
    return b | {(j, k) for j, k in system if v[j - 1] + w[k - 1] == top}


def reference_nn_2n2(n, i, p):
    """Agent i's list: its system's max-sum pairs, plus the pairs of B, the
    pairs with a long cake-1 slice, that maximise both coordinates over B."""
    v, w = p.cakes
    thr = Fraction(1, n - 1)
    system = ({(i, k) for k in range(1, n)}
              | {(i % n + 1, k) for k in range(n, 2 * n - 1)})
    top = max(v[j - 1] + w[k - 1] for j, k in system)
    out = {(j, k) for j, k in system if v[j - 1] + w[k - 1] == top}
    b = {(j, k) for j in range(1, n + 1) for k in range(1, 2 * n - 1)
         if v[j - 1] >= thr}
    if b:
        vmax = max(v[j - 1] for j, _ in b)
        wmax = max(w[k - 1] for _, k in b)
        out = out | {(j, k) for j, k in b if v[j - 1] == vmax and w[k - 1] == wmax}
    return out


REFERENCES = [(instance_2n2_nn, reference_2n2_nn), (instance_nn_2n2, reference_nn_2n2)]


@st.composite
def tied_partitions(draw):
    """(n, an instance and its reference oracle, a partition of its cakes).
    Each cake's slices draw their sizes from at most three values, zero
    allowed, so slices tie with each other and often with 1/(n-1)."""
    n = draw(st.integers(2, 4))
    builder, reference = draw(st.sampled_from(REFERENCES))
    inst = builder(n)
    cakes = []
    for a in inst.slice_counts:
        sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        raw = draw(st.lists(st.sampled_from(sizes), min_size=a, max_size=a))
        if not any(raw):
            raw[draw(st.integers(0, a - 1))] = 1
        cakes.append([Fraction(x, sum(raw)) for x in raw])
    return n, inst, reference, Partition(cakes)


@settings(max_examples=300, deadline=None)
@given(tied_partitions())
def test_oracles_match_their_first_form(case):
    n, inst, reference, p = case
    lists = oracle(inst, p)
    assert len(lists) == inst.agent_count
    for i, acc in enumerate(lists, start=1):
        assert acc == reference(n, i, p), i


@settings(max_examples=300, deadline=None)
@given(tied_partitions(), st.integers(1, 3))
def test_lists_at_scaled_numerators(case, k):
    """`grid_max` calls `lists` at q and numerators over q, unreduced, and
    `nu_D` at the reduced common denominator: scaling both by k changes no
    list, and the lists are the first form's."""
    n, inst, reference, p = case
    lcd, nums = over_lcd(p.cakes)
    lists = inst.lists(lcd, nums)
    assert inst.lists(k * lcd, [[k * x for x in cake] for cake in nums]) == lists
    assert lists == tuple(reference(n, i, p) for i in range(1, inst.agent_count + 1))


# --- grid_max against a grid search that runs nu_oracle at every point --------


def compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in compositions(total - first, parts - 1)]


def reference_points(slice_counts, q):
    """The numerators over q of every partition of the 1/q grid: each cake's
    run through the compositions of q in lexicographic order, the first cake
    outermost."""
    return list(itertools.product(*(compositions(q, a) for a in slice_counts)))


def over(q, nums):
    return Partition([[Fraction(x, q) for x in cake] for cake in nums])


def reference_grid(slice_counts, q):
    """Every partition of the 1/q grid, in the order of `reference_points`."""
    return [over(q, nums) for nums in reference_points(slice_counts, q)]


def reference_grid_values(inst, q, lists):
    """(nu^D, p) at each grid point p, where lists(p) gives every agent's list
    at p and nu_oracle, not max_matching, evaluates each point."""
    return [(nu_oracle(PartiteHypergraph(
                (inst.agent_count,) + inst.slice_counts,
                [(i,) + vec for i, acc in enumerate(lists(p), start=1) for vec in acc])), p)
            for p in reference_grid(inst.slice_counts, q)]


def reference_grid_max(inst, q, lists):
    """(best, first argmax) over the grid, with no table of seen hypergraphs."""
    best, arg = -1, None
    for val, p in reference_grid_values(inst, q, lists):
        if val > best:
            best, arg = val, p
    return best, arg


@pytest.mark.parametrize("builder, reference", REFERENCES)
@pytest.mark.parametrize("n, q", [(n, q) for n in (2, 3) for q in (1, 2, 3, 4)]
                         + [(4, 1), (4, 2)])
def test_grid_max_matches_search_without_table(builder, reference, n, q):
    inst = builder(n)
    assert grid_max(inst, q) == reference_grid_max(
        inst, q, lambda p: [reference(n, i, p) for i in range(1, inst.agent_count + 1)])


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.integers(1, 3))
def test_grid_max_matches_search_without_table_on_random_lists(inst, q):
    """Also every value the table hands out, not just the maximum."""
    points = [(q, nums) for nums in reference_points(inst.slice_counts, q)]
    assert ([(v, over(q, nums)) for v, nums in _nu_each(inst, points)]
            == reference_grid_values(inst, q, lambda p: oracle(inst, p)))
    assert grid_max(inst, q) == reference_grid_max(inst, q, lambda p: oracle(inst, p))


# a cake of a slices has C(q + a - 1, a - 1) compositions of q: 3 * 3 points
# at (2, 2) and q = 2, 4 * 4 at q = 3, 6 * 6 at (3, 3), 6 * 10 at (3, 4)
@pytest.mark.parametrize("builder, n, q, points", [
    (instance_2n2_nn, 2, 2, 9), (instance_nn_2n2, 2, 3, 16),
    (instance_2n2_nn, 3, 2, 36), (instance_nn_2n2, 3, 2, 60)])
def test_grid_max_builds_one_partition_and_calls_lists_per_point(monkeypatch, builder, n, q,
                                                                points):
    """`lists` once at each grid point, in grid order, at the unreduced q,
    and one Partition, for the argmax."""
    inst = builder(n)
    expected = grid_max(inst, q)
    calls, built = [], []

    def lists(lcd, nums):
        calls.append((lcd, tuple(map(tuple, nums))))
        return inst.lists(lcd, nums)

    def partition(cakes):
        built.append(cakes)
        return Partition(cakes)

    monkeypatch.setattr(cakecheck, "Partition", partition)
    assert grid_max(DivisionInstance(inst.agent_count, inst.slice_counts, lists), q) == expected
    assert calls == [(q, nums) for nums in reference_points(inst.slice_counts, q)]
    assert len(calls) == points
    assert len(built) == 1
