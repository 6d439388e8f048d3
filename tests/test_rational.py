import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balmat.rational import (LPProblem, Optimal, add_row, exact, format_rational, lp_solve,
                             over_lcd, parse_rational, rank_of_rows)


def test_parse_and_format_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("-06/08") == Fraction(-3, 4)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(" -2 ")
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(-7) == "-7"


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1/2", None])
def test_format_rational_takes_only_int_or_fraction(bad):
    """`Fraction(0.5)` and `Fraction(True)` are exact, so without the check a
    float or a bool would print as a rational."""
    with pytest.raises(ValueError, match="rational must be int or Fraction"):
        format_rational(bad)


@pytest.mark.parametrize("text", ["0.5", "1e0", "1_0/20", " 3/4 ", "2.0", "+1", "1/-2",
                                  "", "-", "/2", "1/", "3/4\n", "\u0663", "inf", "nan"])
def test_parse_rational_reads_only_p_over_q(text):
    """Only an optional minus, digits, and an optional slash and digits:
    no decimal point, exponent, underscore, plus sign, space or non-ASCII
    digit, all of which `Fraction(text)` accepts."""
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(text)


def test_parse_rational_rejects_a_zero_denominator():
    for text in ("1/0", "0/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_exact():
    q = Fraction(2, 3)
    assert exact(q, "x") is q
    assert exact(-4, "x") == Fraction(-4) and type(exact(-4, "x")) is Fraction
    for bad in (0.5, 1.0, True, "1/2", None):
        with pytest.raises(ValueError, match="x must be int or Fraction"):
            exact(bad, "x")


def test_over_lcd():
    assert over_lcd([[Fraction(1, 2), 3], [Fraction(-5, 6)], []]) == (6, [[3, 18], [-5], []])
    assert over_lcd([]) == (1, [])


@given(st.fractions())
def test_format_parse_identity(q):
    assert parse_rational(format_rational(q)) == q


def test_ceil_floor():
    # the library rounds Fractions with math.ceil: exact, and an int, where a
    # float would round 1 + 10^-30 down to 1
    assert math.ceil(Fraction(7, 2)) == 4
    assert math.ceil(Fraction(-7, 2)) == -3
    assert math.ceil(Fraction(10**30 + 1, 10**30)) == 2
    assert type(math.ceil(Fraction(7, 2))) is int


def rank_leaving_rows(rows):
    """rank_of_rows(rows), asserting that it hands the rows back
    unmodified."""
    before = [dict(row) for row in rows]
    rank = rank_of_rows(rows)
    assert rows == before
    return rank


def sparse(dense):
    """{col: int} rows holding the nonzero entries of integer rows."""
    return [{c: x for c, x in enumerate(row) if x} for row in dense]


def test_rank_simple():
    assert rank_leaving_rows([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]) == 2
    assert rank_leaving_rows([{i: 1} for i in range(4)]) == 4
    assert rank_leaving_rows([{}, {}]) == 0


def test_rank_sparse_rows():
    assert rank_leaving_rows([{0: 1, 2: -1}, {0: 2, 2: -2}]) == 1
    assert rank_leaving_rows([{2: 3, 0: -6}, {0: 4, 2: -2}, {1: 5}]) == 2


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_equals_transpose_rank(entries):
    assert (rank_leaving_rows(sparse(entries))
            == rank_leaving_rows(sparse(zip(*entries))))


def dense_fraction_rank(rows, ncols):
    """Reference rank: dense Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


scalars = st.one_of(st.integers(-3, 3), st.integers(-10 ** 15, 10 ** 15),
                    st.fractions(max_denominator=10 ** 9))


@st.composite
def rank_inputs(draw):
    """Dense `Fraction` rows that are combinations of a few base rows, so
    rank deficiency is common."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols), max_size=4))
    coefs = draw(st.lists(st.lists(scalars, min_size=len(base), max_size=len(base)),
                          max_size=6))
    dense = [[sum((Fraction(c) * b[j] for c, b in zip(cs, base)), Fraction(0))
              for j in range(ncols)]
             for cs in coefs]
    return dense, ncols


def integer_rows(dense):
    """Each row scaled by the lcm of its denominators, which keeps the rank:
    the integer rows that rank_of_rows takes."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in dense]
    return sparse([x.numerator * (scale // x.denominator) for x in row]
                  for row, scale in zip(dense, scales))


@settings(max_examples=300, deadline=None)
@given(rank_inputs())
def test_rank_matches_dense_fraction_gauss_jordan(case):
    dense, ncols = case
    assert rank_leaving_rows(integer_rows(dense)) == dense_fraction_rank(dense, ncols)


def test_add_row_builds_a_stored_pivot_when_a_row_first_reads_it():
    """A pivot stored as the arguments of its build is built, made primitive
    and kept the first time a row reaches its column, and never again."""
    built = []

    def build(*args):
        built.append(args)
        return {2: -2, 0: 4}

    pivots = {2: ("row", 0)}
    add_row(pivots, {2: 1, 1: 1}, build)
    assert built == [("row", 0)]
    assert pivots == {2: {2: 1, 0: -2}, 1: {1: 1, 0: 2}}
    add_row(pivots, {2: 3, 0: -6}, build)  # reduces to zero
    assert built == [("row", 0)] and len(pivots) == 2


def test_lp_basic_max():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    p = LPProblem(2, [([1, 2], 4), ([3, 1], 6)], [1, 1])
    res = lp_solve(p)
    assert isinstance(res, Optimal)
    assert all(type(x) is int for x in (res.value, res.det, *res.point, *res.dual))
    assert answer(res) == (Fraction(14, 5), [Fraction(8, 5), Fraction(6, 5)],
                           [Fraction(2, 5), Fraction(1, 5)])


def test_lp_unbounded():
    p = LPProblem(1, [([-1], 0)], [1])
    with pytest.raises(ValueError, match="unbounded"):
        lp_solve(p)


def test_lp_negative_rhs_rejected():
    # x >= 2 written as -x <= -2 is outside the one form lp_solve poses
    with pytest.raises(ValueError):
        lp_solve(LPProblem(1, [([-1], -2)], [-1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                          st.integers(0, 5)),
                min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_lp_weak_duality_with_point(cons, obj):
    """Any answer that is not an unbounded error carries a point and a dual
    that are feasible and have the same total: each proves the other optimal."""
    try:
        res = lp_solve(LPProblem(2, cons, obj))
    except ValueError as e:
        assert "unbounded" in str(e)
        return
    assert_certified(cons, obj, res)


def test_lp_problem_validation():
    with pytest.raises(ValueError):
        LPProblem(2, [([1], 1)], [1, 1]).check()
    with pytest.raises(ValueError):
        LPProblem(1, [([1], 1)], [1, 1]).check()


def _lps_with_entry(x):
    """One-variable LPs holding x as a right side, a coefficient and the objective."""
    return (LPProblem(1, [([1], x)], [1]), LPProblem(1, [([x], 1)], [1]),
            LPProblem(1, [([1], 1)], [x]))


@pytest.mark.parametrize("bad", [0.5, True, "1", None])
def test_lp_rejects_entries_that_are_not_int_or_fraction(bad):
    # Fraction(0.5) >= 0 would let a float right side through
    for p in _lps_with_entry(bad):
        with pytest.raises(ValueError, match="LP entry must be int"):
            lp_solve(p)
    lp_solve(LPProblem(1, [([2], 3)], [-1]))


def test_lp_rejects_a_fraction_entry():
    """Entries are ints: a caller with rationals scales them first."""
    for p in _lps_with_entry(Fraction(1, 2)):
        with pytest.raises(ValueError, match="LP entry must be int, not Fraction"):
            lp_solve(p)


@pytest.mark.parametrize("bad, name", [(0.5, "float"), (True, "bool"),
                                       (Fraction(1, 2), "Fraction"), (None, "NoneType")])
def test_lp_check_names_the_last_entry(bad, name):
    """An entry that is no int is found and named wherever it sits, here at
    the last coefficient of the last row or at the objective's last entry
    of a 5 x 5 LP."""
    cons = [([(i + j) % 3 for j in range(5)], 4) for i in range(5)]
    obj = [1] * 5
    for p in (LPProblem(5, cons[:-1] + [(cons[-1][0][:-1] + [bad], 4)], obj),
              LPProblem(5, cons, obj[:-1] + [bad])):
        with pytest.raises(ValueError, match=f"^LP entry must be int, not {name}$"):
            lp_solve(p)
    lp_solve(LPProblem(5, cons, obj))


def test_lp_check_names_the_first_of_two_bad_entries():
    """The objective is read first, then each row's coefficients and right side."""
    p = LPProblem(2, [([1, None], 1), ([1, 1], 0.5)], [1, True])
    with pytest.raises(ValueError, match="^LP entry must be int, not bool$"):
        p.check()
    p = LPProblem(2, [([1, None], 1), ([1, 1], 0.5)], [1, 1])
    with pytest.raises(ValueError, match="^LP entry must be int, not NoneType$"):
        p.check()


def _solve_square(rows, rhs):
    """The unique solution of a square system, or None when it is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] / a[r][r] for r in range(n)]


def _vertices(n, eqs, les):
    """Every vertex of {x >= 0, eqs hold with equality, les hold}: the
    feasible solutions of n linearly independent constraints made tight."""
    bounds = les + [([-(i == j) for j in range(n)], 0) for i in range(n)]
    found = set()
    for tight in itertools.combinations(eqs + bounds, n):
        x = _solve_square([c for c, _ in tight], [b for _, b in tight])
        if x is not None and all(sum(a * v for a, v in zip(c, x)) == b for c, b in eqs) \
                and all(sum(a * v for a, v in zip(c, x)) <= b for c, b in bounds):
            found.add(tuple(x))
    return found


UNBOUNDED = "unbounded"  # the oracles' answer where lp_solve raises ValueError


def _lp_oracle(n, cons, obj):
    """max obj . x over {x >= 0, cons hold} by enumeration: UNBOUNDED when
    some extreme ray (a vertex of the recession cone cut by sum x = 1) gains.
    x = 0 is a vertex, since every right side is >= 0."""
    rays = _vertices(n, [([1] * n, 1)], [(c, 0) for c, _ in cons])
    if any(sum(c * d for c, d in zip(obj, ray)) > 0 for ray in rays):
        return UNBOUNDED
    return max(sum(c * x for c, x in zip(obj, point)) for point in _vertices(n, [], cons))


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 3))
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(0, 4))
    cons = draw(st.lists(row, min_size=1, max_size=4))
    obj = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    return n, cons, obj


@settings(max_examples=300, deadline=None)
@given(small_lps())
# Degenerate: x enters and both rows tie at ratio 0, so Bland's rule picks
# the lower slack and the next pivot is again a zero step.
@example((2, [([1, 1], 0), ([1, -1], 0)], [1, 1]))
def test_lp_matches_vertex_enumeration(lp):
    n, cons, obj = lp
    want = _lp_oracle(n, cons, obj)
    if want is UNBOUNDED:
        with pytest.raises(ValueError, match="unbounded"):
            lp_solve(LPProblem(n, cons, obj))
        return
    res = lp_solve(LPProblem(n, cons, obj))
    assert answer(res)[0] == want
    assert len(res.point) == n
    assert_certified(cons, obj, res)


def answer(res):
    """An `Optimal`'s value, point and dual as `Fraction`s."""
    return (Fraction(res.value, res.det), [Fraction(x, res.det) for x in res.point],
            [Fraction(y, res.det) for y in res.dual])


def _fraction_simplex(n, cons, obj, states=None):
    """The rational tableau that `lp_solve` takes pivot for pivot: Bland's
    rule, the same ratio test, every entry a `Fraction`.  (value, point,
    dual) or UNBOUNDED; the dual is minus the final reduced costs of the
    slack columns.  A list `states` gets (basis, det) after each pivot, det
    the fraction-free dictionary's denominator: the previous det times the
    rational pivot entry, which must be an integer."""
    m = len(cons)
    total = n + m
    tableau = []
    for i, (coeffs, rhs) in enumerate(cons):
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * m + [Fraction(rhs)]
        row[n + i] = Fraction(1)
        tableau.append(row)
    tableau.append([Fraction(c) for c in obj] + [Fraction(0)] * (m + 1))
    basis = list(range(n, total))
    while True:
        cost = tableau[m]
        enter = next((j for j in range(total) if cost[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i, b in enumerate(basis):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][total] / a
                if best is None or ratio < best or (ratio == best and b < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        piv = tableau[leave][enter]
        row = tableau[leave] = [x / piv for x in tableau[leave]]
        for i, other in enumerate(tableau):
            coef = other[enter]
            if coef and i != leave:
                tableau[i] = [o - coef * r for o, r in zip(other, row)]
        basis[leave] = enter
        if states is not None:
            det = piv * (states[-1][1] if states else 1)
            assert det.denominator == 1
            states.append((tuple(basis), int(det)))
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][total]
    return -tableau[m][total], point, [-tableau[m][n + i] for i in range(m)]


def assert_certified(cons, obj, res):
    """x and y are feasible for the LP and its dual, with equal totals."""
    value, x, y = answer(res)
    assert len(y) == len(cons) and min(x + y, default=0) >= 0
    for coeffs, rhs in cons:
        assert sum(a * v for a, v in zip(coeffs, x)) <= rhs
    for j, c in enumerate(obj):
        assert sum(w * coeffs[j] for w, (coeffs, _) in zip(y, cons)) >= c
    assert value == sum(c * v for c, v in zip(obj, x)) \
        == sum(w * rhs for w, (_, rhs) in zip(y, cons))


# Few distinct values, so ratio ties, zero right sides and zero steps are common.
lp_scalars = st.one_of(st.sampled_from([0, 0, 1, -1, 2, 3, -6]), st.integers(-35, 35))


@st.composite
def rational_lps(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(st.lists(lp_scalars, min_size=n, max_size=n),
                    st.one_of(st.sampled_from([0, 1, 3]), st.integers(0, 35)))
    cons = draw(st.lists(row, min_size=1, max_size=5))
    obj = draw(st.lists(lp_scalars, min_size=n, max_size=n))
    return n, cons, obj


@settings(max_examples=300, deadline=None)
@given(rational_lps())
@example((2, [([1, 1], 0), ([1, -1], 0)], [1, 1]))
# Two rows tie in a ratio test; with the higher basic column leaving instead
# of the lower, the optimum found moves from (0, 4, 2) to (0, 4, 0).
@example((3, [([1, 0, 1], 2), ([2, 1, 0], 4)], [2, 2, 0]))
def test_lp_matches_fraction_simplex(lp):
    """The integer dictionary takes the rational tableau's pivots: the same
    value, point and dual, or UNBOUNDED; and its dual certifies each Optimal.
    An LP has many optimal duals, so comparing the dual is what catches a
    dictionary that mislabels which slack sits in which column."""
    n, cons, obj = lp
    want = _fraction_simplex(n, cons, obj)
    if want is UNBOUNDED:
        with pytest.raises(ValueError, match="unbounded"):
            lp_solve(LPProblem(n, cons, obj))
        return
    res = lp_solve(LPProblem(n, cons, obj))
    assert isinstance(res, Optimal) and answer(res) == want
    assert_certified(cons, obj, res)


def _lp_states(p):
    """lp_solve(p) and the (basis, det) it holds after each pivot, read off
    its frame by a line tracer at the first line run after `basis` changed."""
    states = []
    last = None

    def line(frame, event, arg):
        nonlocal last
        basis = frame.f_locals.get("basis")
        if event == "line" and basis is not None:
            if last is not None and tuple(basis) != last:
                states.append((tuple(basis), frame.f_locals["det"]))
            last = tuple(basis)
        return line

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is lp_solve.__code__ else None)
    try:
        res = lp_solve(p)
    finally:
        sys.settrace(old)
    return res, states


# (n, constraints, objective, the kinds of pivot it must take): "det" for a
# pivot entry equal to det > 1, which updates rows in place, and "dense" for
# one unequal to det, which rewrites every row, a row with a zero in the
# entering column too.
BRANCH_LPS = {
    "piv == det > 1": (2, [([0, 2], 3), ([3, 3], 2)], [1, 3], {"det"}),
    "piv != det": (2, [([0, 2], 0), ([1, 0], 1)], [3, 1], {"dense"}),
}


@pytest.mark.parametrize("lp", BRANCH_LPS.values(), ids=BRANCH_LPS.keys())
def test_lp_update_branches_match_fraction_simplex(lp):
    """Both row updates take the rational tableau's pivots: after each pivot
    the same basis, and a det that is the rational pivot entries' product;
    and at the end the same value, point and dual."""
    n, cons, obj, kinds = lp
    want_states = []
    want = _fraction_simplex(n, cons, obj, want_states)
    dets = [1] + [det for _, det in want_states]
    taken = {"det" if new == old else "dense"
             for old, new in zip(dets, dets[1:]) if new != old or old > 1}
    assert kinds <= taken
    res, states = _lp_states(LPProblem(n, cons, obj))
    assert states == want_states
    assert res.det == dets[-1] and answer(res) == want
