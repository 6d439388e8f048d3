"""Exact rational scalars, matrix rank, and a simplex LP solver.

Rank over the rationals is exact fraction-free integer elimination: sparse
integer rows are combined by integer multiples, so homology ranks never build
a `Fraction`.  `add_row` is the one reduction: it reduces a row on its
highest column, as in the standard boundary-matrix reduction, and stores
what is left as a pivot.  `rank_of_rows` feeds it dict rows; the Betti scan,
`topology._coboundary_pivots`, feeds it signed coboundary rows, and stores a
row whose highest column is free unbuilt, an emergent pair (Bauer 2021),
for `add_row` to build the first time a later row reads it.  A caller that
has proven an upper bound on the rank stops once it holds that many pivots.

The LP has one form: maximise c . x over rows coeffs . x <= rhs with
rhs >= 0 and x >= 0, so the slack basis at x = 0 starts it feasible.  Its
entries are ints, and the simplex pivots a fraction-free integer dictionary
(Edmonds 1967) of the nonbasic columns only, as in Avis's lrs: no slack
column is stored, and Bland's rule chooses by variable index.  It builds a
`Fraction` only for the answer: the value, the point and the dual that
certifies them.  It serves the capped fractional matchings of `hypergraph`
(balance certificates, fractional matching numbers).

This module is the one boundary of exact numbers.  No floats anywhere:
`checked` keeps a float or bool from passing for an int, `exact` keeps
anything but an int or a `Fraction` from passing for a rational,
`over_lcd` writes rationals as integers over their least common
denominator, and `parse_rational` reads only the text "p/q" or "p".
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(s: str) -> Fraction:
    """The Fraction that s spells: an optional minus, digits, and optionally
    a slash and more digits, with nothing around them.  Anything else, and a
    zero denominator, is a ValueError."""
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        raise ValueError(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


def format_rational(q) -> str:
    """Render a Fraction as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def checked(x, kind, what):
    """x itself when its type is exactly `kind`, so a bool is no int and a
    float is none; else a ValueError."""
    if type(x) is not kind:
        raise ValueError(f"{what} must be {kind.__name__}, not {type(x).__name__}")
    return x


def exact(x, what) -> Fraction:
    """x as an exact rational: a Fraction itself, an int as a Fraction; a
    float, a bool or anything else is a ValueError."""
    if type(x) is Fraction:
        return x
    if type(x) is not int:
        raise ValueError(f"{what} must be int or Fraction, not {type(x).__name__}")
    return Fraction(x)


def over_lcd(groups) -> Tuple[int, List[List[int]]]:
    """(D, the groups' entries times D, as ints), D the least common
    denominator of every entry of the rational groups."""
    lcd = math.lcm(*(x.denominator for group in groups for x in group))
    return lcd, [[x.numerator * (lcd // x.denominator) for x in group] for group in groups]


def rank_of_rows(rows: Iterable[Dict[int, int]], ceiling: Optional[int] = None) -> int:
    """Rank over the rationals of integer rows {col: nonzero int}, left
    unmodified, by sparse, fraction-free elimination (`add_row`).
    `ceiling`, when given, must be an upper bound on the rank that the caller
    has proven: the elimination stops once the rank reaches it, and the rank
    is then exactly the ceiling.
    """
    pivots: dict = {}
    for row in rows:
        if len(pivots) == ceiling:
            break
        add_row(pivots, dict(row))
    return len(pivots)


def add_row(pivots: dict, r: Dict[int, int], build=None) -> None:
    """Reduce the integer row r, in place, on its highest column against
    pivots until it is zero or its highest column leads no pivot, and store
    it then as that column's pivot.

    pivots maps a column to the primitive integer row whose highest column
    it is, with a positive entry there, so that a pivot led by 1 never
    scales a row; or to the arguments of an emergent pair, a row stored
    unbuilt, which build(*args) returns as a dict the first time r reads
    it.  Highest-column pivots are those of the boundary-matrix reduction
    (Zomorodian-Carlsson 2005), which keeps the fill-in of boundary rows
    low.
    """
    while r:
        col = max(r)
        pivot = pivots.get(col)
        if pivot is None:
            pivots[col] = _primitive(r, col)
            return
        if type(pivot) is not dict:
            pivot = pivots[col] = _primitive(build(*pivot), col)
        # r <- (a/g) r - (b/g) pivot clears col without leaving the integers.
        a, b = pivot[col], r.pop(col)
        g = math.gcd(a, b)
        mult, coef = a // g, b // g
        if mult != 1:
            for c in r:
                r[c] *= mult
        for c, v in pivot.items():
            if c != col:
                nv = r.get(c, 0) - coef * v
                if nv:
                    r[c] = nv
                else:
                    del r[c]
        if mult != 1:
            # A scaled row is made primitive again, which keeps entries small.
            content = math.gcd(*r.values())  # 0 when r is empty
            if content > 1:
                for c in r:
                    r[c] //= content


def _primitive(row: Dict[int, int], col: int) -> Dict[int, int]:
    """The nonzero integer row divided by its content, signed so that its
    entry at col is positive."""
    content = math.gcd(*row.values())
    if row[col] < 0:
        content = -content
    return row if content == 1 else {c: v // content for c, v in row.items()}


# --- Linear programming -----------------------------------------------------


@dataclass
class LPProblem:
    """Maximise objective . x subject to (coeffs, rhs) rows meaning
    coeffs . x <= rhs, with rhs >= 0, and x >= 0; every entry is an int."""

    variables: int
    constraints: List[Tuple[Sequence[int], int]]  # (coeffs, rhs)
    objective: Sequence[int]

    def check(self):
        if len(self.objective) != self.variables:
            raise ValueError("objective length mismatch")
        for coeffs, rhs in self.constraints:
            if len(coeffs) != self.variables:
                raise ValueError("constraint length mismatch")
        for x in itertools.chain(self.objective, *(
                (*coeffs, rhs) for coeffs, rhs in self.constraints)):
            checked(x, int, "LP entry")
        for _, rhs in self.constraints:
            if rhs < 0:
                raise ValueError(f"negative right-hand side {rhs}")


@dataclass
class Optimal:
    value: Fraction
    point: List[Fraction]
    dual: List[Fraction]  # y, one entry per constraint row


def lp_solve(p: LPProblem) -> Optimal:
    """Exact simplex with Bland's anti-cycling rule on one integer dictionary.

    Returns Optimal(value, point, dual); raises ValueError when the objective
    is unbounded, that is, when a ratio test finds no row.  The entries are
    ints, so the dictionary starts as the LP itself; a caller with rational
    data scales it to integers first (`over_lcd`).  Variable n + i is row
    i's slack.  Only the nonbasic columns are kept, `cols[c]` naming the
    variable in column c, as in Avis's lrs; the start is the slack basis at
    x = 0, det = 1.  Bland's rule enters the lowest variable with a positive
    reduced cost and, among tied ratios, leaves on the lowest basic
    variable.  Fraction-free (Edmonds
    1967): the dictionary is always det times the rational one of the same
    basis, det being the last pivot, so every division in the update is
    exact; the leaving variable takes the entering column, -a_i in each
    other row i and the old det in the pivot row.  The dual y is minus the
    final reduced costs at the slacks (0 for a basic slack); y >= 0,
    y . coeffs >= objective and y . rhs = value.
    """
    p.check()
    n = p.variables
    m = len(p.constraints)
    tableau = [[*coeffs, rhs] for coeffs, rhs in p.constraints] + [[*p.objective, 0]]
    cols = list(range(n))
    basis = list(range(n, n + m))
    det = 1
    while True:
        cost = tableau[m]
        enter = min(((v, c) for c, v in enumerate(cols) if cost[c] > 0), default=(0, -1))[1]
        if enter < 0:
            break
        # Bland's ratio test: least rhs / entry over positive entries, ties to
        # the lowest basic variable; ratios compared by cross-multiplying.
        leave = -1
        for i, b in enumerate(basis):
            a = tableau[i][enter]
            if a > 0:
                r = tableau[i][n]
                if leave < 0:
                    leave, num, den = i, r, a
                else:
                    here, best = r * den, num * a
                    if here < best or (here == best and b < basis[leave]):
                        leave, num, den = i, r, a
        if leave < 0:
            raise ValueError("the LP is unbounded")
        prow = tableau[leave]
        piv = prow[enter]
        for i, row in enumerate(tableau):
            if i == leave:
                continue
            coef = row[enter]
            if coef:
                tableau[i] = [(piv * x - coef * y) // det for x, y in zip(row, prow)]
                tableau[i][enter] = -coef
            elif piv != det:
                tableau[i] = [piv * x // det if x else 0 for x in row]
        prow[enter] = det
        det = piv
        basis[leave], cols[enter] = cols[enter], basis[leave]
    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tableau[i][n], det)
    cost = tableau[m]
    dual = [ZERO] * m
    for c, v in enumerate(cols):
        if v >= n:
            dual[v - n] = Fraction(-cost[c], det)
    return Optimal(Fraction(-cost[n], det), point, dual)
