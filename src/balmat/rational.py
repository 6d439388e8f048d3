"""Exact rational scalars, matrix rank, and a simplex LP solver.

Rank over the rationals is exact fraction-free integer elimination: sparse
integer rows are combined by integer multiples, so homology ranks never build
a `Fraction`.  Each row is reduced on its highest column, as in the standard
boundary-matrix reduction, and a caller that has proven an upper bound on the
rank passes it as a ceiling, at which the elimination stops.  The LP has one
form: maximise c . x over rows coeffs . x <= rhs with rhs >= 0 and x >= 0, so
the slack basis at x = 0 starts it feasible.  Its entries are ints or
Fractions; the LP is scaled to integers, and the simplex pivots a
fraction-free integer tableau (Edmonds 1967), building a `Fraction`
only for the answer: the value, the point and the dual that certifies them.
It serves the capped fractional matchings of `hypergraph` (balance
certificates, fractional matching numbers).  No floats anywhere, and
`checked` keeps a float or bool from passing for an int.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    return Fraction(s.strip())


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


def rank_of_rows(rows: Iterable[Dict[int, int]], ceiling: Optional[int] = None) -> int:
    """Rank over the rationals by sparse, fraction-free integer elimination.

    Each row is a dict {col: nonzero int}; the rows are left unmodified.
    `ceiling`, when given, must be an upper bound on the rank that the caller
    has proven: the elimination stops once the rank reaches it, and the rank
    is then exactly the ceiling.
    """
    rank = 0
    # pivots: col -> primitive integer row whose highest column is col, with a
    # positive entry there, so that a pivot led by 1 never scales a row.
    # Highest-column pivots are those of the boundary-matrix reduction
    # (Zomorodian-Carlsson 2005), which keeps the fill-in of boundary rows low.
    pivots: dict = {}
    for row in rows:
        if rank == ceiling:
            break
        r = dict(row)
        while r:
            col = max(r)
            pivot = pivots.get(col)
            if pivot is None:
                content = math.gcd(*r.values())
                if r[col] < 0:
                    content = -content
                if content != 1:
                    r = {c: v // content for c, v in r.items()}
                pivots[col] = r
                rank += 1
                break
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
    return rank


# --- Linear programming -----------------------------------------------------


@dataclass
class LPProblem:
    """Maximise objective . x subject to (coeffs, rhs) rows meaning
    coeffs . x <= rhs, with rhs >= 0, and x >= 0; every entry is an int or a
    Fraction."""

    variables: int
    constraints: List[Tuple[Sequence, object]]  # (coeffs, rhs)
    objective: Sequence

    def check(self):
        if len(self.objective) != self.variables:
            raise ValueError("objective length mismatch")
        for coeffs, rhs in self.constraints:
            if len(coeffs) != self.variables:
                raise ValueError("constraint length mismatch")
        for x in itertools.chain(self.objective, *(
                (*coeffs, rhs) for coeffs, rhs in self.constraints)):
            if type(x) is not int and type(x) is not Fraction:
                raise ValueError(f"LP entry {x!r} must be int or Fraction, "
                                 f"not {type(x).__name__}")
        for _, rhs in self.constraints:
            if rhs < 0:
                raise ValueError(f"negative right-hand side {rhs}")


@dataclass
class Optimal:
    value: Fraction
    point: List[Fraction]
    dual: List[Fraction]  # y, one entry per constraint row


class _Tag:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


UNBOUNDED = _Tag("Unbounded")


def _integer_row(row) -> Tuple[List[int], int]:
    """The row times its scale, the lcm of its denominators, as ints."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def lp_solve(p: LPProblem):
    """Exact simplex with Bland's anti-cycling rule on one integer tableau.

    Returns Optimal(value, point, dual) or UNBOUNDED.  The tableau solves
    for x in units of 1/R, R the lcm of the right sides' denominators, so
    that every right side is an integer; each row's coefficients, and the
    objective's, are then scaled by the lcm of their own denominators.
    Neither scaling changes a pivot of the rational tableau: the ratios of
    one ratio test all scale alike, and no reduced cost changes sign.  Row i
    starts on its unit slack column n + i, so the start is the feasible
    point x = 0 with the identity basis, det = 1.  Fraction-free (Edmonds
    1967): the tableau is always det times the rational tableau of the same
    basis, det being the last pivot, so every division in the update is
    exact.  The dual y is read off the final objective row at the slack
    columns; y >= 0, y . coeffs >= objective and y . rhs = value.
    """
    p.check()
    n = p.variables
    m = len(p.constraints)
    total = n + m
    rhs_scale = math.lcm(*(rhs.denominator for _, rhs in p.constraints))
    tableau: List[List[int]] = []
    scales: List[int] = []
    for i, (coeffs, rhs) in enumerate(p.constraints):
        row, scale = _integer_row(coeffs)
        row += [0] * m + [rhs.numerator * scale * (rhs_scale // rhs.denominator)]
        row[n + i] = 1
        tableau.append(row)
        scales.append(scale)
    obj, obj_scale = _integer_row(p.objective)
    tableau.append(obj + [0] * (m + 1))
    basis = list(range(n, total))
    det = 1
    while True:
        cost = tableau[m]
        enter = next((j for j in range(total) if cost[j] > 0), -1)
        if enter < 0:
            break
        # Bland's ratio test: least rhs / entry over positive entries, ties to
        # the lowest basic column; ratios compared by cross-multiplying.
        leave = -1
        for i, b in enumerate(basis):
            a = tableau[i][enter]
            if a > 0:
                r = tableau[i][total]
                if leave < 0:
                    leave, num, den = i, r, a
                else:
                    here, best = r * den, num * a
                    if here < best or (here == best and b < basis[leave]):
                        leave, num, den = i, r, a
        if leave < 0:
            return UNBOUNDED
        prow = tableau[leave]
        piv = prow[enter]
        for i, row in enumerate(tableau):
            if i == leave:
                continue
            coef = row[enter]
            if coef:
                tableau[i] = [(piv * x - coef * y) // det for x, y in zip(row, prow)]
            elif piv != det:
                tableau[i] = [piv * x // det if x else 0 for x in row]
        det = piv
        basis[leave] = enter
    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tableau[i][total], det * rhs_scale)
    cost = tableau[m]
    return Optimal(Fraction(-cost[total], det * obj_scale * rhs_scale), point,
                   [Fraction(-cost[n + i] * scales[i], det * obj_scale)
                    for i in range(m)])
