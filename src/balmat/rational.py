"""Exact rational scalars, matrix rank, and a simplex LP solver.

Rank over the rationals is exact fraction-free integer elimination: sparse
integer rows are combined by integer multiples, so homology ranks never build
a `Fraction`.  The LP has one form: maximise c . x over rows coeffs . x <= rhs
with rhs >= 0 and x >= 0, so the slack basis at x = 0 starts it feasible.  It
runs on `fractions.Fraction` and serves the capped fractional matchings of
`hypergraph` (balance certificates, fractional matching numbers).  No floats
anywhere, and `checked` keeps a float or bool from passing for an int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

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


def rank_of_rows(rows: Iterable[Dict[int, int]]) -> int:
    """Rank over the rationals by sparse, fraction-free integer elimination.

    Each row is a dict {col: nonzero int}; the rows are left unmodified.
    """
    rank = 0
    # pivots: col -> primitive integer row whose lowest column is col, with a
    # positive entry there, so that a pivot led by 1 never scales a row
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            col = min(r)
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
    coeffs . x <= rhs, with rhs >= 0, and x >= 0."""

    variables: int
    constraints: List[Tuple[Sequence, object]]  # (coeffs, rhs)
    objective: Sequence

    def check(self):
        if len(self.objective) != self.variables:
            raise ValueError("objective length mismatch")
        for coeffs, rhs in self.constraints:
            if len(coeffs) != self.variables:
                raise ValueError("constraint length mismatch")
            if Fraction(rhs) < 0:
                raise ValueError(f"negative right-hand side {rhs}")


@dataclass
class Optimal:
    value: Fraction
    point: List[Fraction]


class _Tag:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


UNBOUNDED = _Tag("Unbounded")


def lp_solve(p: LPProblem):
    """Exact simplex with Bland's anti-cycling rule on one tableau.

    Returns Optimal(value, point) or UNBOUNDED.  Row i starts on its slack at
    column n + i, so the start is the feasible point x = 0; the objective row
    sits below the constraint rows.
    """
    p.check()
    n = p.variables
    m = len(p.constraints)
    total = n + m
    tableau: List[List[Fraction]] = []
    for i, (coeffs, rhs) in enumerate(p.constraints):
        row = [Fraction(c) for c in coeffs] + [ZERO] * m + [Fraction(rhs)]
        row[n + i] = ONE
        tableau.append(row)
    tableau.append([Fraction(c) for c in p.objective] + [ZERO] * (m + 1))
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
    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][total]
    return Optimal(-tableau[m][total], point)
