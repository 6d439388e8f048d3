"""Exact rational scalars, matrices, rank, and a two-phase simplex LP solver.

Rank over the rationals is exact fraction-free integer elimination: each row
is scaled to integers and rows are combined by integer multiples, so
homology ranks never build a `Fraction`.  The LP (balance certificates,
fractional matching numbers) runs on `fractions.Fraction`.  No floats
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

Rational = Fraction

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


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def ceil_frac(q) -> int:
    q = Fraction(q)
    return ceil_div(q.numerator, q.denominator)


def rank_of_rows(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals by sparse, fraction-free integer elimination.

    Rows are given as dense sequences; sparse callers may pass dicts
    {col: value} instead, which avoids shuffling zeros around.  Entries may
    be ints, Fractions, or anything `Fraction()` accepts.
    """
    rank = 0
    # pivots: col -> primitive integer row whose lowest column is col, with a
    # positive entry there, so that a pivot led by 1 never scales a row
    pivots: dict = {}
    for row in rows:
        r = _integer_row(row.items() if isinstance(row, dict) else enumerate(row))
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


def _integer_row(items) -> dict:
    """{col: int} for the nonzero entries, scaled by the lcm of their
    denominators, which leaves the rank unchanged.  All-int rows skip
    `Fraction` entirely."""
    r = {}
    converted = False
    for c, v in items:
        if type(v) is not int:
            v = Fraction(v)
            converted = True
        if v:
            r[c] = v
    if converted and r:
        scale = math.lcm(*(v.denominator for v in r.values()))
        r = {c: v.numerator * (scale // v.denominator) for c, v in r.items()}
    return r


# --- Linear programming -----------------------------------------------------

LE, EQ = "<=", "="


@dataclass
class LPProblem:
    """Maximise objective . x subject to (coeffs, LE or EQ, rhs) rows with
    rhs >= 0, and x >= 0."""

    variables: int
    constraints: List[Tuple[Sequence, str, object]]  # (coeffs, relation, rhs)
    objective: Sequence

    def check(self):
        if len(self.objective) != self.variables:
            raise ValueError("objective length mismatch")
        for coeffs, rel, rhs in self.constraints:
            if len(coeffs) != self.variables:
                raise ValueError("constraint length mismatch")
            if rel not in (LE, EQ):
                raise ValueError(f"bad relation {rel!r}")
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


INFEASIBLE = _Tag("Infeasible")
UNBOUNDED = _Tag("Unbounded")


def lp_solve(p: LPProblem):
    """Exact two-phase simplex with Bland's anti-cycling rule.

    Returns Optimal(value, point), INFEASIBLE, or UNBOUNDED.  `LE` rows start
    on their slack, `EQ` rows on an artificial driven out in phase 1.
    """
    p.check()
    n = p.variables
    n_slack = sum(1 for _, rel, _ in p.constraints if rel == LE)
    total = n + len(p.constraints)  # one slack per LE row, one artificial per EQ row

    tableau: List[List[Fraction]] = []
    basis: List[int] = []
    art_cols = []
    si, ai = n, n + n_slack
    for coeffs, rel, rhs in p.constraints:
        row = [Fraction(c) for c in coeffs] + [ZERO] * (total - n) + [Fraction(rhs)]
        if rel == LE:
            col, si = si, si + 1
        else:
            col, ai = ai, ai + 1
            art_cols.append(col)
        row[col] = ONE
        basis.append(col)
        tableau.append(row)

    if art_cols:
        # Phase 1: maximize -(sum of artificials).
        cost = [ZERO] * (total + 1)
        for c in art_cols:
            cost[c] = -ONE
        _reduce_cost(cost, tableau, basis)
        _pivot_until_optimal(tableau, basis, cost, total)
        if -cost[total] != ZERO:  # leftover artificial infeasibility
            return INFEASIBLE
        _drive_out_artificials(tableau, basis, art_cols, n + n_slack)

    # Phase 2.
    obj = [Fraction(c) for c in p.objective]
    cost = obj + [ZERO] * (total + 1 - n)
    _reduce_cost(cost, tableau, basis)
    if not _pivot_until_optimal(tableau, basis, cost, total, set(art_cols)):
        return UNBOUNDED

    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][total]
    return Optimal(sum((c * x for c, x in zip(obj, point)), ZERO), point)


def _reduce_cost(cost, tableau, basis):
    """Express the cost row in terms of nonbasic variables (price out basis)."""
    total = len(cost) - 1
    for i, b in enumerate(basis):
        coef = cost[b]
        if coef:
            row = tableau[i]
            for j in range(total + 1):
                if row[j]:
                    cost[j] -= coef * row[j]


def _pivot_until_optimal(tableau, basis, cost, total, blocked=frozenset()):
    """Bland's rule pivoting.  Returns False on unboundedness."""
    m = len(tableau)
    while True:
        enter = -1
        for j in range(total):
            if j in blocked:
                continue
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        _pivot(tableau, basis, cost, leave, enter, total)


def _pivot(tableau, basis, cost, leave, enter, total):
    row = tableau[leave]
    piv = row[enter]
    tableau[leave] = [x / piv for x in row]
    row = tableau[leave]
    for i, other in enumerate(tableau):
        if i == leave:
            continue
        coef = other[enter]
        if coef:
            tableau[i] = [o - coef * r for o, r in zip(other, row)]
    coef = cost[enter]
    if coef:
        for j in range(total + 1):
            cost[j] -= coef * row[j]
    basis[leave] = enter


def _drive_out_artificials(tableau, basis, art_cols, n_real):
    arts = set(art_cols)
    i = 0
    while i < len(tableau):
        if basis[i] in arts:
            row = tableau[i]
            enter = next((j for j in range(n_real) if row[j]), None)
            if enter is None:
                # Redundant constraint; drop the row.
                del tableau[i]
                del basis[i]
                continue
            dummy = [ZERO] * (len(row))
            _pivot(tableau, basis, dummy, i, enter, len(row) - 1)
        i += 1
