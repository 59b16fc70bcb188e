"""Exact fraction-free phase-1 simplex for equality-form feasibility.

Solves A x = b, x >= 0 over the rationals.  Bland's rule throughout, so the
method terminates without cycling.  When the system is infeasible the dual
of the phase-1 optimum is returned as a Farkas witness y with
y . A <= 0 (componentwise over columns) and y . b > 0.

The tableau holds Python ints over one positive common denominator d: the
true tableau is always T / d.  A's columns are scaled by one lcm of their
denominators and b by another.  A positive column scaling changes no sign
and no ratio order, so Bland's rule takes the same pivots as on the
rational tableau.  Each pivot is Edmonds' integer-preserving update, in
which every division by d is exact (J. Edmonds, J. Res. NBS 71B, 1967).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

ZERO = Fraction(0)


def solve_feasibility(
    rows: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """Return (x, None) with A x = b, x >= 0, or (None, y) with the Farkas
    certificate y.A <= 0, y.b > 0 when no such x exists.  Entries are ints
    or Fractions."""
    m = len(rows)
    if m == 0:
        return [], None
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged constraint matrix")
    scale_a = math.lcm(*{v.denominator for row in rows for v in row})
    scale_b = math.lcm(*{v.denominator for v in rhs})
    signs = [1] * m
    tableau: list[list[int]] = []
    for i in range(m):
        row = [v.numerator * (scale_a // v.denominator) for v in rows[i]]
        b = rhs[i].numerator * (scale_b // rhs[i].denominator)
        if b < 0:
            row = [-v for v in row]
            b = -b
            signs[i] = -1
        art = [1 if k == i else 0 for k in range(m)]
        tableau.append(row + art + [b])
    basis = list(range(n, n + m))
    # reduced costs for min(sum of artificials) with the artificial basis:
    # r_j = c_j - y.A_j where y = (1, ..., 1)
    width = n + m
    reduced = [-sum(col) for col in zip(*tableau)]
    reduced[n:width] = [0] * m
    d = 1

    while True:
        enter = next((j for j in range(width) if reduced[j] < 0), None)
        if enter is None:
            break
        # ratio rhs_i / coeff_i, compared by cross-multiplication over the
        # positive coefficients; d cancels
        leave = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tableau[i][width] * tableau[leave][enter]
                best = tableau[leave][width] * coeff
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; inconsistent state")
        _pivot(tableau, reduced, basis, leave, enter, d)
        d = tableau[leave][enter]

    objective = sum(tableau[i][width] for i in range(m) if basis[i] >= n)
    if objective > 0:
        # dual from the artificial columns: r_{art i} = 1 - y_i
        y = [Fraction(d - reduced[n + i], d) * signs[i] for i in range(m)]
        return None, y
    # the scaled system's solution is x * scale_b / scale_a
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tableau[i][width] * scale_a, d * scale_b)
    return x, None


def _pivot(tableau: list[list[int]], reduced: list[int], basis: list[int],
           leave: int, enter: int, d: int) -> None:
    """Pivot on (leave, enter) over the common denominator d; afterwards the
    denominator is the pivot entry and the pivot row is unchanged."""
    prow = tableau[leave]
    p = prow[enter]
    for i, row in enumerate(tableau):
        if i != leave:
            tableau[i] = _eliminate(row, prow, p, enter, d)
    reduced[:] = _eliminate(reduced, prow, p, enter, d)
    basis[leave] = enter


def _eliminate(row: list[int], prow: list[int], p: int, enter: int,
               d: int) -> list[int]:
    """The row after the pivot: (p * row - row[enter] * prow) // d, exact."""
    f = row[enter]
    if not f:
        return row if p == d else [p * a // d for a in row]
    if d == 1:
        return [p * a - f * b for a, b in zip(row, prow)]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]
