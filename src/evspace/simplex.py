"""Exact fraction-free phase-1 simplex for equality-form feasibility.

Solves A x = b, x >= 0 over the rationals.  When the system is infeasible
the dual of the phase-1 optimum is returned as a Farkas witness y with
y . A <= 0 (componentwise over columns) and y . b > 0.

The entering column has the most negative reduced cost among the columns
whose step is non-degenerate, else the most negative overall.  The leaving
row is the lexicographically least (rhs, artificial columns) / entry.  The
artificial columns hold B^-1, and the initial rows (b_i, e_i) are
lexicographically positive, so no basis repeats whichever column enters
(Dantzig, Orden & Wolfe, The generalized simplex method, Pacific J. Math.
5, 1955).

A is integral.  The tableau holds Python ints over one positive common
denominator d: the true tableau is always T / d.  b is scaled by the lcm of
its denominators; one positive factor on the rhs changes no sign and no
ratio order, so the rule takes the same pivots as on the rational tableau.
Each pivot is Edmonds' integer-preserving update, in which every division
by d is exact (J. Edmonds, J. Res. NBS 71B, 1967).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

ZERO = Fraction(0)


def solve_feasibility(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[Rational],
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """Return (x, None) with A x = b, x >= 0, or (None, y) with the Farkas
    certificate y.A <= 0, y.b > 0 when no such x exists.  A's entries are
    ints; b's are ints or Fractions."""
    m = len(rows)
    if m == 0:
        return [], None
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged constraint matrix")
    scale_b = math.lcm(*{v.denominator for v in rhs})
    signs = [1] * m
    tableau: list[list[int]] = []
    for i in range(m):
        row = rows[i]
        b = rhs[i].numerator * (scale_b // rhs[i].denominator)
        if b < 0:
            row = [-v for v in row]
            b = -b
            signs[i] = -1
        art = [1 if k == i else 0 for k in range(m)]
        tableau.append([*row, *art, b])
    basis = list(range(n, n + m))
    # reduced costs for min(sum of artificials) with the artificial basis:
    # r_j = c_j - y.A_j where y = (1, ..., 1)
    width = n + m
    reduced = [-sum(col) for col in zip(*tableau)]
    reduced[n:width] = [0] * m
    d = 1
    # the ratio test compares rows on (rhs, artificial columns) / entry;
    # d cancels
    lex = [width, *range(n, width)]

    while True:
        enter = _entering(tableau, reduced)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0 and (leave is None or _lex_less(
                    tableau[i], coeff, tableau[leave], tableau[leave][enter], lex)):
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
    # the scaled system's solution is x * scale_b
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tableau[i][width], d * scale_b)
    return x, None


def _entering(tableau: list[list[int]], reduced: list[int]) -> Optional[int]:
    """The column with the most negative reduced cost among those whose step
    is non-degenerate (no positive entry in a row whose rhs is 0), else the
    most negative overall; ties go to the lowest index."""
    width = len(reduced) - 1
    negative = [j for j, r in enumerate(reduced[:width]) if r < 0]
    if not negative:
        return None
    free = negative
    for row in tableau:
        if not row[width]:
            free = [j for j in free if row[j] <= 0]
    # min keeps the first of equal costs, and the columns are ascending
    return min(free or negative, key=reduced.__getitem__)


def _lex_less(row: list[int], coeff: int, best: list[int], best_coeff: int,
              keys: list[int]) -> bool:
    """Whether row / coeff precedes best / best_coeff lexicographically on
    the columns keys, by cross-multiplication over positive coefficients."""
    for k in keys:
        a, b = row[k] * best_coeff, best[k] * coeff
        if a < b:
            return True
        if a > b:
            return False
    return False


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
