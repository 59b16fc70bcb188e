import random
from fractions import Fraction
from itertools import combinations

import pytest

from evspace import simplex
from evspace.core import CorrelationVector
from evspace.pitowsky import membership
from evspace.simplex import solve_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)


# Reference: the rational-tableau solver that the fraction-free one replaced,
# with the same pivot rule and a pivot count.  Entering: the most negative
# reduced cost whose step is non-degenerate, else the most negative, lowest
# index on ties.  Leaving: the least row of (rhs, artificial columns) / entry.
# The integer tableau must take the same pivots and so return the same x and y.
def reference_solve(rows, rhs):
    m = len(rows)
    if m == 0:
        return [], None, 0
    n = len(rows[0])
    signs = [ONE] * m
    tableau = []
    for i in range(m):
        row = list(rows[i])
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        b = rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
            signs[i] = -ONE
        art = [ONE if k == i else ZERO for k in range(m)]
        tableau.append(row + art + [b])
    basis = list(range(n, n + m))
    width = n + m
    reduced = [ZERO] * (width + 1)
    for j in range(n):
        reduced[j] = -sum(tableau[i][j] for i in range(m))
    reduced[width] = -sum(tableau[i][width] for i in range(m))
    pivots = 0

    while True:
        negative = [j for j in range(width) if reduced[j] < 0]
        if not negative:
            break
        free = [j for j in negative
                if all(row[j] <= 0 for row in tableau if row[width] == 0)]
        enter = min(free or negative, key=lambda j: (reduced[j], j))
        rows_in = [i for i in range(m) if tableau[i][enter] > 0]
        leave = min(rows_in, default=None, key=lambda i: [
            tableau[i][k] / tableau[i][enter] for k in [width, *range(n, width)]])
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; inconsistent state")
        _reference_pivot(tableau, reduced, basis, leave, enter, width)
        pivots += 1

    objective = sum(tableau[i][width] for i in range(m) if basis[i] >= n)
    if objective > 0:
        y = [(ONE - reduced[n + i]) * signs[i] for i in range(m)]
        return None, y, pivots
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][width]
    return x, None, pivots


def _reference_pivot(tableau, reduced, basis, leave, enter, width):
    pivot = tableau[leave][enter]
    prow = [v / pivot for v in tableau[leave]]
    tableau[leave] = prow
    for i in range(len(tableau)):
        if i == leave:
            continue
        f = tableau[i][enter]
        if f:
            tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
    f = reduced[enter]
    if f:
        for j in range(width + 1):
            reduced[j] -= f * prow[j]
    basis[leave] = enter


def _entry(rng):
    """Zero, a negative or positive int, or a fraction: small values so that
    ratio ties and degenerate pivots occur."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _coefficient(rng):
    """An entry of A, which is integral: zero or a small int."""
    return 0 if rng.randrange(4) == 0 else rng.randint(-6, 6)


def random_lp(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 8)
    rows = [[_coefficient(rng) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # feasible by construction: b = A x0 with x0 >= 0
        x0 = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum((a * x for a, x in zip(row, x0)), ZERO) for row in rows]
    else:
        rhs = [_entry(rng) for _ in range(m)]
    return rows, rhs


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def test_same_certificates_and_pivots_as_the_rational_tableau(monkeypatch):
    calls = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot",
                        lambda *args: calls.append(1) or pivot(*args))
    rng = random.Random(20121)
    outcomes = set()
    for trial in range(600):
        rows, rhs = random_lp(rng)
        calls.clear()
        x, y = solve_feasibility(rows, rhs)
        rx, ry, pivots = reference_solve([[Fraction(v) for v in row] for row in rows],
                                         [Fraction(v) for v in rhs])
        assert (x, y) == (rx, ry), (trial, rows, rhs)
        assert len(calls) == pivots, (trial, rows, rhs)
        if x is not None:
            assert all(isinstance(v, Fraction) and v >= 0 for v in x)
            assert [_dot(row, x) for row in rows] == list(rhs)
        else:
            assert all(isinstance(v, Fraction) for v in y)
            assert all(_dot(y, col) <= 0 for col in zip(*rows))
            assert _dot(y, rhs) > 0
        outcomes.add((x is not None, pivots > 1))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _degenerate_lp(rng):
    """Entries in {-1, 0, 1} and mostly zero rhs: many degenerate pivots."""
    m, n = rng.randint(2, 6), rng.randint(2, 9)
    rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
    rhs = [rng.choice((0, 0, 0, 1, -1)) for _ in range(m)]
    return rows, rhs


def _mixture(rng, n=4):
    """A complete vector that is a random convex combination of 2n vertices."""
    weights = [rng.randint(1, 5) for _ in range(2 * n)]
    total = sum(weights)
    vertices = [[rng.randint(0, 1) for _ in range(n)] for _ in weights]
    mean = lambda bit: sum(w * bit(v) for w, v in zip(weights, vertices)) / Fraction(total)
    return CorrelationVector(n, {
        tuple(i + 1 for i in idx): mean(lambda v: all(v[i] for i in idx))
        for size in (1, 2) for idx in combinations(range(n), size)})


def test_no_basis_repeats_and_every_branch_of_the_rule_is_taken(monkeypatch):
    """The lexicographic ratio test cannot cycle whatever column enters
    (Dantzig, Orden & Wolfe, 1955): no basis repeats within a solve."""
    seen = []
    taken = {"rhs tie": 0, "non-degenerate": 0, "fallback": 0}
    pivot = simplex._pivot

    def recording(tableau, reduced, basis, leave, enter, d):
        width = len(reduced) - 1
        keys = [width, *range(width - len(tableau), width)]
        rows = [row for row in tableau if row[enter] > 0]
        ratios = [Fraction(row[width], row[enter]) for row in rows]
        taken["rhs tie"] += ratios.count(min(ratios)) > 1
        assert min(rows, key=lambda row: [Fraction(row[k], row[enter]) for k in keys]) \
            is tableau[leave]
        degenerate = any(row[enter] > 0 for row in tableau if row[width] == 0)
        taken["fallback" if degenerate else "non-degenerate"] += 1
        if not seen:
            seen.append(frozenset(basis))
        pivot(tableau, reduced, basis, leave, enter, d)
        assert frozenset(basis) not in seen, seen
        seen.append(frozenset(basis))

    monkeypatch.setattr(simplex, "_pivot", recording)
    rng = random.Random(1955)
    for trial in range(400):
        rows, rhs = _degenerate_lp(rng)
        seen.clear()
        x, y = solve_feasibility(rows, rhs)
        if x is not None:
            assert [_dot(row, x) for row in rows] == rhs, trial
        else:
            assert all(_dot(y, col) <= 0 for col in zip(*rows)) and _dot(y, rhs) > 0
    for trial in range(30):
        seen.clear()
        assert membership(_mixture(rng)).feasible, trial
    assert all(taken.values()), taken


def test_no_rows():
    assert solve_feasibility([], []) == ([], None)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError, match="ragged"):
        solve_feasibility([[1, 0], [1]], [Fraction(1, 2), 1])


def sorted_candidates_entering(tableau, reduced):
    """The entering rule written as a sort: the negative columns by (cost,
    index), the first whose step is non-degenerate, else the first."""
    width = len(reduced) - 1
    costs = sorted((r, j) for j, r in enumerate(reduced[:width]) if r < 0)
    if not costs:
        return None
    zero_rows = [row for row in tableau if not row[width]]
    for _, j in costs:
        if all(row[j] <= 0 for row in zero_rows):
            return j
    return costs[0][1]


def test_entering_is_the_sorted_candidates_rule():
    # small entries, so equal costs and blocked columns are common
    rng = random.Random(24)
    taken = {"optimal": 0, "free": 0, "fallback": 0}
    for trial in range(3000):
        m, width = rng.randint(1, 5), rng.randint(1, 10)
        tableau = [[rng.randint(-2, 2) for _ in range(width)]
                   + [rng.choice((0, 0, rng.randint(1, 5)))] for _ in range(m)]
        reduced = [rng.randint(-3, 2) for _ in range(width)] + [rng.randint(-5, 0)]
        enter = simplex._entering(tableau, reduced)
        assert enter == sorted_candidates_entering(tableau, reduced), (trial, tableau, reduced)
        if enter is None:
            taken["optimal"] += 1
        else:
            blocked = any(row[enter] > 0 for row in tableau if not row[width])
            taken["fallback" if blocked else "free"] += 1
    assert all(taken.values()), taken
