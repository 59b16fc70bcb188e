import random
from fractions import Fraction
from itertools import combinations

import pytest

from evspace.core import CorrelationVector
from evspace.pitowsky import _rows
from evspace.simplex import solve_feasibility


def rand_prob(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def complete_vector(n, unary, pairwise):
    """The complete vector of n events: the unary values by index, then the
    pair values in lexicographic order."""
    events = range(1, n + 1)
    keys = [*combinations(events, 1), *combinations(events, 2)]
    return CorrelationVector(n, dict(zip(keys, [*unary, *pairwise], strict=True)))


def lp(v):
    """The LP for v with no facet screen: ``solve_feasibility`` over the rows
    of ``_rows``, one column per vertex mask.  Returns (rows, x, y)."""
    rows = _rows(v.n, v.entries.items())
    x, y = solve_feasibility(
        [[1 if k & mask == mask else 0 for k in range(1 << v.n)] for _, mask, _ in rows],
        [value for _, _, value in rows])
    return rows, x, y


def lp_feasible(v) -> bool:
    return lp(v)[1] is not None


@pytest.fixture
def rng():
    return random.Random(20260825)
