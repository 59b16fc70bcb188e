import random
from fractions import Fraction
from itertools import combinations

import pytest

from evspace.core import CorrelationVector
from evspace.pitowsky import _lp, _scaled


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
    """The LP for v with no facet screen: ``_lp`` over ``_scaled(v)``.
    Returns (x, y)."""
    return _lp(v.n, _scaled(v))


def lp_feasible(v) -> bool:
    return lp(v)[0] is not None


@pytest.fixture
def rng():
    return random.Random(20260825)
