import random
from fractions import Fraction
from itertools import combinations

import pytest

from evspace.core import CorrelationVector


def rand_prob(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def complete_vector(n, unary, pairwise):
    """The complete vector of n events: the unary values by index, then the
    pair values in lexicographic order."""
    events = range(1, n + 1)
    keys = [*combinations(events, 1), *combinations(events, 2)]
    return CorrelationVector(n, dict(zip(keys, [*unary, *pairwise], strict=True)))


@pytest.fixture
def rng():
    return random.Random(20260825)
