"""Three-observable admissibility tests and total-probability utilities.

The classical test is a pair of exact rational inequalities.  The quantum
tests involve square roots, but the interval they define is centered at
pq + (1-p)(1-q) with radius 2*sqrt(pq(1-p)(1-q)), so membership reduces to
(r - center)^2 <= 4*pq(1-p)(1-q), decidable exactly over rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import AdmissibilityVerdict, CondTriple, ZERO, as_prob

HALF = Fraction(1, 2)


class IncoherentInputsError(ValueError):
    """Inputs cannot be probabilities of a single space (Bayes quotient > 1)."""


def classical_bounds(t: CondTriple) -> tuple[Fraction, Fraction]:
    """The exact interval r must lie in for a single classical event space."""
    return abs(t.p + t.q - 1), 1 - abs(t.p - t.q)


def quantum_interval(t: CondTriple) -> tuple[Fraction, Fraction, Fraction]:
    """(center, radius_sq, gap) of the complex-QS interval
    [center - 2*sqrt(su), center + 2*sqrt(su)], s = pq, u = (1-p)(1-q):
    radius_sq = 4su, and gap = (r - center)^2 - radius_sq is <= 0 iff
    complex-QS and == 0 iff real-QS."""
    s = t.p * t.q
    u = (1 - t.p) * (1 - t.q)
    center = s + u
    radius_sq = 4 * s * u
    return center, radius_sq, (t.r - center) ** 2 - radius_sq


def check_classical(t: CondTriple) -> bool:
    """True iff |p + q - 1| <= r <= 1 - |p - q|.

    The inequality decides a single classical event space only for triples
    whose three observables share the marginal 1/2.  Without that premise
    the answer is arithmetic, not a verdict: ``classify(t).symmetry_checked``
    says whether the premise was verified, and ``pitowsky.membership`` on
    the full unary-and-pairwise vector decides the space without it.
    """
    lo, hi = classical_bounds(t)
    return lo <= t.r <= hi


def check_complex_qs(t: CondTriple) -> bool:
    return quantum_interval(t)[2] <= 0


def check_real_qs(t: CondTriple) -> bool:
    """True iff r sits exactly on an endpoint of the complex-QS interval."""
    return quantum_interval(t)[2] == 0


def classify(t: CondTriple) -> AdmissibilityVerdict:
    """Full verdict: all three theories, deciding bounds, boundary flag.

    The tests presuppose equal marginals of 1/2; when the triple's marginal
    is absent or differs, the verdict is still computed but flagged with
    symmetry_checked = False.
    """
    bounds = classical_bounds(t)
    classical = bounds[0] <= t.r <= bounds[1]
    center, radius_sq, gap = quantum_interval(t)
    real_qs = gap == 0
    boundary = (classical and t.r in bounds) or real_qs
    # float rendering of the complex-QS interval (display only)
    radius = math.sqrt(radius_sq)
    return AdmissibilityVerdict(
        classical=classical,
        real_qs=real_qs,
        complex_qs=gap <= 0,
        classical_bounds=bounds,
        complex_bounds=(float(center) - radius, float(center) + radius),
        symmetry_checked=t.marginal == HALF,
        boundary=boundary,
    )


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the marginal-consistency (total probability) invariant.

    ``ratio`` is None when the denominator vanishes but the marginal differs
    from the common conditional value (the ratio is infinite).
    """

    ratio: Optional[Fraction]
    holds: bool
    degenerate: bool


def statistical_invariant(pB: Fraction, pB_given_A: Fraction,
                          pB_given_notA: Fraction) -> InvariantReport:
    """|(Pr(B) - Pr(B|A)) / (Pr(B|notA) - Pr(B|A))| <= 1, the necessary and
    sufficient condition for a prior Pr(A) in [0,1] to explain Pr(B)."""
    pB, pB_given_A, pB_given_notA = map(as_prob, (pB, pB_given_A, pB_given_notA))
    num = pB - pB_given_A
    den = pB_given_notA - pB_given_A
    if den == 0:
        if num == 0:
            return InvariantReport(ratio=ZERO, holds=True, degenerate=True)
        return InvariantReport(ratio=None, holds=False, degenerate=True)
    ratio = abs(num / den)
    return InvariantReport(ratio=ratio, holds=ratio <= 1, degenerate=False)


def ltp_compose(pA: Fraction, pB_given_A: Fraction,
                pB_given_notA: Fraction) -> Fraction:
    """Total probability: Pr(B) = Pr(B|A) Pr(A) + Pr(B|notA) Pr(notA)."""
    pA, pB_given_A, pB_given_notA = map(as_prob, (pA, pB_given_A, pB_given_notA))
    return pB_given_A * pA + pB_given_notA * (1 - pA)


def bayes_invert(pB_given_A: Fraction, pA: Fraction, pB: Fraction) -> Fraction:
    """Pr(A|B) = Pr(B|A) Pr(A) / Pr(B); rejects quotients above 1."""
    pB_given_A, pA, pB = map(as_prob, (pB_given_A, pA, pB))
    if pB == 0:
        raise ValueError("conditioning probability Pr(B) is zero")
    result = pB_given_A * pA / pB
    if result > 1:
        raise IncoherentInputsError(
            f"incoherent-inputs: Bayes quotient {result} exceeds 1")
    return result
