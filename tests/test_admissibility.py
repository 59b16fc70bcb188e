import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evspace.admissibility import (IncoherentInputsError, bayes_invert,
                                   check_classical, check_complex_qs,
                                   check_real_qs, classify, classical_bounds,
                                   ltp_compose, quantum_interval,
                                   statistical_invariant)
from evspace.core import CondTriple

probs = st.fractions(0, 1)
triples = st.builds(CondTriple, probs, probs, probs)
# the edges 0 and 1, small denominators that often coincide, and arbitrary ones
edge_probs = st.one_of(st.sampled_from([F(0), F(1)]),
                       st.fractions(0, 1, max_denominator=8), probs)
edge_triples = st.builds(CondTriple, edge_probs, edge_probs, edge_probs)


class TestCheckClassical:
    @pytest.mark.parametrize("p,q,r,expected", [
        (F(13, 18), F(5, 18), F(10, 17), False),
        (F(1, 2), F(1, 2), F(1, 2), True),
        (F(1, 4), F(1, 4), F(1, 2), True),
        (F(1), F(1), F(1, 2), False),
        (F(2, 5), F(4, 5), F(1, 5), True),  # boundary equality admits
    ])
    def test_examples(self, p, q, r, expected):
        assert check_classical(CondTriple(p, q, r)) is expected


class TestCheckComplexQS:
    @pytest.mark.parametrize("p,q,r,expected", [
        (F(1, 12), F(1, 12), F(1, 12), False),
        (F(1, 10), F(2, 10), F(3, 10), False),
        (F(1, 4), F(1, 4), F(1, 2), True),
    ])
    def test_examples(self, p, q, r, expected):
        assert check_complex_qs(CondTriple(p, q, r)) is expected


class TestCheckRealQS:
    @pytest.mark.parametrize("p,q,r,expected", [
        (F(1, 4), F(1, 4), F(1, 4), True),
        (F(1, 4), F(1, 4), F(1, 2), False),
        (F(1, 2), F(1, 2), F(0), True),  # lower endpoint (1/2 - 1/2)^2
    ])
    def test_examples(self, p, q, r, expected):
        assert check_real_qs(CondTriple(p, q, r)) is expected


class TestClassify:
    @pytest.mark.parametrize("p,q,r,flags", [
        (F(1), F(1), F(1), (True, True, True)),
        (F(1, 12), F(1, 12), F(1, 12), (False, False, False)),
        (F(1, 4), F(1, 4), F(1, 4), (False, True, True)),
    ])
    def test_examples(self, p, q, r, flags):
        v = classify(CondTriple(p, q, r))
        assert (v.classical, v.real_qs, v.complex_qs) == flags

    def test_symmetry_flag(self):
        t = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        assert not classify(t).symmetry_checked
        half = CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=F(1, 2))
        assert classify(half).symmetry_checked
        off = CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=F(1, 4))
        assert not classify(off).symmetry_checked

    def test_boundary_flag(self):
        boundary = classify(CondTriple(F(2, 5), F(4, 5), F(1, 5)))
        assert boundary.classical and boundary.boundary
        interior = classify(CondTriple(F(1, 2), F(1, 2), F(1, 2)))
        assert interior.classical and not interior.boundary

    @given(triples)
    def test_classical_implies_complex(self, t):
        if check_classical(t):
            assert check_complex_qs(t)

    @given(triples)
    def test_real_implies_complex(self, t):
        if check_real_qs(t):
            assert check_complex_qs(t)

    @given(triples)
    def test_flags_match_check_functions(self, t):
        v = classify(t)
        assert (v.classical, v.real_qs, v.complex_qs) == (
            check_classical(t), check_real_qs(t), check_complex_qs(t))

    @given(triples)
    def test_pure_function(self, t):
        assert classify(t) == classify(t)

    @given(edge_triples)
    def test_agrees_with_the_paper_conditions(self, t):
        # both conditions written out in Fractions, independently of the
        # integer form classify evaluates
        p, q, r = t.p, t.q, t.r
        lo, hi = abs(p + q - 1), 1 - abs(p - q)
        center = p * q + (1 - p) * (1 - q)
        radius_sq = 4 * p * q * (1 - p) * (1 - q)
        gap = (r - center) ** 2 - radius_sq
        classical = lo <= r <= hi
        v = classify(t)
        assert (v.classical, v.real_qs, v.complex_qs) == (classical, gap == 0, gap <= 0)
        assert v.classical_bounds == classical_bounds(t) == (lo, hi)
        assert v.boundary == ((classical and r in (lo, hi)) or gap == 0)
        radius = math.sqrt(float(radius_sq))
        assert v.complex_bounds == (float(center) - radius, float(center) + radius)
        assert quantum_interval(t) == (center, radius_sq, gap)

    @given(triples)
    def test_bounds_ordering_when_classical(self, t):
        v = classify(t)
        if v.classical:
            lo, hi = v.classical_bounds
            assert lo <= t.r <= hi


class TestStatisticalInvariant:
    def test_direct_evaluation(self):
        rep = statistical_invariant(F(1, 2), F(1, 5), F(9, 10))
        assert rep.ratio == F(3, 7) and rep.holds and not rep.degenerate

    def test_zero_numerator(self):
        rep = statistical_invariant(F(1, 3), F(1, 3), F(3, 4))
        assert rep.ratio == 0 and rep.holds

    def test_violation(self):
        rep = statistical_invariant(F(19, 20), F(1, 5), F(9, 10))
        assert rep.ratio == F(15, 14) and not rep.holds

    def test_degenerate_equal(self):
        rep = statistical_invariant(F(1, 4), F(1, 4), F(1, 4))
        assert rep.degenerate and rep.holds and rep.ratio == 0

    def test_degenerate_unequal(self):
        rep = statistical_invariant(F(1, 2), F(1, 4), F(1, 4))
        assert rep.degenerate and not rep.holds and rep.ratio is None

    @given(probs, probs, probs)
    def test_holds_for_any_composed_marginal(self, a, x, y):
        # a marginal produced by total probability always admits a prior
        rep = statistical_invariant(ltp_compose(a, x, y), x, y)
        assert rep.holds


class TestLtpCompose:
    def test_certain_event(self):
        assert ltp_compose(F(1), F(1, 3), F(3, 4)) == F(1, 3)

    def test_impossible_event(self):
        assert ltp_compose(F(0), F(1, 3), F(3, 4)) == F(3, 4)

    def test_direct(self):
        assert ltp_compose(F(1, 2), F(1, 5), F(9, 10)) == F(11, 20)

    @given(probs, probs, probs)
    def test_within_conditional_range(self, a, x, y):
        out = ltp_compose(a, x, y)
        assert min(x, y) <= out <= max(x, y)

    @given(probs, probs, probs)
    def test_complement_sums_to_one(self, a, x, y):
        assert ltp_compose(a, x, y) + ltp_compose(a, 1 - x, 1 - y) == 1


class TestBayesInvert:
    def test_compose_then_invert(self):
        assert bayes_invert(F(1, 5), F(1, 2), F(11, 20)) == F(2, 11)

    @given(st.fractions(0, 1).filter(lambda x: x > 0))
    def test_certain_prior(self, x):
        assert bayes_invert(x, F(1), x) == 1

    def test_incoherent(self):
        with pytest.raises(IncoherentInputsError):
            bayes_invert(F(9, 10), F(9, 10), F(1, 10))

    def test_zero_conditioning(self):
        with pytest.raises(ValueError):
            bayes_invert(F(1, 2), F(1, 2), F(0))


def test_classical_bounds_values():
    lo, hi = classical_bounds(CondTriple(F(13, 18), F(5, 18), F(10, 17)))
    assert (lo, hi) == (F(0), F(5, 9))
