import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evspace.admissibility import check_complex_qs, check_real_qs
from evspace.core import CondTriple
from evspace.quantum import (Field, NotRepresentableError, StateVector,
                             amplitude_prob, realize)

from conftest import rand_prob


def random_state(rng):
    comps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in comps))
    return StateVector(tuple(c / norm for c in comps))


class TestAmplitudeProb:
    def test_identity(self):
        x = StateVector((math.sqrt(0.3), math.sqrt(0.7)))
        assert amplitude_prob(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis(self):
        assert amplitude_prob(StateVector((1, 0)), StateVector((0, 1))) == 0

    def test_projection(self):
        p = 0.37
        x = StateVector((math.sqrt(p), math.sqrt(1 - p)))
        assert amplitude_prob(x, StateVector((1, 0))) == pytest.approx(p, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            amplitude_prob(StateVector((1, 0)), StateVector((1, 0, 0)))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            StateVector((1, 1))

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = random_state(rng), random_state(rng)
            assert amplitude_prob(x, y) == pytest.approx(
                amplitude_prob(y, x), abs=1e-12)


class TestRealize:
    def test_real_endpoint(self):
        real = realize(CondTriple(F(1, 4), F(1, 4), F(1, 4)))
        assert real.field is Field.REAL
        assert math.cos(real.phase) == pytest.approx(-1.0, abs=1e-12)

    def test_complex_interior(self):
        real = realize(CondTriple(F(1, 4), F(1, 4), F(1, 2)))
        assert real.field is Field.COMPLEX
        assert math.cos(real.phase) == pytest.approx(-1 / 3, abs=1e-12)

    def test_degenerate_all_ones(self):
        real = realize(CondTriple(F(1), F(1), F(1)))
        assert real.phase == 0.0
        for vec in (real.a, real.b, real.c):
            assert vec.components == (complex(1), complex(0))

    def test_not_representable(self):
        with pytest.raises(NotRepresentableError):
            realize(CondTriple(F(1, 10), F(2, 10), F(3, 10)))

    def test_roundtrip_and_field(self, rng):
        checked = 0
        while checked < 300:
            t = CondTriple(rand_prob(rng, 20), rand_prob(rng, 20), rand_prob(rng, 20))
            if not check_complex_qs(t):
                with pytest.raises(NotRepresentableError):
                    realize(t)
                continue
            checked += 1
            real = realize(t)
            assert amplitude_prob(real.a, real.b) == pytest.approx(float(t.p), abs=1e-12)
            assert amplitude_prob(real.b, real.c) == pytest.approx(float(t.q), abs=1e-12)
            assert amplitude_prob(real.a, real.c) == pytest.approx(float(t.r), abs=1e-12)
            assert (real.field is Field.REAL) == check_real_qs(t)

    @given(st.fractions(0, 1), st.fractions(0, 1))
    def test_forced_r_when_degenerate(self, p, q):
        # p in {0, 1}: the complex interval collapses to a point
        for pp in (F(0), F(1)):
            t_r = pp * q + (1 - pp) * (1 - q)
            real = realize(CondTriple(pp, q, t_r))
            assert real.phase == 0.0

    @given(st.fractions(0, 1, max_denominator=10 ** 6), st.booleans())
    @example(F(0), True)
    @example(F(0), False)
    @example(F(1), True)
    @example(F(1), False)
    @example(F(1, 3), False)
    @example(F(1, 2), False)
    def test_real_boundary_is_exact(self, p, upper):
        # p = q puts the complex interval's ends at 1 and (2p - 1)^2
        t = CondTriple(p, p, F(1) if upper else (2 * p - 1) ** 2)
        real = realize(t)
        assert real.field is Field.REAL
        assert real.phase in (0.0, math.pi)
        for vec in (real.a, real.b, real.c):
            assert all(math.copysign(1.0, z.imag) == 1.0 and z.imag == 0.0
                       for z in vec.components)
        assert amplitude_prob(real.a, real.b) == pytest.approx(float(p), abs=1e-12)
        assert amplitude_prob(real.b, real.c) == pytest.approx(float(p), abs=1e-12)
        assert amplitude_prob(real.a, real.c) == pytest.approx(float(t.r), abs=1e-12)
