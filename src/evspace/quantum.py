"""Hilbert-space realizations of conditional triples.

Dimension is fixed at 2 with a canonical gauge: the second observable is the
first basis vector, the first is real, and the relative phase is carried
entirely by the third.  Exact admissibility questions are delegated to the
admissibility module; only the arccos step here is floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .admissibility import check_complex_qs, check_real_qs
from .core import CondTriple

EPSILON = 1e-12


class NotRepresentableError(ValueError):
    """The triple admits no quantum-probability space (of either field)."""


@dataclass(frozen=True)
class StateVector:
    components: tuple[complex, ...]

    def __post_init__(self) -> None:
        comps = tuple(complex(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        norm = sum(abs(c) ** 2 for c in comps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector is not unit norm (|x|^2 = {norm})")

    @property
    def dimension(self) -> int:
        return len(self.components)


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"


@dataclass(frozen=True)
class QuantumRealization:
    a: StateVector
    b: StateVector
    c: StateVector
    phase: float
    field: Field


def amplitude_prob(x: StateVector, y: StateVector) -> float:
    """|<y|x>|^2, the squared amplitude between two unit vectors."""
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    inner = sum(yc.conjugate() * xc for xc, yc in zip(x.components, y.components))
    return abs(inner) ** 2


def realize(t: CondTriple) -> QuantumRealization:
    """Construct unit vectors whose squared amplitudes reproduce (p, q, r).

    b = (1, 0); a = (sqrt(p), sqrt(1-p)); c = (sqrt(q), e^{i phi} sqrt(1-q))
    with cos(phi) = (r - pq - (1-p)(1-q)) / (2 sqrt(pq(1-p)(1-q))).  When
    p or q is 0 or 1 the denominator vanishes, r is forced, and phi = 0.
    """
    if not check_complex_qs(t):
        raise NotRepresentableError(
            f"({t.p}, {t.q}, {t.r}) admits no quantum-probability space")
    p, q = float(t.p), float(t.q)
    s_sq = t.p * t.q * (1 - t.p) * (1 - t.q)
    if s_sq == 0:
        phi = 0.0
    else:
        cos_phi = float(t.r - t.p * t.q - (1 - t.p) * (1 - t.q)) / (2 * math.sqrt(float(s_sq)))
        if cos_phi > 1.0:
            if cos_phi > 1.0 + EPSILON:
                raise NotRepresentableError(f"cos(phi) = {cos_phi} outside [-1, 1]")
            cos_phi = 1.0
        elif cos_phi < -1.0:
            if cos_phi < -1.0 - EPSILON:
                raise NotRepresentableError(f"cos(phi) = {cos_phi} outside [-1, 1]")
            cos_phi = -1.0
        phi = math.acos(cos_phi)
    a = StateVector((math.sqrt(p), math.sqrt(1 - p)))
    b = StateVector((1.0, 0.0))
    c = StateVector((math.sqrt(q), cmath.exp(1j * phi) * math.sqrt(1 - q)))
    field = Field.REAL if check_real_qs(t) else Field.COMPLEX
    return QuantumRealization(a=a, b=b, c=c, phase=phi, field=field)
