"""Hilbert-space realizations of conditional triples.

Dimension is fixed at 2 with a canonical gauge: the second observable is the
first basis vector, the first is real, and the relative phase is carried
entirely by the third.  The admissibility module decides representability
and the field exactly; floats enter only the vectors built from an exact
cos^2(phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .admissibility import quantum_interval
from .core import CondTriple


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
    with cos^2(phi) = (r - center)^2 / radius_sq exactly, for the center and
    radius_sq of ``quantum_interval``, and cos(phi) of the sign of
    r - center.  When p or q is 0 or 1, radius_sq is 0, r is forced, and
    phi = 0.
    """
    center, radius_sq, gap = quantum_interval(t)
    if gap > 0:
        raise NotRepresentableError(
            f"({t.p}, {t.q}, {t.r}) admits no quantum-probability space")
    # cos2 is an exact rational in [0, 1], and a correctly rounded float of
    # it stays in [0.0, 1.0], so cos_phi needs no clamp
    cos2 = (t.r - center) ** 2 / radius_sq if radius_sq else 1
    cos_phi = math.copysign(math.sqrt(cos2), t.r - center)
    p, q = float(t.p), float(t.q)
    a = StateVector((math.sqrt(p), math.sqrt(1 - p)))
    b = StateVector((1.0, 0.0))
    c = StateVector((math.sqrt(q),
                     complex(cos_phi, math.sqrt(1 - cos2)) * math.sqrt(1 - q)))
    field = Field.REAL if gap == 0 else Field.COMPLEX
    return QuantumRealization(a=a, b=b, c=c, phase=math.acos(cos_phi), field=field)
