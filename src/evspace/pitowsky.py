"""Correlation-polytope membership and the leave-apart ranking decomposition.

A correlation vector admits a single event space iff it is a convex
combination of the 2^n vertex vectors derived from binary strings.  Absent
pairwise entries contribute no equation: they are existentially completed.
Feasibility is decided by the exact phase-1 simplex; certificates (weights or
a Farkas separating functional) are re-verified before being returned.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .core import CorrelationVector, ONE, ZERO, as_prob
from .simplex import solve_feasibility

DEFAULT_MAX_N = 12


class CapExceededError(ValueError):
    """The vector has more events than the configured 2^n LP cap allows."""


def max_n_from_env() -> int:
    value = os.environ.get("EVSPACE_MAX_N")
    if not value:
        return DEFAULT_MAX_N
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"EVSPACE_MAX_N is not an integer: {value!r}") from None


# ---------------------------------------------------------------------------
# Vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexVector:
    """Correlation vector of a binary string: unary entries are its bits,
    pairwise entries their products."""

    bits: str

    def __post_init__(self) -> None:
        if len(self.bits) < 2 or any(c not in "01" for c in self.bits):
            raise ValueError(f"bits must be a binary string of length >= 2: {self.bits!r}")

    @property
    def n(self) -> int:
        return len(self.bits)

    def unary(self, i: int) -> Fraction:
        return Fraction(int(self.bits[i - 1]))

    def pairwise(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.bits[i - 1]) * int(self.bits[j - 1]))

    def as_correlation_vector(self) -> CorrelationVector:
        n = self.n
        return CorrelationVector(
            n,
            {i: self.unary(i) for i in range(1, n + 1)},
            {(i, j): self.pairwise(i, j)
             for i in range(1, n) for j in range(i + 1, n + 1)},
        )


def vertex_vector(bits: str) -> VertexVector:
    return VertexVector(bits)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Integer separating functional over the correlation coordinates.

    Evaluates strictly positive on the separated vector and <= 0 on every
    vertex of the polytope.  ``const`` comes from the weight-normalization
    row of the LP.
    """

    unary: Mapping[int, int]
    pairwise: Mapping[tuple[int, int], int]
    const: int

    def evaluate(self, v: CorrelationVector) -> Fraction:
        total = Fraction(self.const)
        for i, c in self.unary.items():
            total += c * v.unary[i]
        for key, c in self.pairwise.items():
            total += c * v.pairwise[key]
        return total

    def evaluate_bits(self, bits: str) -> int:
        total = self.const
        for i, c in self.unary.items():
            total += c * int(bits[i - 1])
        for (i, j), c in self.pairwise.items():
            total += c * int(bits[i - 1]) * int(bits[j - 1])
        return total

    def render(self) -> str:
        parts = []
        for i in sorted(self.unary):
            parts.append(f"{self.unary[i]}·p{i}")
        for i, j in sorted(self.pairwise):
            parts.append(f"{self.pairwise[(i, j)]}·p{i},{j}")
        parts.append(str(self.const))
        return " + ".join(parts) + " > 0"


@dataclass(frozen=True)
class PolytopeCertificate:
    feasible: bool
    weights: Optional[Mapping[str, Fraction]] = None
    witness: Optional[Witness] = None


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def membership(v: CorrelationVector, max_n: int = DEFAULT_MAX_N) -> PolytopeCertificate:
    """Exact LP membership of v in the correlation polytope, restricted to the
    present entries of v.  The certificate is verified by re-substitution."""
    if v.n > max_n:
        raise CapExceededError(f"n={v.n} exceeds cap {max_n}")
    entries = v.entries()
    if not entries:
        raise ValueError("empty correlation vector")
    # column k is the vertex whose bit i is (k >> (n - i)) & 1; an entry's
    # cell is 1 iff every bit of the entry's events is set
    size = 1 << v.n
    rows = []
    rhs = []
    for key, value in entries:
        mask = sum(1 << (v.n - i) for i in key[1:])
        rows.append([ONE if k & mask == mask else ZERO for k in range(size)])
        rhs.append(value)
    rows.append([ONE] * size)
    rhs.append(ONE)

    x, y = solve_feasibility(rows, rhs)
    if x is not None:
        weights = {format(k, f"0{v.n}b"): x[k] for k in range(size) if x[k] != 0}
        cert = PolytopeCertificate(feasible=True, weights=weights)
        _verify_weights(v, cert.weights)
        return cert
    witness = _normalize_witness(entries, y)
    _verify_witness(v, witness)
    return PolytopeCertificate(feasible=False, witness=witness)


def _normalize_witness(entries, y: Sequence[Fraction]) -> Witness:
    denom_lcm = 1
    for c in y:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in y]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    unary = {}
    pairwise = {}
    for (key, _), c in zip(entries, ints):
        if key[0] == "u":
            unary[key[1]] = c
        else:
            pairwise[(key[1], key[2])] = c
    return Witness(unary=unary, pairwise=pairwise, const=ints[-1])


def _verify_weights(v: CorrelationVector, weights: Mapping[str, Fraction]) -> None:
    if any(w < 0 for w in weights.values()):
        raise RuntimeError("certificate has negative weight")
    if sum(weights.values()) != 1:
        raise RuntimeError("certificate weights do not sum to 1")
    for i, value in v.unary.items():
        if sum(w for bits, w in weights.items() if bits[i - 1] == "1") != value:
            raise RuntimeError(f"certificate fails to reproduce p{i}")
    for (i, j), value in v.pairwise.items():
        got = sum(w for bits, w in weights.items()
                  if bits[i - 1] == "1" and bits[j - 1] == "1")
        if got != value:
            raise RuntimeError(f"certificate fails to reproduce p{i},{j}")


def _verify_witness(v: CorrelationVector, witness: Witness) -> None:
    if witness.evaluate(v) <= 0:
        raise RuntimeError("witness does not separate the input")
    for k in range(1 << v.n):
        if witness.evaluate_bits(format(k, f"0{v.n}b")) > 0:
            raise RuntimeError("witness fails on a polytope vertex")


# ---------------------------------------------------------------------------
# Closed-form small-n systems
# ---------------------------------------------------------------------------

def _require_complete(v: CorrelationVector, n: int) -> None:
    if v.n != n or not v.is_complete:
        raise ValueError(f"expected a complete n={n} correlation vector")


def closed_form_n2(v: CorrelationVector) -> bool:
    """Displayed two-event inequality system; equivalent to membership."""
    _require_complete(v, 2)
    p1, p2 = v.unary[1], v.unary[2]
    p12 = v.pairwise[(1, 2)]
    return (ZERO <= p12 <= p1 <= ONE
            and ZERO <= p12 <= p2 <= ONE
            and ZERO <= p1 + p2 - p12 <= ONE)


def closed_form_n3(v: CorrelationVector) -> bool:
    """Displayed three-event inequality system.

    Necessary only: some polytope facets are not among the displayed rows
    (e.g. unary 1/2 with pairwise 1/8 passes here but is LP-infeasible), so
    membership() remains the authoritative test.
    """
    _require_complete(v, 3)
    p = v.unary
    pp = v.pairwise
    for i, j in ((1, 2), (1, 3), (2, 3)):
        if not (ZERO <= pp[(i, j)] <= p[i] <= ONE):
            return False
        if not (ZERO <= p[i] + p[j] - pp[(i, j)] <= ONE):
            return False
    if p[1] - pp[(1, 2)] - pp[(1, 3)] + pp[(2, 3)] < 0:
        return False
    if p[2] - pp[(1, 2)] - pp[(2, 3)] + pp[(1, 3)] < 0:
        return False
    if p[3] - pp[(1, 3)] - pp[(2, 3)] + pp[(1, 2)] < 0:
        return False
    return True


# ---------------------------------------------------------------------------
# Ranking vectors and decomposition
# ---------------------------------------------------------------------------

def build_ranking_vector(doc_priors: Sequence[Fraction],
                         doc_likelihoods: Sequence[Fraction],
                         pA: Fraction) -> CorrelationVector:
    """Partial correlation vector for ranking m documents against relevance:
    unary entries are the document priors and Pr(A); the only pairwise
    entries are p(i, n) = Pr(D_i|A) Pr(A)."""
    if len(doc_priors) != len(doc_likelihoods):
        raise ValueError("priors and likelihoods must have equal length")
    if not doc_priors:
        raise ValueError("need at least one document")
    pA = as_prob(pA)
    m = len(doc_priors)
    n = m + 1
    unary = {i + 1: as_prob(doc_priors[i]) for i in range(m)}
    unary[n] = pA
    pairwise = {(i + 1, n): as_prob(doc_likelihoods[i]) * pA for i in range(m)}
    return CorrelationVector(n, unary, pairwise)


@dataclass(frozen=True)
class RankingDecomposition:
    """Partition of the events into subsets that each admit a single space."""

    subsets: tuple[tuple[tuple[int, ...], PolytopeCertificate], ...]
    dropped_order: tuple[tuple[int, ...], ...]

    def covered(self) -> set[int]:
        out: set[int] = set()
        for indices, _ in self.subsets:
            out.update(indices)
        return out


def _restrict(v: CorrelationVector, events: tuple[int, ...]) -> CorrelationVector:
    remap = {orig: k + 1 for k, orig in enumerate(events)}
    unary = {remap[i]: v.unary[i] for i in events if i in v.unary}
    pairwise = {}
    for (i, j), value in v.pairwise.items():
        if i in remap and j in remap:
            a, b = sorted((remap[i], remap[j]))
            pairwise[(a, b)] = value
    return CorrelationVector(len(events), unary, pairwise)


def _feasibility(v: CorrelationVector, events: tuple[int, ...],
                 max_n: int) -> PolytopeCertificate:
    if len(events) == 1:
        # singleton: weight p on "present", 1-p on "absent"; always feasible,
        # keyed over two bits as the n >= 2 vector it is checked against
        p = v.unary.get(events[0], ZERO)
        weights = {bits: w for bits, w in (("00", 1 - p), ("10", p)) if w != 0}
        _verify_weights(CorrelationVector(2, {1: p}), weights)
        return PolytopeCertificate(feasible=True, weights=weights)
    return membership(_restrict(v, events), max_n)


def decompose(v: CorrelationVector, relevance_index: int,
              max_n: int = DEFAULT_MAX_N) -> RankingDecomposition:
    """Leave-apart decomposition: if the full vector is infeasible, leave out
    k-subsets of non-relevance events (smallest k first, lexicographic order)
    until the remainder is feasible, then recurse on the left-apart events.
    The relevance event is only left out once it is the sole survivor."""
    if not (1 <= relevance_index <= v.n):
        raise ValueError(f"relevance index {relevance_index} outside 1..{v.n}")
    subsets: list[tuple[tuple[int, ...], PolytopeCertificate]] = []
    dropped: list[tuple[int, ...]] = []

    def split(events: tuple[int, ...]) -> None:
        cert = _feasibility(v, events, max_n)
        if cert.feasible:
            subsets.append((events, cert))
            return
        candidates = tuple(i for i in events if i != relevance_index)
        for k in range(1, len(candidates) + 1):
            for combo in combinations(candidates, k):
                remaining = tuple(i for i in events if i not in combo)
                rem_cert = _feasibility(v, remaining, max_n)
                if rem_cert.feasible:
                    subsets.append((remaining, rem_cert))
                    dropped.append(combo)
                    split(combo)
                    return
        raise RuntimeError("decomposition failed to terminate on singletons")

    split(tuple(range(1, v.n + 1)))
    return RankingDecomposition(tuple(subsets), tuple(dropped))
