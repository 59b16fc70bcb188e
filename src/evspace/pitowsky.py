"""Correlation-polytope membership and the leave-apart ranking decomposition.

A correlation vector admits a single event space iff it is a convex
combination of the 2^n vertex vectors derived from binary strings.  Absent
pairwise entries contribute no equation: they are existentially completed.
A vector that breaks a pair or triangle facet is separated by that facet;
any other is decided by the exact phase-1 simplex.  Certificates (weights, or
a facet or Farkas separating functional) are re-verified before being
returned.  ``decompose`` first rules out subsets that break such a facet.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from typing import Iterator, Mapping, Optional, Sequence

from .core import (CapExceededError, CorrelationVector, ONE, ZERO, as_prob,
                   parse_digits)
from .simplex import solve_feasibility

DEFAULT_MAX_N = 12


def max_n_from_env() -> int:
    value = os.environ.get("EVSPACE_MAX_N")
    if not value:
        return DEFAULT_MAX_N
    try:
        return parse_digits(value)
    except ValueError:
        raise ValueError(f"EVSPACE_MAX_N is not an integer: {value!r}") from None


# ---------------------------------------------------------------------------
# Vertices
# ---------------------------------------------------------------------------

def vertex_vector(n: int, mask: int) -> CorrelationVector:
    """The complete correlation vector of the vertex with the given mask:
    event i is bit n - i, as in ``_mask``, and an entry is 1 iff the vertex
    holds each of its events."""
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask {mask} outside [0, 2^{n})")
    return CorrelationVector(n, {
        events: ONE if all(mask >> (n - i) & 1 for i in events) else ZERO
        for size in (1, 2) for events in combinations(range(1, n + 1), size)})


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Integer separating functional: the LP's Farkas vector or one row of
    ``_facets``, one coefficient per row of ``_rows`` keyed by the row's
    events, in that order.  The sum row's key ``()`` comes last and holds
    the constant.

    Evaluates strictly positive on the separated vector and <= 0 on every
    vertex of the polytope.
    """

    coeffs: Mapping[tuple[int, ...], int]

    def evaluate(self, v: CorrelationVector) -> Fraction:
        values = {**v.entries, (): ONE}
        return sum((c * values[events] for events, c in self.coeffs.items()), ZERO)

    def render(self) -> str:
        return " + ".join(
            f"{c}·p{','.join(map(str, events))}" if events else str(c)
            for events, c in self.coeffs.items()) + " > 0"


@dataclass(frozen=True)
class PolytopeCertificate:
    """``weights`` maps each vertex of n events, as the mask whose bit n - i
    is event i, to its weight."""

    feasible: bool
    n: int
    weights: Optional[Mapping[int, Fraction]] = None
    witness: Optional[Witness] = None


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def membership(v: CorrelationVector, max_n: int = DEFAULT_MAX_N) -> PolytopeCertificate:
    """Membership of v in the correlation polytope, restricted to the present
    entries of v.  A vector that breaks a pair or triangle row is answered by
    that row; any other is decided by the exact LP.  The certificate is
    verified by re-substitution."""
    if v.n > max_n:
        raise CapExceededError(f"n={v.n} exceeds cap {max_n}")
    if not v.entries:
        raise ValueError("empty correlation vector")
    rows = _rows(v.n, v.entries.items())
    # the first row broken on the first face ``violated_faces`` lists is a
    # facet, so it separates v without an LP
    broken = next(_broken_faces(v.n, _scaled(v)), None)
    if broken is not None:
        _, facet = broken
        witness = Witness({events: facet.get(events, 0) for events, _, _ in rows})
        _verify_witness(v, witness)
        return PolytopeCertificate(feasible=False, n=v.n, witness=witness)
    # column k is the vertex with mask k; its cell in a row is 1 iff it
    # holds every event of the row
    size = 1 << v.n
    x, y = solve_feasibility(
        [[1 if k & mask == mask else 0 for k in range(size)] for _, mask, _ in rows],
        [value for _, _, value in rows])
    if x is not None:
        weights = {k: w for k, w in enumerate(x) if w}
        _verify_weights(rows, weights)
        return PolytopeCertificate(feasible=True, n=v.n, weights=weights)
    witness = _normalize_witness(rows, y)
    _verify_witness(v, witness)
    return PolytopeCertificate(feasible=False, n=v.n, witness=witness)


def _mask(n: int, events: Sequence[int]) -> int:
    """The vertex mask of n events that holds exactly the given events: event
    i is bit n - i, so the mask is also the vertex's LP column."""
    return sum(1 << (n - i) for i in events)


def _rows(n: int, entries) -> list[tuple[tuple[int, ...], int, Fraction]]:
    """(events, mask, value) for each entry, then the sum row ((), 0, 1): a
    vertex k counts towards a row iff k & mask == mask."""
    rows = [(events, _mask(n, events), value) for events, value in entries]
    rows.append(((), 0, ONE))
    return rows


def _normalize_witness(rows, y: Sequence[Fraction]) -> Witness:
    """The Farkas vector y over the rows from ``_rows``, scaled to coprime
    integers."""
    scale = math.lcm(*(c.denominator for c in y))
    ints = [int(c * scale) for c in y]
    g = math.gcd(*ints) or 1
    return Witness({events: c // g for (events, _, _), c in zip(rows, ints)})


def _verify_weights(rows, weights: Mapping[int, Fraction]) -> None:
    """Re-substitute the weights into the rows from ``_rows``: the sign of
    each weight first, then the sum row, then the entries."""
    if any(w < 0 for w in weights.values()):
        raise RuntimeError("certificate has negative weight")
    for events, mask, value in (rows[-1], *rows[:-1]):
        if sum(w for k, w in weights.items() if k & mask == mask) != value:
            if not events:
                raise RuntimeError("certificate weights do not sum to 1")
            raise RuntimeError(
                f"certificate fails to reproduce p{','.join(map(str, events))}")


def _verify_witness(v: CorrelationVector, witness: Witness) -> None:
    if witness.evaluate(v) <= 0:
        raise RuntimeError("witness does not separate the input")
    # events without a nonzero coefficient do not change the witness's value,
    # so the 2^k assignments of the k events in its support cover every
    # vertex; the constant is the term of no events, which every one holds
    terms = [(events, c) for events, c in witness.coeffs.items() if c]
    bit = {e: 1 << k for k, e in enumerate({e for events, _ in terms for e in events})}
    masks = [(sum(bit[e] for e in events), c) for events, c in terms]
    for a in range(1 << len(bit)):
        if sum(c for mask, c in masks if a & mask == mask) > 0:
            raise RuntimeError("witness fails on a polytope vertex")


# ---------------------------------------------------------------------------
# Closed-form small-n systems
# ---------------------------------------------------------------------------

@cache
def _facets(events: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], ...]:
    """The facets of the polytope on two or three events, as integer rows
    keyed like ``Witness.coeffs`` with the constant under ``()``, each <= 0
    on every vertex: -p_ij for a pair, then the corner row at each event i,
    p_ij + p_ik - p_jk - p_i (p_ij - p_i for a pair), then the sum row
    p_i + p_j + p_k - p_ij - p_ik - p_jk - 1 (p_i + p_j - p_ij - 1)."""
    pairs = list(combinations(events, 2))
    rows = [{pair: 1 if e in pair else -1 for pair in pairs} | {(e,): -1}
            for e in events]
    rows.append({(e,): 1 for e in events} | dict.fromkeys(pairs, -1) | {(): -1})
    return ({events: -1}, *rows) if len(events) == 2 else tuple(rows)


def _scaled(v: CorrelationVector) -> dict[tuple[int, ...], int]:
    """v's present entries keyed by their events, as integers over their least
    common denominator d, which is the value of the constant ``()``."""
    d = math.lcm(*(value.denominator for value in v.entries.values()))
    return {(): d, **{events: value.numerator * (d // value.denominator)
                      for events, value in v.entries.items()}}


def _first_broken(rows, scaled: Mapping[tuple[int, ...], int]
                  ) -> Optional[dict[tuple[int, ...], int]]:
    """The first of the rows that is positive on the scaled entries, or
    None."""
    return next((row for row in rows
                 if sum(c * scaled[events] for events, c in row.items()) > 0), None)


def _broken_faces(n: int, scaled: Mapping[tuple[int, ...], int]
                  ) -> Iterator[tuple[tuple[int, ...], dict[tuple[int, ...], int]]]:
    """Each face of ``violated_faces``, in its order, with the first row of
    ``_facets(face)`` that the scaled entries break.  The triples are
    generated lazily, so a caller that wants only the first face stops
    there."""
    pairs = [events for events in scaled if len(events) == 2
             and (events[0],) in scaled and (events[1],) in scaled]
    triples = ((i, j, k) for i, j in pairs for k in range(j + 1, n + 1)
               if (k,) in scaled and (i, k) in scaled and (j, k) in scaled)
    for face in chain(pairs, triples):
        row = _first_broken(_facets(face), scaled)
        if row is not None:
            yield face, row


def violated_faces(v: CorrelationVector) -> list[tuple[int, ...]]:
    """The pairs and triples of events whose own entries break a row of
    ``_facets``: the pairs first, then the triples.  Each names a restriction
    of v outside the polytope, so every superset of it is infeasible.  A face
    is read only when all of its entries are present: absent entries are
    existentially completed."""
    return [face for face, _ in _broken_faces(v.n, _scaled(v))]


def closed_form_n3(v: CorrelationVector) -> bool:
    """The paper's displayed three-event system: the pair rows of each pair
    and the triangle row at each event.

    Necessary only: it lacks the facet p1 + p2 + p3 - p1,2 - p1,3 - p2,3 <= 1
    (unary 1/2 with pairwise 1/8 passes here but is LP-infeasible), so
    membership() remains the authoritative test.
    """
    if v.n != 3 or not v.is_complete:
        raise ValueError("expected a complete n=3 correlation vector")
    rows = [row for face in (*combinations((1, 2, 3), 2), (1, 2, 3))
            for row in _facets(face)]
    return _first_broken(rows[:-1], _scaled(v)) is None


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
    n = len(doc_priors) + 1
    return CorrelationVector(n, {
        **{(i,): prior for i, prior in enumerate(doc_priors, 1)}, (n,): pA,
        **{(i, n): as_prob(likelihood) * pA
           for i, likelihood in enumerate(doc_likelihoods, 1)}})


@dataclass(frozen=True)
class RankingDecomposition:
    """Partition of the events into subsets that each admit a single space."""

    subsets: tuple[tuple[tuple[int, ...], PolytopeCertificate], ...]

    def covered(self) -> set[int]:
        out: set[int] = set()
        for indices, _ in self.subsets:
            out.update(indices)
        return out


def _restrict(v: CorrelationVector, events: tuple[int, ...]) -> CorrelationVector:
    """v's entries whose events are all among the ascending events, with
    event events[k] renumbered k + 1."""
    remap = {orig: k + 1 for k, orig in enumerate(events)}
    return CorrelationVector(len(events), {
        renamed: value for key, value in v.entries.items()
        if None not in (renamed := tuple(map(remap.get, key)))})


def _feasibility(v: CorrelationVector, events: tuple[int, ...],
                 max_n: int) -> PolytopeCertificate:
    if len(events) == 1:
        # singleton: weight p on "present", 1-p on "absent"; always feasible,
        # keyed over two events, the fewest a vector has
        p = v.entries.get((events[0],), ZERO)
        weights = {k: w for k, w in ((0b00, 1 - p), (0b10, p)) if w}
        _verify_weights(_rows(2, [((1,), p)]), weights)
        return PolytopeCertificate(feasible=True, n=2, weights=weights)
    return membership(_restrict(v, events), max_n)


def decompose(v: CorrelationVector, relevance_index: int,
              max_n: int = DEFAULT_MAX_N) -> RankingDecomposition:
    """Leave-apart decomposition: if the full vector is infeasible, leave out
    k-subsets of non-relevance events (smallest k first, lexicographic order)
    until the remainder is feasible, then recurse on the left-apart events.
    The relevance event is only left out once it is the sole survivor.
    Subsets that hold a face from ``violated_faces`` skip the LP."""
    if not (1 <= relevance_index <= v.n):
        raise ValueError(f"relevance index {relevance_index} outside 1..{v.n}")
    if v.n > max_n:
        raise CapExceededError(f"n={v.n} exceeds cap {max_n}")
    subsets: list[tuple[tuple[int, ...], PolytopeCertificate]] = []
    faces = [_mask(v.n, face) for face in violated_faces(v)]

    def feasible(events: tuple[int, ...]) -> Optional[PolytopeCertificate]:
        # a subset holding a violated face is infeasible without an LP; the
        # infeasible certificates are never reported, so the output is the
        # same as if every subset were solved
        mask = _mask(v.n, events)
        if any(face & mask == face for face in faces):
            return None
        cert = _feasibility(v, events, max_n)
        return cert if cert.feasible else None

    def split(events: tuple[int, ...]) -> None:
        cert = feasible(events)
        if cert is not None:
            subsets.append((events, cert))
            return
        candidates = tuple(i for i in events if i != relevance_index)
        for k in range(1, len(candidates) + 1):
            for combo in combinations(candidates, k):
                remaining = tuple(i for i in events if i not in combo)
                rem_cert = feasible(remaining)
                if rem_cert is not None:
                    subsets.append((remaining, rem_cert))
                    split(combo)
                    return
        raise RuntimeError("decomposition failed to terminate on singletons")

    split(tuple(range(1, v.n + 1)))
    return RankingDecomposition(tuple(subsets))
