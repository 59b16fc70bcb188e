"""Probability estimation from event tables, the violation-generating
estimators (smoothing, broker mixing, missing values), and the corpus survey.

Conditional probabilities are relative frequencies.  ``estimate_triple``
reads the three edges of a triple as p = Pr(b|a), q = Pr(c|b), r = Pr(c|a),
each with the conditioning observable's measure in the denominator; under the
equal-marginals premise these coincide with their symmetric counterparts.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from . import admissibility
from .admissibility import AdmissibilityVerdict
from .core import (CapExceededError, CondTriple, EventTable, FormatError,
                   Ternary, as_prob, data_lines)

# bound on survey rows, counted as Σ C(k, 2) over queries before any work.
# A row's overlap is one AND as wide as the documents that two of its query's
# lists share, so it does not grow with the corpus.  On one x86_64 core the
# whole `survey` command takes about 2-4 µs per row plus about 16-20 µs per
# distinct count triple, which it classifies and renders once (two 101,025-row
# corpora of 2,000 documents, with 566 and 47,078 distinct triples).  A large
# corpus adds its parse, and Python's cyclic collector walks its objects as
# rows accumulate: 241,068 rows over 100,000 documents take about 4 s, and
# 783,961 rows over 300,000 documents about 7 s.  So 10^6 rows take from
# about 3 s, on a small corpus whose triples repeat, to 20 s or more
MAX_SURVEY_ROWS = 10**6


class ZeroConditioningError(ValueError):
    """The conditioning event has measure zero under the chosen strategy."""


class MissingStrategy(Enum):
    # restrict the universe to rows where every queried observable is known
    EXCLUDE_UNKNOWN = "exclude-unknown"
    # keep all rows; Unknown counts as Absent everywhere
    UNKNOWN_AS_ABSENT = "unknown-as-absent"


def _measure(table: EventTable, names: Sequence[str],
             strategy: MissingStrategy) -> Callable[..., int]:
    """Apply the missing-value rule once for the queried ``names``: under
    EXCLUDE_UNKNOWN the universe is the rows where all of them are known.
    The returned ``count(*present)`` measures the universe's rows where all
    of ``present`` are Present (Unknown reads as Absent); ``count()`` is the
    universe's total."""
    cols = {name: table.column(name) for name in names}
    rows = table.rows
    if strategy is MissingStrategy.EXCLUDE_UNKNOWN:
        rows = [(cells, n) for cells, n in rows
                if all(cells[c] is not Ternary.UNKNOWN for c in cols.values())]
        if not rows:
            raise ZeroConditioningError("no rows with all queried observables known")

    def count(*present: str) -> int:
        idx = [cols[name] for name in present]
        return sum(n for cells, n in rows
                   if all(cells[c] is Ternary.PRESENT for c in idx))
    return count


def _cond(count: Callable[..., int], target: str, given: str) -> Fraction:
    given_count = count(given)
    if given_count == 0:
        raise ZeroConditioningError(f"conditioning event {given!r} has measure zero")
    return Fraction(count(target, given), given_count)


def cond_prob(table: EventTable, target: str, given: str,
              strategy: MissingStrategy = MissingStrategy.EXCLUDE_UNKNOWN) -> Fraction:
    """Pr(target | given) as mu(target and given) / mu(given)."""
    return _cond(_measure(table, (target, given), strategy), target, given)


def estimate_triple(table: EventTable, a: str, b: str, c: str,
                    strategy: MissingStrategy = MissingStrategy.EXCLUDE_UNKNOWN) -> CondTriple:
    """Assemble (p, q, r) = (Pr(b|a), Pr(c|b), Pr(c|a)) from one table.

    Under EXCLUDE_UNKNOWN the universe is restricted once, to the rows where
    all three observables are known.  The marginal field is set when the
    three marginal frequencies agree.
    """
    count = _measure(table, (a, b, c), strategy)
    p, q, r = _cond(count, b, a), _cond(count, c, b), _cond(count, c, a)
    total = count()
    marginals = {Fraction(count(name), total) for name in (a, b, c)}
    marginal = marginals.pop() if len(marginals) == 1 else None
    return CondTriple(p, q, r, marginal=marginal)


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------

def smooth_triple(base: CondTriple, background: CondTriple,
                  coeffs: tuple[Fraction, Fraction, Fraction]) -> CondTriple:
    """Linear smoothing: each of p, q, r moves toward its background value
    by its own coefficient from ``coeffs`` = (alpha, beta, gamma)."""
    alpha, beta, gamma = (as_prob(c) for c in coeffs)
    return CondTriple(
        p=alpha * background.p + (1 - alpha) * base.p,
        q=beta * background.q + (1 - beta) * base.q,
        r=gamma * background.r + (1 - gamma) * base.r,
    )


def broker_mix(triples: Sequence[CondTriple],
               weights: Sequence[Fraction]) -> CondTriple:
    """Component-wise convex combination of per-collection triples."""
    if len(triples) != len(weights):
        raise ValueError("triples and weights must have equal length")
    weights = [as_prob(w) for w in weights]
    if sum(weights) != 1:
        raise ValueError(f"weights sum to {sum(weights)}, expected 1")
    p = sum(w * t.p for w, t in zip(weights, triples))
    q = sum(w * t.q for w, t in zip(weights, triples))
    r = sum(w * t.r for w, t in zip(weights, triples))
    return CondTriple(p, q, r)


# ---------------------------------------------------------------------------
# Corpus survey
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    """Documents with term sets plus queries with relevance judgements."""

    documents: tuple[tuple[str, frozenset[str]], ...]
    queries: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self) -> None:
        ids = {doc_id for doc_id, _ in self.documents}
        if len(ids) != len(self.documents):
            raise ValueError("duplicate document ids")
        for query_id, relevant in self.queries:
            missing = relevant - ids
            if missing:
                raise ValueError(
                    f"query {query_id}: unknown relevant documents {sorted(missing)}")

    @property
    def N(self) -> int:
        return len(self.documents)


def parse_corpus(documents_text: str, qrels_text: str) -> Corpus:
    """Documents file: one line per document, id then terms.  Qrels file:
    one (query id, relevant document id) pair per line."""
    documents = tuple((parts[0], frozenset(parts[1:]))
                      for parts in map(str.split, data_lines(documents_text)))
    qrels: dict[str, set[str]] = {}
    for ln in data_lines(qrels_text):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad qrels line: {ln!r}")
        query_id, doc_id = parts
        qrels.setdefault(query_id, set()).add(doc_id)
    queries = tuple((qid, frozenset(docs)) for qid, docs in qrels.items())
    try:
        return Corpus(documents, queries)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


class SurveyRow(NamedTuple):
    query_id: str
    term_b: str
    term_c: str
    triple: CondTriple
    verdict: AdmissibilityVerdict


def survey_corpus(corpus: Corpus) -> list[SurveyRow]:
    """For each query, pair up the terms whose occurrence probability equals
    the probability of relevance exactly, estimate (p, q, r) by relative
    frequency, and classify each distinct triple once.  A corpus that would
    give more than MAX_SURVEY_ROWS rows raises CapExceededError before any
    triple is built."""
    if corpus.N == 0:
        raise ValueError("empty corpus")
    postings: dict[str, list[str]] = {}
    for doc_id, terms in corpus.documents:
        for term in terms:
            postings.setdefault(term, []).append(doc_id)
    terms_by_df: dict[int, list[str]] = {}
    for term, docs in postings.items():
        terms_by_df.setdefault(len(docs), []).append(term)
    total = sum(math.comb(len(terms_by_df.get(len(relevant), ())), 2)
                for _, relevant in corpus.queries if relevant)
    if total > MAX_SURVEY_ROWS:
        raise CapExceededError(f"survey of {total} rows exceeds cap {MAX_SURVEY_ROWS}")
    rows: list[SurveyRow] = []
    for query_id, relevant in corpus.queries:
        if not relevant:
            continue
        n_rel = len(relevant)
        marginal = Fraction(n_rel, corpus.N)
        over_n_rel = [Fraction(k, n_rel) for k in range(n_rel + 1)]
        selected = sorted(terms_by_df.get(n_rel, ()))
        doc_lists = [relevant, *(postings[term] for term in selected)]
        # a document adds to a hit or an overlap only when two of these lists
        # hold it: give each such document one bit, so a mask is as wide as
        # the shared documents, not as the corpus
        held = Counter(chain.from_iterable(doc_lists))
        bit = {doc_id: k for k, doc_id in
               enumerate(doc_id for doc_id, lists in held.items() if lists > 1)}
        relevant_mask, *masks = (_mask([bit[d] for d in docs if d in bit], len(bit))
                                 for docs in doc_lists)
        hits = [(mask & relevant_mask).bit_count() for mask in masks]
        # every selected term, and so the conditioning term of q, occurs in
        # n_rel documents: a row's triple is its three counts over n_rel,
        # and rows with equal counts share one triple and one verdict
        classified: dict[tuple[int, int, int], tuple[CondTriple, AdmissibilityVerdict]] = {}
        for b_idx, term_b in enumerate(selected):
            mask_b, hits_b = masks[b_idx], hits[b_idx]
            for c_idx in range(b_idx + 1, len(selected)):
                key = (hits_b, (mask_b & masks[c_idx]).bit_count(), hits[c_idx])
                shared = classified.get(key)
                if shared is None:
                    triple = CondTriple(*(over_n_rel[k] for k in key), marginal=marginal)
                    shared = classified[key] = (triple, admissibility.classify(triple))
                rows.append(SurveyRow(query_id, term_b, selected[c_idx], *shared))
    return rows


def _mask(bits: Iterable[int], width: int) -> int:
    """The int with the given bits set, each below ``width``, built in time
    linear in ``width`` and the number of bits."""
    buf = bytearray(width // 8 + 1)
    for k in bits:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")
