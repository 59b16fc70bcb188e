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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from . import admissibility
from .core import (AdmissibilityVerdict, CapExceededError, CondTriple,
                   EventTable, FormatError, Ternary, as_prob)

# bound on survey rows, counted as Σ C(k, 2) over queries before any work:
# each row takes about 90 µs on one x86_64 core, so 10^6 rows is 1.5 minutes
MAX_SURVEY_ROWS = 10**6


class ZeroConditioningError(ValueError):
    """The conditioning event has measure zero under the chosen strategy."""


class MissingStrategy(Enum):
    # restrict the universe to rows where every queried observable is known
    EXCLUDE_UNKNOWN = "exclude-unknown"
    # keep all rows; Unknown counts as Absent everywhere
    UNKNOWN_AS_ABSENT = "unknown-as-absent"


def restrict_known(table: EventTable, names: Sequence[str]) -> EventTable:
    """Drop rows with an Unknown cell in any of the named columns."""
    cols = [table.column(name) for name in names]
    rows = tuple(
        (cells, count) for cells, count in table.rows
        if all(cells[c] is not Ternary.UNKNOWN for c in cols))
    if not rows:
        raise ZeroConditioningError("no rows with all queried observables known")
    return EventTable(table.observables, rows)


def _count(table: EventTable, present: Sequence[int]) -> int:
    # Ternary.UNKNOWN never matches PRESENT, which is exactly the
    # unknown-as-absent reading; exclude-unknown pre-filters the rows.
    return sum(
        count for cells, count in table.rows
        if all(cells[c] is Ternary.PRESENT for c in present))


def cond_prob(table: EventTable, target: str, given: str,
              strategy: MissingStrategy = MissingStrategy.EXCLUDE_UNKNOWN) -> Fraction:
    """Pr(target | given) as mu(target and given) / mu(given)."""
    if strategy is MissingStrategy.EXCLUDE_UNKNOWN:
        table = restrict_known(table, (target, given))
    t, g = table.column(target), table.column(given)
    given_count = _count(table, (g,))
    if given_count == 0:
        raise ZeroConditioningError(f"conditioning event {given!r} has measure zero")
    joint = _count(table, (t, g)) if t != g else given_count
    return Fraction(joint, given_count)


def estimate_triple(table: EventTable, a: str, b: str, c: str,
                    strategy: MissingStrategy = MissingStrategy.EXCLUDE_UNKNOWN) -> CondTriple:
    """Assemble (p, q, r) = (Pr(b|a), Pr(c|b), Pr(c|a)) from one table.

    Under EXCLUDE_UNKNOWN the universe is restricted once, to the rows where
    all three observables are known.  The marginal field is set when the
    three marginal frequencies agree.
    """
    if strategy is MissingStrategy.EXCLUDE_UNKNOWN:
        table = restrict_known(table, (a, b, c))
        strategy = MissingStrategy.UNKNOWN_AS_ABSENT
    p = cond_prob(table, b, a, strategy)
    q = cond_prob(table, c, b, strategy)
    r = cond_prob(table, c, a, strategy)
    total = table.total
    marginals = {
        Fraction(_count(table, (table.column(name),)), total) for name in (a, b, c)}
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
    documents = []
    for ln in documents_text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        documents.append((parts[0], frozenset(parts[1:])))
    qrels: dict[str, set[str]] = {}
    order: list[str] = []
    for ln in qrels_text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad qrels line: {ln!r}")
        query_id, doc_id = parts
        if query_id not in qrels:
            qrels[query_id] = set()
            order.append(query_id)
        qrels[query_id].add(doc_id)
    queries = tuple((qid, frozenset(qrels[qid])) for qid in order)
    try:
        return Corpus(tuple(documents), queries)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


@dataclass(frozen=True)
class SurveyRow:
    query_id: str
    term_b: str
    term_c: str
    triple: CondTriple
    verdict: AdmissibilityVerdict


def survey_corpus(corpus: Corpus) -> list[SurveyRow]:
    """For each query, pair up the terms whose occurrence probability equals
    the probability of relevance exactly, estimate (p, q, r) by relative
    frequency, and classify the triple.  A corpus that would give more than
    MAX_SURVEY_ROWS rows raises CapExceededError before any triple is built."""
    if corpus.N == 0:
        raise ValueError("empty corpus")
    postings: dict[str, set[str]] = {}
    for doc_id, terms in corpus.documents:
        for term in terms:
            postings.setdefault(term, set()).add(doc_id)
    terms_by_df = Counter(len(docs) for docs in postings.values())
    total = sum(math.comb(terms_by_df[len(relevant)], 2)
                for _, relevant in corpus.queries if relevant)
    if total > MAX_SURVEY_ROWS:
        raise CapExceededError(f"survey of {total} rows exceeds cap {MAX_SURVEY_ROWS}")
    rows: list[SurveyRow] = []
    for query_id, relevant in corpus.queries:
        if not relevant:
            continue
        n_rel = len(relevant)
        selected = sorted(t for t, docs in postings.items() if len(docs) == n_rel)
        for b_idx in range(len(selected)):
            for c_idx in range(b_idx + 1, len(selected)):
                term_b, term_c = selected[b_idx], selected[c_idx]
                docs_b, docs_c = postings[term_b], postings[term_c]
                triple = CondTriple(
                    p=Fraction(len(docs_b & relevant), n_rel),
                    q=Fraction(len(docs_b & docs_c), len(docs_c)),
                    r=Fraction(len(docs_c & relevant), n_rel),
                    marginal=Fraction(n_rel, corpus.N),
                )
                rows.append(SurveyRow(query_id, term_b, term_c, triple,
                                      admissibility.classify(triple)))
    return rows
