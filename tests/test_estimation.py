import random
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evspace.admissibility import classify
from evspace.core import CondTriple, Ternary, parse_event_table
from evspace.estimation import (Corpus, MissingStrategy, ZeroConditioningError,
                                broker_mix, cond_prob, estimate_triple,
                                parse_corpus, smooth_triple, survey_corpus)

probs = st.fractions(0, 1)


def fixture(name):
    return resources.files("evspace.fixtures").joinpath(name).read_text()


@pytest.fixture(scope="module")
def fig1():
    return parse_event_table(fixture("fig1.tbl"))


@pytest.fixture(scope="module")
def fig3():
    return parse_event_table(fixture("fig3.tbl"))


@pytest.fixture(scope="module")
def s1():
    return parse_event_table(fixture("s1.tbl"))


def random_equal_marginal_table(rng: random.Random, half: bool = True):
    """Three-observable table whose marginal counts agree, via the linear
    constraints on the cell counts.  With ``half`` the common marginal is
    pinned to exactly 1/2 of the total, the premise under which the
    classical inequality is sound."""
    while True:
        n111 = rng.randint(0, 5)
        n110 = rng.randint(0, 5)
        n101 = rng.randint(0, 5)
        n100 = rng.randint(0, 5)
        n011 = rng.randint(0, 5)
        n010 = n101 + n100 - n011
        n001 = n110 + n100 - n011
        if n010 < 0 or n001 < 0:
            continue
        marginal = n111 + n110 + n101 + n100
        if half:
            n000 = marginal - n011 - n010 - n001
            if n000 < 0:
                continue
        else:
            n000 = rng.randint(0, 5)
        total = marginal + n011 + n010 + n001 + n000
        if marginal == 0 or total == 0:
            continue
        cells = {
            (1, 1, 1): n111, (1, 1, 0): n110, (1, 0, 1): n101, (1, 0, 0): n100,
            (0, 1, 1): n011, (0, 1, 0): n010, (0, 0, 1): n001, (0, 0, 0): n000,
        }
        rows = tuple(
            (tuple(Ternary.PRESENT if b else Ternary.ABSENT for b in bits), count)
            for bits, count in cells.items() if count > 0)
        return parse_event_table_rows(rows)


def parse_event_table_rows(rows):
    from evspace.core import EventTable
    return EventTable(("A", "B", "C"), rows)


class TestCondProb:
    def test_fig1_values(self, fig1):
        assert cond_prob(fig1, "B", "A") == F(2, 5)
        assert cond_prob(fig1, "C", "B") == F(4, 5)
        assert cond_prob(fig1, "C", "A") == F(1, 5)

    def test_self_conditioning(self, fig1):
        assert cond_prob(fig1, "A", "A") == 1

    def test_s1_values(self, s1):
        assert cond_prob(s1, "B", "A") == F(2, 5)
        # the symmetric-conditional reading of Pr(B|C): B measured inside B's
        # marginal, i.e. Pr(C|B)
        assert cond_prob(s1, "C", "B") == F(1, 5)
        assert cond_prob(s1, "C", "A") == F(2, 5)

    def test_zero_measure_conditioning(self):
        table = parse_event_table("A,B\n0,1\n0,0")
        with pytest.raises(ZeroConditioningError):
            cond_prob(table, "B", "A")

    def test_strategies_agree_without_unknowns(self, fig1):
        for target, given in (("B", "A"), ("C", "B"), ("C", "A")):
            assert (cond_prob(fig1, target, given, MissingStrategy.EXCLUDE_UNKNOWN)
                    == cond_prob(fig1, target, given, MissingStrategy.UNKNOWN_AS_ABSENT))


class TestEstimateTriple:
    def test_fig1(self, fig1):
        t = estimate_triple(fig1, "A", "B", "C")
        assert (t.p, t.q, t.r) == (F(2, 5), F(4, 5), F(1, 5))
        assert t.marginal == F(1, 2)
        assert classify(t).classical  # boundary case

    def test_fig3_exclude_unknown(self, fig3):
        t = estimate_triple(fig3, "A", "B", "C", MissingStrategy.EXCLUDE_UNKNOWN)
        assert (t.p, t.q, t.r) == (F(2, 5), F(4, 5), F(1, 5))

    def test_fig3_unknown_as_absent(self, fig3):
        t = estimate_triple(fig3, "A", "B", "C", MissingStrategy.UNKNOWN_AS_ABSENT)
        # unequal marginals (5/12, 6/12, 6/12): no common marginal recorded
        assert t.marginal is None
        assert t.q == F(5, 6)

    def test_unknown_reads_as_absent(self, fig3):
        # the two rows with A unknown stay in the universe but not in A
        t = estimate_triple(fig3, "A", "B", "C", MissingStrategy.UNKNOWN_AS_ABSENT)
        assert (t.p, t.q, t.r) == (F(2, 5), F(5, 6), F(1, 5))
        assert cond_prob(fig3, "A", "B", MissingStrategy.UNKNOWN_AS_ABSENT) == F(1, 3)
        assert cond_prob(fig3, "A", "B", MissingStrategy.EXCLUDE_UNKNOWN) == F(2, 5)

    def test_exclude_unknown_keeps_rows_known_in_the_queried_names(self):
        table = parse_event_table("A,B,C\n1,1,?\n1,0,1\n0,1,1\n")
        assert cond_prob(table, "B", "A") == F(1, 2)
        assert estimate_triple(table, "A", "B", "C").p == 0

    def test_strategies_agree_on_complete_table(self, fig1):
        assert (estimate_triple(fig1, "A", "B", "C", MissingStrategy.EXCLUDE_UNKNOWN)
                == estimate_triple(fig1, "A", "B", "C", MissingStrategy.UNKNOWN_AS_ABSENT))

    def test_half_marginals_imply_classical(self, rng):
        for _ in range(300):
            table = random_equal_marginal_table(rng)
            try:
                t = estimate_triple(table, "A", "B", "C")
            except ZeroConditioningError:
                continue
            assert t.marginal == F(1, 2)
            assert classify(t).classical, (table.rows, t)

    def test_equal_marginals_alone_are_not_enough(self):
        # a genuine single event space with common marginal 5/13 whose
        # symmetric triple still violates the classical inequality: the
        # inequality presupposes a marginal of exactly 1/2
        rows = {(1, 1, 1): 2, (1, 1, 0): 3, (1, 0, 0): 5,
                (0, 1, 0): 5, (0, 0, 1): 8, (0, 0, 0): 3}
        table = parse_event_table_rows(tuple(
            (tuple(Ternary.PRESENT if b else Ternary.ABSENT for b in bits), n)
            for bits, n in rows.items()))
        t = estimate_triple(table, "A", "B", "C")
        assert t.marginal == F(5, 13)
        assert not classify(t).classical


class TestSmoothTriple:
    def test_pathological_coefficients(self):
        base = CondTriple(F(3, 4), F(1, 4), F(9, 15))
        background = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        out = smooth_triple(base, background, (F(1, 9), F(1, 9), F(2, 17)))
        assert (out.p, out.q, out.r) == (F(13, 18), F(5, 18), F(10, 17))
        assert not classify(out).classical

    def test_zero_coefficients(self):
        base = CondTriple(F(3, 4), F(1, 4), F(3, 5))
        background = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        out = smooth_triple(base, background, (F(0), F(0), F(0)))
        assert (out.p, out.q, out.r) == (base.p, base.q, base.r)

    def test_unit_coefficients(self):
        base = CondTriple(F(3, 4), F(1, 4), F(3, 5))
        background = CondTriple(F(1, 2), F(1, 3), F(1, 4))
        out = smooth_triple(base, background, (F(1), F(1), F(1)))
        assert (out.p, out.q, out.r) == (background.p, background.q, background.r)

    @given(probs, probs, probs, probs, probs, probs, probs, probs, probs)
    def test_stays_in_range(self, p, q, r, bp, bq, br, a, b, g):
        out = smooth_triple(CondTriple(p, q, r), CondTriple(bp, bq, br), (a, b, g))
        for comp in (out.p, out.q, out.r):
            assert 0 <= comp <= 1


class TestBrokerMix:
    S1 = CondTriple(F(2, 5), F(1, 5), F(2, 5))
    S2 = CondTriple(F(2, 5), F(1, 5), F(1, 5))

    def test_half_mixture_violates(self):
        out = broker_mix([self.S1, self.S2], [F(1, 2), F(1, 2)])
        assert (out.p, out.q, out.r) == (F(4, 10), F(2, 10), F(3, 10))
        assert not classify(out).classical

    def test_single_component_identity(self):
        out = broker_mix([self.S1], [F(1)])
        assert (out.p, out.q, out.r) == (self.S1.p, self.S1.q, self.S1.r)

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            broker_mix([self.S1, self.S2], [F(1, 2), F(1, 3)])

    def test_alpha_sweep_endpoints(self):
        # mixing two admissible triples: alpha 0 and 1 recover the originals
        a = CondTriple(F(2, 5), F(1, 5), F(2, 5))
        b = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        assert classify(a).classical and classify(b).classical
        admissible = [alpha for alpha in (F(k, 10) for k in range(11))
                      if classify(broker_mix([a, b], [alpha, 1 - alpha])).classical]
        assert F(0) in admissible and F(1) in admissible

    @given(probs, probs, probs, probs)
    def test_equal_inputs_fixed_point(self, p, q, r, w):
        t = CondTriple(p, q, r)
        out = broker_mix([t, t], [w, 1 - w])
        assert (out.p, out.q, out.r) == (p, q, r)


@pytest.fixture(scope="module")
def corpus():
    return parse_corpus(fixture("toy_docs.txt"), fixture("toy_qrels.txt"))


class TestSurveyCorpus:
    def test_parse(self, corpus):
        assert corpus.N == 16
        assert dict(corpus.queries)["q1"] == frozenset({"d01", "d02"})

    def test_comments_and_blank_lines_are_skipped(self, corpus):
        def noisy(text):
            return "# header\n\n" + "".join(
                f"  {ln}\n\n   # after {ln}\n" for ln in text.splitlines())
        docs, qrels = fixture("toy_docs.txt"), fixture("toy_qrels.txt")
        assert parse_corpus(noisy(docs), noisy(qrels)) == corpus
        assert (parse_corpus("d1 t1\nd2 t2\n", "q1 d1\nq2 d2\nq1 d2\n")
                == parse_corpus("# docs\n\nd1 t1\n  # d2\n d2 t2\n",
                                "\n# q1\nq1 d1\n\n#q2 d1\nq2 d2\n  q1 d2\n"))

    def test_unknown_relevant_doc_rejected(self):
        with pytest.raises(ValueError):
            parse_corpus("d1 t1\n", "q1 d9\n")

    def test_all_yes_row(self, corpus):
        rows = survey_corpus(corpus)
        row = next(r for r in rows if r.query_id == "q1")
        assert (row.triple.p, row.triple.q, row.triple.r) == (F(1), F(1), F(1))
        v = row.verdict
        assert (v.classical, v.real_qs, v.complex_qs) == (True, True, True)

    def test_quarter_row(self, corpus):
        rows = survey_corpus(corpus)
        row = next(r for r in rows if r.query_id == "q2")
        assert (row.triple.p, row.triple.q, row.triple.r) == (F(1, 4), F(1, 4), F(1, 4))
        v = row.verdict
        assert (v.classical, v.real_qs, v.complex_qs) == (False, True, True)

    def test_zero_relevant_query_yields_nothing(self):
        corpus = Corpus((("d1", frozenset({"t"})), ("d2", frozenset())),
                        (("q", frozenset()),))
        assert survey_corpus(corpus) == []

    def test_counts_in_a_large_sparse_corpus(self):
        # 10,000 documents, of which only d1, d2 and d5000 are held by two of
        # the relevant set and the three terms' documents: counts read the
        # same whether the shared documents sit near or far apart
        held = {"a": {"d0", "d1", "d5000", "d9999"},
                "b": {"d1", "d5000", "d7000", "d8000"},
                "c": {"d2", "d3", "d6000", "d9998"}}
        documents = tuple((f"d{k}", frozenset(t for t, ds in held.items() if f"d{k}" in ds))
                          for k in range(10_000))
        corpus = Corpus(documents, (("q", frozenset({"d0", "d1", "d2", "d3"})),))
        rows = survey_corpus(corpus)
        assert [(r.term_b, r.term_c, r.triple.p, r.triple.q, r.triple.r) for r in rows] == [
            ("a", "b", F(2, 4), F(2, 4), F(1, 4)),
            ("a", "c", F(2, 4), F(0), F(2, 4)),
            ("b", "c", F(1, 4), F(0), F(2, 4))]
        assert all(r.triple.marginal == F(4, 10_000) for r in rows)

    def test_frequency_provenance(self, corpus):
        n_rel = {qid: len(rel) for qid, rel in corpus.queries}
        for row in survey_corpus(corpus):
            # p and r over the relevant-set size, q over a document frequency
            assert (row.triple.p * n_rel[row.query_id]).denominator == 1
            assert (row.triple.r * n_rel[row.query_id]).denominator == 1
            assert (row.triple.q * n_rel[row.query_id]).denominator == 1
            assert (row.triple.marginal * corpus.N).denominator == 1

    @given(st.data())
    def test_rows_are_recounted_triples(self, data):
        # random corpora of up to 200 documents, so that a mask can span
        # several 64-bit words: every row's triple is its counts over
        # the relevant-set size, and its verdict is classify of that triple.
        # A term occurs in as many documents as some query has relevant
        # ones, or in a drawn number; documents without terms and queries
        # without relevant documents are drawn too
        n_docs = data.draw(st.integers(1, 200))
        docs = [f"d{k}" for k in range(n_docs)]

        def subset(size):
            return frozenset(data.draw(st.permutations(docs))[:size])
        sizes = st.integers(0, n_docs)
        queries = tuple((f"q{k}", subset(data.draw(sizes)))
                        for k in range(data.draw(st.integers(1, 3))))
        planted = {term: subset(data.draw(st.one_of(
                       st.sampled_from([len(rel) for _, rel in queries]), sizes)))
                   for term in "abcdef"}
        documents = tuple((doc, frozenset(t for t, ds in planted.items() if doc in ds))
                          for doc in docs)
        corpus = Corpus(documents, queries)
        holders = {}
        for doc, terms in documents:
            for term in terms:
                holders.setdefault(term, set()).add(doc)
        rows = survey_corpus(corpus)
        expected_pairs = []
        for query_id, relevant in queries:
            n_rel = len(relevant)
            chosen = sorted(t for t, ds in holders.items() if len(ds) == n_rel and n_rel)
            expected_pairs += [(query_id, b, c) for k, b in enumerate(chosen)
                               for c in chosen[k + 1:]]
        assert [(r.query_id, r.term_b, r.term_c) for r in rows] == expected_pairs
        relevant_of = dict(queries)
        for row in rows:
            relevant = relevant_of[row.query_id]
            n_rel = len(relevant)
            docs_b, docs_c = holders[row.term_b], holders[row.term_c]
            assert row.triple == CondTriple(F(len(docs_b & relevant), n_rel),
                                            F(len(docs_b & docs_c), len(docs_c)),
                                            F(len(docs_c & relevant), n_rel),
                                            marginal=F(n_rel, n_docs))
            assert row.verdict == classify(row.triple)
