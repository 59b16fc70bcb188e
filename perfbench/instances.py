"""Seeded instance sets of the three workloads.

Each workload's instance set is a function of the seed alone.  Every
instance is one CLI argv, the input files it names, and a check of its
output (see ``checks.py``).  Nothing here imports evspace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# Correlation vectors
# ---------------------------------------------------------------------------

def _vec(n: int, unary: dict, pairwise: dict) -> dict:
    return {"n": n, "unary": unary, "pairwise": pairwise}


def vec_text(vec: dict) -> str:
    lines = [f"n={vec['n']}"]
    lines += [f"p{i}={v}" for i, v in sorted(vec["unary"].items())]
    lines += [f"p{i},{j}={v}" for (i, j), v in sorted(vec["pairwise"].items())]
    return "\n".join(lines) + "\n"


def mixture(rng: random.Random, n: int, k: int, pairs: list[tuple[int, int]]) -> dict:
    """Exact mixture of k random vertices with weights in eighths: feasible
    by construction."""
    masks = [rng.getrandbits(n) for _ in range(k)]
    cuts = sorted(rng.sample(range(1, 8), k - 1))
    weights = [Fraction(hi - lo, 8) for lo, hi in zip([0] + cuts, cuts + [8])]

    def mass(*events: int) -> Fraction:
        return sum((w for m, w in zip(masks, weights)
                    if all(m >> (e - 1) & 1 for e in events)), Fraction(0))

    return _vec(n, {i: mass(i) for i in range(1, n + 1)},
                {(i, j): mass(i, j) for i, j in pairs})


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def ranking_pairs(n: int) -> list[tuple[int, int]]:
    """The entries ``build_ranking_vector`` fills: each document with relevance."""
    return [(i, n) for i in range(1, n)]


def random_complete(rng: random.Random, n: int, den: int) -> dict:
    """Random unary values and pairwise values inside their two-event bounds."""
    unary = {i: Fraction(rng.randint(1, den - 1), den) for i in range(1, n + 1)}
    pairwise = {}
    for i, j in all_pairs(n):
        lo, hi = max(Fraction(0), unary[i] + unary[j] - 1), min(unary[i], unary[j])
        pairwise[(i, j)] = lo + (hi - lo) * Fraction(rng.randint(0, den), den)
    return _vec(n, unary, pairwise)


def random_ranking(rng: random.Random, m: int, den: int) -> dict:
    """``build_ranking_vector`` of random priors, likelihoods and Pr(A)."""
    priors = [Fraction(rng.randint(1, den - 1), den) for _ in range(m)]
    likelihoods = [Fraction(rng.randint(1, den - 1), den) for _ in range(m)]
    pa = Fraction(rng.randint(1, den - 1), den)
    n = m + 1
    unary = {i + 1: priors[i] for i in range(m)}
    unary[n] = pa
    return _vec(n, unary, {(i + 1, n): likelihoods[i] * pa for i in range(m)})


def violates_facet(vec: dict) -> bool:
    """True when some pair or triple breaks a facet of its own correlation
    polytope, which proves the whole vector infeasible."""
    u, pp = vec["unary"], vec["pairwise"]
    for (i, j), v in pp.items():
        if not (max(Fraction(0), u[i] + u[j] - 1) <= v <= min(u[i], u[j])):
            return True
    n = vec["n"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                if not {(i, j), (i, k), (j, k)} <= pp.keys():
                    continue
                a, b, c = pp[(i, j)], pp[(i, k)], pp[(j, k)]
                if (u[i] + u[j] + u[k] - a - b - c > 1 or a + b - c > u[i]
                        or a + c - b > u[j] or b + c - a > u[k]):
                    return True
    return False


def infeasible(rng: random.Random, make: Callable[[random.Random], dict]) -> dict:
    while True:
        vec = make(rng)
        if violates_facet(vec):
            return vec


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Builder:
    """Writes input files into ``work`` and collects the operations."""

    def __init__(self, work: Path, prefix: str):
        self.work = work
        self.prefix = prefix
        self.ops: list[Op] = []
        self.files = 0

    def file(self, suffix: str, text: str) -> str:
        self.files += 1
        path = self.work / f"{self.prefix}{self.files:04d}{suffix}"
        path.write_text(text)
        return str(path)

    def add(self, kind: str, argv: list[str], check: Callable[[str], None]) -> None:
        self.ops.append(Op(kind, argv, check))


# Membership: one group holds a random complete n=6 vector with all
# marginals 1/2, a complete n=6 mixture, a ranking-vector mixture with m=6
# (so n=7) and five random ranking vectors with m=6, about half of them
# feasible.  Mixture weights are eighths.  Complete n=7 vectors are left out:
# their cost varies so much between instances that a set of them moved the
# throughput by more than 10% from seed to seed.  The random ranking vectors
# are the majority and vary least, so the median and the tail fall inside
# one class rather than on a boundary between classes.
MEMBERSHIP_GROUPS = 12


def membership_ops(b: Builder, rng: random.Random) -> None:
    for _ in range(MEMBERSHIP_GROUPS):
        cases = [
            ("complete-n6-random", random_complete(rng, 6, 2), None),
            ("complete-n6-mixture", mixture(rng, 6, 3, all_pairs(6)), True),
            ("ranking-m6-mixture", mixture(rng, 7, 6, ranking_pairs(7)), True),
        ] + [("ranking-m6-random", random_ranking(rng, 6, 3), None) for _ in range(5)]
        for label, vec, expect in cases:
            path = b.file(".vec", vec_text(vec))
            b.add(f"membership:{label}", ["vector", path, "membership"],
                  partial(checks.check_membership, vec=vec, expect_feasible=expect))


# Decompose: one group holds three infeasible ranking vectors with m=5 (so
# n=6) and one infeasible complete n=5 vector; the relevance event is the
# last one.  Complete n=6 vectors are left out: their decompositions took
# 0.2-1.0 s each, and the tail of a set of them moved by more than 15% from
# seed to seed.  The ranking vectors are three quarters of the set and the
# costlier class, so the median and the tail both fall well inside it.
DECOMPOSE_GROUPS = 40


def decompose_ops(b: Builder, rng: random.Random) -> None:
    for _ in range(DECOMPOSE_GROUPS):
        for label, make in (("ranking-m5", lambda r: random_ranking(r, 5, 10)),
                            ("ranking-m5", lambda r: random_ranking(r, 5, 10)),
                            ("complete-n5", lambda r: random_complete(r, 5, 8)),
                            ("ranking-m5", lambda r: random_ranking(r, 5, 10))):
            vec = infeasible(rng, make)
            path = b.file(".vec", vec_text(vec))
            b.add(f"decompose:{label}", ["vector", path, "decompose"],
                  partial(checks.check_decompose, vec=vec))


# Survey: corpora whose queries have distinct numbers of relevant documents,
# each matched by exactly TERMS_PER_QUERY planted terms, so that every survey
# yields len(QUERY_SIZES) * C(TERMS_PER_QUERY, 2) = 9,920 rows whatever the
# seed.  Then come estimates under both missing-value strategies, checks,
# realizations, smoothings and mixtures on seeded tables and triples.
SURVEY_CORPORA = 6
DOCS = 200
QUERY_SIZES = range(3, 23)
TERMS_PER_QUERY = 32
TABLES = 8
TRIPLES = 16


def corpus(rng: random.Random) -> tuple[dict[str, set[str]], list[tuple[str, set[str]]]]:
    docs = [f"d{k:03d}" for k in range(DOCS)]
    terms: dict[str, set[str]] = {d: set() for d in docs}
    queries = []
    for qn, size in enumerate(QUERY_SIZES):
        relevant = set(rng.sample(docs, size))
        others = [d for d in docs if d not in relevant]
        queries.append((f"q{qn:02d}", relevant))
        for t in range(TERMS_PER_QUERY):
            inside = rng.randint(0, size)
            holders = rng.sample(sorted(relevant), inside) + rng.sample(others, size - inside)
            for d in holders:
                terms[d].add(f"k{size:02d}x{t:02d}")
    # filler terms: document frequency 1 or 30..60, never a relevant-set size
    for t in range(60):
        df = 1 if t % 2 else rng.randint(30, 60)
        for d in rng.sample(docs, df):
            terms[d].add(f"f{t:02d}")
    return terms, queries


def table(rng: random.Random, header: list[str]) -> list[tuple[str, int]]:
    rows = [(",".join("1" for _ in header), rng.randint(1, 3))]
    for _ in range(rng.randint(20, 40)):
        cells = ",".join("?" if rng.random() < 0.08 else rng.choice("10") for _ in header)
        rows.append((cells, rng.choice((1, 1, 1, 2, 3))))
    return rows


def table_text(header: list[str], rows: list[tuple[str, int]]) -> str:
    body = [cells if count == 1 else f"{cells} x{count}" for cells, count in rows]
    return "\n".join([",".join(header)] + body) + "\n"


def triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    den = rng.randint(2, 20)
    return tuple(Fraction(rng.randint(0, den), den) for _ in range(3))


def survey_ops(b: Builder, rng: random.Random) -> None:
    for _ in range(SURVEY_CORPORA):
        terms, queries = corpus(rng)
        docs_path = b.file(".docs", "".join(
            f"{d} {' '.join(sorted(ts))}\n" for d, ts in terms.items()))
        qrels_path = b.file(".qrels", "".join(
            f"{qid} {d}\n" for qid, rel in queries for d in sorted(rel)))
        b.add("survey", ["survey", docs_path, qrels_path],
              partial(checks.check_survey, n_docs=len(terms),
                      expected_rows=checks.survey_rows(terms, queries)))

    tables = []
    for k in range(TABLES):
        header = ["A", "B", "C", "D"] if k % 2 else ["A", "B", "C"]
        rows = table(rng, header)
        path = b.file(".tbl", table_text(header, rows))
        tables.append((header, rows, path))
        names = rng.sample(header, 3)
        for strategy in ("exclude-unknown", "unknown-as-absent"):
            p, q, r, marginal = checks.table_triple(header, rows, *names, strategy)
            b.add("estimate", ["estimate", path, *names, "--strategy", strategy],
                  partial(checks.check_triple, p=p, q=q, r=r, marginal=marginal))

    for k in range(TRIPLES):
        p, q, r = triple(rng)
        argv = ["check", str(p), str(q), str(r)]
        marginal = Fraction(1, 2) if k % 2 else None
        if marginal is not None:
            argv += ["--marginal", str(marginal)]
        b.add("check", argv, partial(checks.check_triple, p=p, q=q, r=r, marginal=marginal))
        b.add("realize", ["realize", str(p), str(q), str(r)],
              partial(checks.check_realize, p=p, q=q, r=r))
        alpha, beta, gamma = triple(rng)
        bp, bq, br = triple(rng)
        b.add("smooth", ["smooth", str(p), str(q), str(r), "--alpha", str(alpha),
                         "--beta", str(beta), "--gamma", str(gamma),
                         "--background-p", str(bp), "--background-q", str(bq),
                         "--background-r", str(br)],
              partial(checks.check_triple,
                      p=alpha * bp + (1 - alpha) * p, q=beta * bq + (1 - beta) * q,
                      r=gamma * br + (1 - gamma) * r, marginal=None))

    for k in range(0, TABLES, 2):
        (h1, rows1, path1), (h2, rows2, path2) = tables[k], tables[(k + 2) % TABLES]
        alpha = Fraction(rng.randint(0, 8), 8)
        t1 = checks.table_triple(h1, rows1, *h1[:3], "exclude-unknown")
        t2 = checks.table_triple(h2, rows2, *h2[:3], "exclude-unknown")
        mixed = [alpha * x + (1 - alpha) * y for x, y in zip(t1[:3], t2[:3])]
        b.add("mix", ["mix", path1, path2, "--alpha", str(alpha)],
              partial(checks.check_triple, p=mixed[0], q=mixed[1], r=mixed[2],
                      marginal=None, extra={"alpha": str(alpha)}))


WORKLOADS = {
    "membership": membership_ops,
    "decompose": decompose_ops,
    "survey": survey_ops,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    b = Builder(work, workload)
    WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"))
    return b.ops


def warmup_ops(work: Path) -> list[Op]:
    """A fixed, seed-independent operation per command, run untimed during
    set-up so that every code path is imported and exercised once."""
    b = Builder(work, "warm-up")
    rng = random.Random("warm-up")
    vec = mixture(rng, 3, 2, all_pairs(3))
    path = b.file(".vec", vec_text(vec))
    b.add("membership", ["vector", path, "membership"],
          partial(checks.check_membership, vec=vec, expect_feasible=True))
    gap = _vec(3, {i: Fraction(1, 2) for i in (1, 2, 3)},
               {pair: Fraction(1, 8) for pair in all_pairs(3)})
    path = b.file(".vec", vec_text(gap))
    b.add("decompose", ["vector", path, "decompose"],
          partial(checks.check_decompose, vec=gap))
    header = ["A", "B", "C"]
    rows = table(rng, header)
    path = b.file(".tbl", table_text(header, rows))
    p, q, r, marginal = checks.table_triple(header, rows, "A", "B", "C", "exclude-unknown")
    b.add("estimate", ["estimate", path, "A", "B", "C"],
          partial(checks.check_triple, p=p, q=q, r=r, marginal=marginal))
    b.add("mix", ["mix", path, path, "--alpha", "1/2"],
          partial(checks.check_triple, p=p, q=q, r=r, marginal=None,
                  extra={"alpha": "1/2"}))
    third = Fraction(1, 3)
    b.add("check", ["check", "1/4", "1/4", "1/2"],
          partial(checks.check_triple, p=Fraction(1, 4), q=Fraction(1, 4),
                  r=Fraction(1, 2), marginal=None))
    b.add("realize", ["realize", "1/4", "1/4", "1/2"],
          partial(checks.check_realize, p=Fraction(1, 4), q=Fraction(1, 4), r=Fraction(1, 2)))
    b.add("smooth", ["smooth", "1/3", "1/3", "1/3", "--alpha", "0", "--beta", "0",
                     "--gamma", "0"],
          partial(checks.check_triple, p=third, q=third, r=third, marginal=None))
    docs = {"d1": {"t1", "t2"}, "d2": {"t1", "t2"}, "d3": {"u"}, "d4": {"u"}}
    queries = [("q1", {"d1", "d2"})]
    docs_path = b.file(".docs", "".join(f"{d} {' '.join(sorted(t))}\n" for d, t in docs.items()))
    qrels_path = b.file(".qrels", "q1 d1\nq1 d2\n")
    b.add("survey", ["survey", docs_path, qrels_path],
          partial(checks.check_survey, n_docs=len(docs),
                  expected_rows=checks.survey_rows(docs, queries)))
    return b.ops
