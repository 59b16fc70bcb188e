"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""

import functools
import random
from fractions import Fraction as F
from itertools import combinations

from evspace.admissibility import classify
from evspace.cli import main
from evspace.core import CondTriple, CorrelationVector, Ternary
from evspace.estimation import (MissingStrategy, ZeroConditioningError,
                                broker_mix, estimate_triple, smooth_triple)
from evspace.pitowsky import (closed_form_n3, decompose, membership,
                              vertex_vector, violated_faces)
from evspace.quantum import Field, amplitude_prob, realize

from conftest import complete_vector, lp_feasible, rand_prob
from test_estimation import fixture, random_equal_marginal_table
from evspace.core import parse_event_table


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL  {title}")
                raise
            print(f"criterion {number:02d} PASS  {title}")
        return wrapper
    return decorate


@criterion(1, "Table-of-samples reproduction (exact)")
def test_criterion_1_table_reproduction():
    # columns (Pr(B|C), Pr(B|A), Pr(C|A)) map onto (q, p, r)
    cases = [
        ((F(1), F(1), F(1)), (True, True, True)),
        ((F(1, 4), F(1, 4), F(1, 2)), (True, False, True)),
        ((F(1, 4), F(1, 4), F(1, 4)), (False, True, True)),
        ((F(1, 12), F(1, 12), F(1, 12)), (False, False, False)),
    ]
    for (q, p, r), expected in cases:
        v = classify(CondTriple(p, q, r))
        assert (v.classical, v.real_qs, v.complex_qs) == expected, (q, p, r)


@criterion(2, "smoothing pathology (exact)")
def test_criterion_2_smoothing():
    out = smooth_triple(CondTriple(F(3, 4), F(1, 4), F(9, 15)),
                        CondTriple(F(1, 2), F(1, 2), F(1, 2)),
                        (F(1, 9), F(1, 9), F(2, 17)))
    assert (out.p, out.q, out.r) == (F(13, 18), F(5, 18), F(10, 17))
    assert not classify(out).classical


def table_vector(table, names):
    """The n-event correlation vector of a fully observed table: each
    observable's and each pair's relative frequency over all rows."""
    cols = [table.column(name) for name in names]
    assert all(cells[c] is not Ternary.UNKNOWN
               for cells, _ in table.rows for c in cols)

    def freq(*idx):
        return F(sum(count for cells, count in table.rows
                     if all(cells[cols[i]] is Ternary.PRESENT for i in idx)),
                 table.total)

    n = len(names)
    return CorrelationVector(n, {
        tuple(i + 1 for i in idx): freq(*idx)
        for size in (1, 2) for idx in combinations(range(n), size)})


@criterion(3, "broker pathology (exact)")
def test_criterion_3_broker():
    triples = []
    for name, expected in (("s1.tbl", (F(2, 5), F(1, 5), F(2, 5))),
                           ("s2.tbl", (F(2, 5), F(1, 5), F(1, 5)))):
        table = parse_event_table(fixture(name))
        t = estimate_triple(table, "A", "B", "C")
        assert (t.p, t.q, t.r) == expected, name
        # each collection is the frequency measure of one table, so it
        # admits a single event space: its own vector is in the polytope
        v = table_vector(table, ("A", "B", "C"))
        cert = membership(v)
        assert cert.feasible, name
        _check_certificate(v, cert)
        triples.append(t)
    s1, s2 = triples
    mixed = broker_mix([s1, s2], [F(1, 2), F(1, 2)])
    assert (mixed.p, mixed.q, mixed.r) == (F(4, 10), F(2, 10), F(3, 10))
    assert not classify(mixed).classical
    assert classify(s1).classical
    # S2's marginals are (1/2, 1/2, 3/10), so the equal-marginals premise of
    # the inequality fails: |p+q-1| = 2/5 > r = 1/5 is arithmetic, not a
    # verdict on S2, whose single event space is the certificate above
    assert not classify(s2).classical
    assert classify(s2).symmetry_checked is False


@criterion(4, "missing values (exact)")
def test_criterion_4_missing_values():
    table = parse_event_table(fixture("fig3.tbl"))
    t = estimate_triple(table, "A", "B", "C", MissingStrategy.EXCLUDE_UNKNOWN)
    assert (t.p, t.q, t.r) == (F(2, 5), F(4, 5), F(1, 5))
    verdict = classify(t)
    assert verdict.classical and verdict.boundary
    pinned = CondTriple(F(2, 5), F(5, 6), F(1, 6))
    assert not classify(pinned).classical


@criterion(5, "neither-space instance")
def test_criterion_5_neither_space():
    t = CondTriple(F(1, 10), F(2, 10), F(3, 10))
    verdict = classify(t)
    assert not verdict.classical
    assert not verdict.complex_qs


@criterion(6, "polytope oracle equivalence (1000+1000 randomized, exact)")
def test_criterion_6_oracle_equivalence():
    rng = random.Random(6)
    for _ in range(1000):
        v = complete_vector(2, [rand_prob(rng), rand_prob(rng)], [rand_prob(rng)])
        cert = membership(v)
        assert (violated_faces(v) == []) == cert.feasible == lp_feasible(v)
        _check_certificate(v, cert)
    half = F(1, 2)
    for _ in range(1000):
        t = CondTriple(rand_prob(rng), rand_prob(rng), rand_prob(rng),
                       marginal=half)
        v = complete_vector(3, [half] * 3, [t.p * half, t.r * half, t.q * half])
        cert = membership(v)
        assert classify(t).classical == cert.feasible
        _check_certificate(v, cert)


def _check_certificate(v, cert):
    # criterion 8: re-substitution / strict separation, checked independently
    if cert.feasible:
        weights = {format(k, f"0{cert.n}b"): w for k, w in cert.weights.items()}
        assert all(w >= 0 for w in weights.values())
        assert sum(weights.values()) == 1
        for events, value in v.entries.items():
            assert sum(w for b, w in weights.items()
                       if all(b[i - 1] == "1" for i in events)) == value
    else:
        assert cert.witness.evaluate(v) > 0
        for k in range(2 ** v.n):
            assert cert.witness.evaluate(vertex_vector(v.n, k)) <= 0


@criterion(7, "necessity gap at n=3 with verifiable witness")
def test_criterion_7_necessity_gap():
    v = complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3)
    assert closed_form_n3(v)
    cert = membership(v)
    assert not cert.feasible
    _check_certificate(v, cert)


@criterion(8, "certificate soundness on randomized cases")
def test_criterion_8_certificate_soundness():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 4)
        v = complete_vector(n, [rand_prob(rng) for _ in range(n)],
                            [rand_prob(rng) for _ in range(n * (n - 1) // 2)])
        _check_certificate(v, membership(v))


@criterion(9, "quantum round-trip within 1e-12 (1000 randomized)")
def test_criterion_9_quantum_roundtrip():
    rng = random.Random(9)
    checked = 0
    while checked < 1000:
        t = CondTriple(rand_prob(rng, 30), rand_prob(rng, 30), rand_prob(rng, 30))
        if not classify(t).complex_qs:
            continue
        checked += 1
        real = realize(t)
        assert abs(amplitude_prob(real.a, real.b) - float(t.p)) <= 1e-12
        assert abs(amplitude_prob(real.b, real.c) - float(t.q)) <= 1e-12
        assert abs(amplitude_prob(real.a, real.c) - float(t.r)) <= 1e-12
        assert (real.field is Field.REAL) == classify(t).real_qs


@criterion(10, "decomposition of infeasible vectors (100 randomized, n<=6)")
def test_criterion_10_decomposition():
    rng = random.Random(10)
    found = 0
    while found < 100:
        n = rng.randint(2, 6)
        v = complete_vector(n, [rand_prob(rng) for _ in range(n)],
                            [rand_prob(rng) for _ in range(n * (n - 1) // 2)])
        if membership(v).feasible:
            continue
        found += 1
        dec = decompose(v, relevance_index=n)
        assert len(dec.subsets) >= 2
        assert dec.covered() == set(range(1, n + 1))
        assert all(cert.feasible for _, cert in dec.subsets)


@criterion(11, "classical soundness of equal-marginal tables (1000 randomized)")
def test_criterion_11_classical_soundness():
    # NOTE: equal marginals alone do not imply the inequality (counterexample
    # in test_estimation); the sound premise pins the common marginal to 1/2,
    # so the generator does too.
    rng = random.Random(11)
    done = 0
    while done < 1000:
        table = random_equal_marginal_table(rng, half=True)
        try:
            t = estimate_triple(table, "A", "B", "C")
        except ZeroConditioningError:
            continue
        done += 1
        assert t.marginal == F(1, 2)
        assert classify(t).classical, (table.rows, t)


@criterion(12, "reproduce exits 0 on a fresh checkout")
def test_criterion_12_reproduce(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
