import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evspace.admissibility import check_classical
from evspace.core import CondTriple, CorrelationVector
from evspace.pitowsky import (CapExceededError, RankingDecomposition, Witness,
                              _feasibility, _restrict, _verify_witness,
                              build_ranking_vector, closed_form_n3,
                              decompose, membership, vertex_vector,
                              violated_faces)

from conftest import rand_prob

probs = st.fractions(0, 1)


def complete_vector(n, unary, pairwise):
    keys = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return CorrelationVector(n, dict(enumerate(unary, 1)), dict(zip(keys, pairwise)))


class TestVertexVector:
    def test_mixed_bits(self):
        v = vertex_vector(2, 0b01)
        assert (v.unary[1], v.unary[2], v.pairwise[(1, 2)]) == (0, 1, 0)

    def test_all_ones(self):
        cv = vertex_vector(3, 0b111)
        assert set(cv.unary.values()) == {1} and set(cv.pairwise.values()) == {1}

    def test_all_zeros(self):
        cv = vertex_vector(3, 0b000)
        assert set(cv.unary.values()) == {0} and set(cv.pairwise.values()) == {0}

    def test_mask_out_of_range_rejected(self):
        for mask in (-1, 0b1000):
            with pytest.raises(ValueError, match="outside"):
                vertex_vector(3, mask)

    @given(st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_pairwise_is_min_of_bits(self, n_mask):
        v = vertex_vector(*n_mask)
        assert v.is_complete
        for i in range(1, v.n):
            for j in range(i + 1, v.n + 1):
                assert v.pairwise[(i, j)] == min(v.unary[i], v.unary[j])


class TestMembership:
    def test_n2_infeasible(self):
        cert = membership(complete_vector(2, [F(1, 2), F(1, 2)], [F(3, 5)]))
        assert not cert.feasible
        assert cert.witness is not None

    def test_n3_independent_uniform(self):
        v = complete_vector(3, [F(1, 2)] * 3, [F(1, 4)] * 3)
        assert membership(v).feasible
        # the uniform product measure is a valid certificate (the solver may
        # return a different vertex of the solution set)
        uniform = {format(k, "03b"): F(1, 8) for k in range(8)}
        for i in (1, 2, 3):
            assert sum(w for b, w in uniform.items() if b[i - 1] == "1") == v.unary[i]
        for (i, j), value in v.pairwise.items():
            assert sum(w for b, w in uniform.items()
                       if b[i - 1] == "1" and b[j - 1] == "1") == value

    def test_n3_eighth_infeasible(self):
        cert = membership(complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3))
        assert not cert.feasible
        assert not check_classical(CondTriple(F(1, 4), F(1, 4), F(1, 4)))

    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_vertices_feasible_with_singleton_weight(self, n_mask):
        # the vertex's mask is its LP column, so it is the one weight's key
        cert = membership(vertex_vector(*n_mask))
        assert cert.feasible and cert.weights == {n_mask[1]: F(1)}

    def test_partial_vector_existential(self):
        # only one pairwise entry observed; the missing ones are free
        v = CorrelationVector(3, {1: F(1, 2), 2: F(1, 2), 3: F(1, 2)},
                              {(1, 3): F(1, 2)})
        assert membership(v).feasible

    def test_cap(self):
        v = complete_vector(2, [F(1, 2), F(1, 2)], [F(1, 4)])
        with pytest.raises(CapExceededError):
            membership(v, max_n=1)

    def test_empty_vector(self):
        with pytest.raises(ValueError):
            membership(CorrelationVector(2, {}, {}))

    def test_convexity_of_feasible_mixtures(self, rng):
        for _ in range(50):
            certs = []
            vecs = []
            while len(vecs) < 2:
                v = complete_vector(2, [rand_prob(rng) for _ in range(2)],
                                    [rand_prob(rng)])
                c = membership(v)
                if c.feasible:
                    vecs.append(v)
                    certs.append(c)
            alpha = rand_prob(rng)
            mix = complete_vector(
                2,
                [alpha * vecs[0].unary[i] + (1 - alpha) * vecs[1].unary[i]
                 for i in (1, 2)],
                [alpha * vecs[0].pairwise[(1, 2)]
                 + (1 - alpha) * vecs[1].pairwise[(1, 2)]])
            assert membership(mix).feasible


def _verify_all_vertices(v, witness):
    """Reference check: evaluate the witness on every one of the 2^n vertices."""
    if witness.evaluate(v) <= 0:
        raise RuntimeError("witness does not separate the input")
    for k in range(1 << v.n):
        if witness.evaluate(vertex_vector(v.n, k)) > 0:
            raise RuntimeError("witness fails on a polytope vertex")


class TestVerifyWitness:
    def test_agrees_with_every_vertex_check(self, rng):
        # the LP's witnesses on random infeasible vectors, each also with one
        # coefficient moved by one, are checked both ways
        outcomes = []
        while len(outcomes) < 300:
            n = rng.randint(2, 5)
            pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            v = complete_vector(n, [rand_prob(rng, 4) for _ in range(n)],
                                [rand_prob(rng, 4) for _ in pairs])
            cert = membership(v)
            if cert.feasible:
                continue
            w = cert.witness
            # the key () is the constant
            key = rng.choice(list(w.coeffs))
            coeffs = dict(w.coeffs)
            coeffs[key] += rng.choice((-1, 1))
            for witness in (w, Witness(coeffs)):
                errors = []
                for check in (_verify_witness, _verify_all_vertices):
                    try:
                        check(v, witness)
                        errors.append(None)
                    except RuntimeError as exc:
                        errors.append(str(exc))
                assert errors[0] == errors[1], (v, witness)
                outcomes.append(errors[0])
        assert set(outcomes) == {None, "witness does not separate the input",
                                 "witness fails on a polytope vertex"}

    def test_violation_on_a_two_event_support_caught(self):
        # p1 - p1,2 is positive on v and on every vertex with bits 1, 2 = 1, 0
        v = complete_vector(4, [F(1, 2)] * 4, [F(1, 4)] * 6)
        witness = Witness({(1,): 1, (2,): 0, (3,): 0, (4,): 0,
                           (1, 2): -1, (1, 3): 0, (1, 4): 0,
                           (2, 3): 0, (2, 4): 0, (3, 4): 0, (): 0})
        with pytest.raises(RuntimeError, match="fails on a polytope vertex"):
            _verify_witness(v, witness)


class TestClosedForms:
    def test_n2_independent(self):
        assert violated_faces(complete_vector(2, [F(1, 2), F(1, 2)], [F(1, 4)])) == []

    def test_n2_violated(self):
        v = complete_vector(2, [F(1, 2), F(1, 2)], [F(3, 5)])
        assert violated_faces(v) == [(1, 2)]

    def test_n2_all_ones(self):
        assert violated_faces(complete_vector(2, [F(1), F(1)], [F(1)])) == []

    def test_n2_wrong_arity(self):
        with pytest.raises(ValueError):
            closed_form_n3(complete_vector(2, [F(1, 2)] * 2, [F(1, 4)]))

    def test_n3_feasible(self):
        assert closed_form_n3(complete_vector(3, [F(1, 2)] * 3, [F(1, 4)] * 3))

    def test_n3_first_row_violated(self):
        v = complete_vector(3, [F(1, 2)] * 3, [F(3, 5), F(1, 4), F(1, 4)])
        assert not closed_form_n3(v)

    def test_n3_gap_documented(self):
        # passes the displayed rows yet lies outside the polytope
        v = complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3)
        assert closed_form_n3(v)
        assert not membership(v).feasible

    def test_n2_agreement_randomized(self, rng):
        for _ in range(300):
            v = complete_vector(2, [rand_prob(rng), rand_prob(rng)],
                                [rand_prob(rng)])
            assert (violated_faces(v) == []) == membership(v).feasible

    def test_n3_pair_row_at_the_higher_index(self):
        # p2,3 = 1/6 > p3 = 0 breaks the pair row p2,3 <= p3
        v = complete_vector(3, [F(1, 6), F(1, 3), F(0)], [F(1, 6), F(0), F(1, 6)])
        assert not closed_form_n3(v)
        assert violated_faces(v) == [(2, 3)]

    def test_n3_necessity_randomized(self, rng):
        for _ in range(200):
            v = complete_vector(3, [rand_prob(rng) for _ in range(3)],
                                [rand_prob(rng) for _ in range(3)])
            if membership(v).feasible:
                assert closed_form_n3(v)


class TestProposition1Consistency:
    def induced(self, t: CondTriple) -> CorrelationVector:
        half = F(1, 2)
        return complete_vector(
            3, [half] * 3, [t.p * half, t.r * half, t.q * half])

    def test_randomized(self, rng):
        for _ in range(200):
            t = CondTriple(rand_prob(rng), rand_prob(rng), rand_prob(rng),
                           marginal=F(1, 2))
            assert check_classical(t) == membership(self.induced(t)).feasible


class TestBuildRankingVector:
    def test_single_doc_forced(self):
        v = build_ranking_vector([F(1, 2)], [F(1)], F(1, 2))
        assert v.unary == {1: F(1, 2), 2: F(1, 2)}
        assert v.pairwise == {(1, 2): F(1, 2)}

    def test_two_docs(self):
        v = build_ranking_vector([F(1, 2), F(1, 2)], [F(1, 4), F(1, 4)], F(1, 2))
        assert v.n == 3
        assert v.unary == {1: F(1, 2), 2: F(1, 2), 3: F(1, 2)}
        assert v.pairwise == {(1, 3): F(1, 8), (2, 3): F(1, 8)}

    def test_overshoot_permitted_then_rejected(self):
        v = build_ranking_vector([F(1, 4)], [F(1)], F(1, 2))
        assert v.pairwise[(1, 2)] == F(1, 2) > v.unary[1]
        assert not membership(v).feasible

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_ranking_vector([F(1, 2)], [], F(1, 2))


class TestDecompose:
    def test_feasible_single_subset(self):
        v = complete_vector(3, [F(1, 2)] * 3, [F(1, 4)] * 3)
        dec = decompose(v, relevance_index=3)
        assert len(dec.subsets) == 1
        assert dec.subsets[0][0] == (1, 2, 3)

    def test_infeasible_splits(self):
        v = complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3)
        dec = decompose(v, relevance_index=3)
        assert len(dec.subsets) >= 2
        assert dec.covered() == {1, 2, 3}
        assert all(cert.feasible for _, cert in dec.subsets)
        # relevance is kept in the first emitted (largest) subset
        assert 3 in dec.subsets[0][0]

    def test_deterministic(self):
        v = complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3)
        assert decompose(v, 3) == decompose(v, 3)

    def test_index_out_of_range(self):
        v = complete_vector(2, [F(1, 2), F(1, 2)], [F(1, 4)])
        with pytest.raises(ValueError):
            decompose(v, 5)

    def test_randomized_infeasible(self, rng):
        found = 0
        while found < 30:
            n = rng.randint(2, 5)
            v = complete_vector(
                n, [rand_prob(rng) for _ in range(n)],
                [rand_prob(rng) for _ in range(n * (n - 1) // 2)])
            if membership(v).feasible:
                continue
            found += 1
            dec = decompose(v, relevance_index=n)
            assert len(dec.subsets) >= 2
            assert dec.covered() == set(range(1, n + 1))
            assert all(cert.feasible for _, cert in dec.subsets)


@st.composite
def partial_vectors(draw, max_n=5):
    """Vectors over eighths with about a quarter of the entries absent."""
    n = draw(st.integers(2, max_n))
    value = st.builds(F, st.integers(0, 8), st.just(8))
    present = st.integers(0, 3).map(bool)
    unary = {i: draw(value) for i in range(1, n + 1) if draw(present)}
    pairwise = {(i, j): draw(value) for i in range(1, n)
                for j in range(i + 1, n + 1) if draw(present)}
    return CorrelationVector(n, unary, pairwise)


class TestViolatedFaces:
    @settings(max_examples=300, deadline=None)
    @given(partial_vectors())
    def test_every_face_is_infeasible_on_its_own(self, v):
        for face in violated_faces(v):
            assert len(face) in (2, 3) and list(face) == sorted(set(face))
            assert not membership(_restrict(v, face)).feasible, face

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_pair_and_triangle_rows_decide_three_events(self, n, data):
        # COR(2) is cut out by its 4 trivial facets, and COR(3) by its 12
        # trivial and 4 triangle facets
        size = n * (n + 1) // 2
        values = data.draw(st.lists(st.builds(F, st.integers(0, 8), st.just(8)),
                                    min_size=size, max_size=size))
        v = complete_vector(n, values[:n], values[n:])
        assert bool(violated_faces(v)) == (not membership(v).feasible)

    def test_absent_entries_are_not_screened(self):
        # p1,2 > p1 would break a pair row, but p2 is absent
        v = CorrelationVector(3, {1: F(1, 4), 3: F(1, 2)}, {(1, 2): F(1, 2)})
        assert violated_faces(v) == []
        v = CorrelationVector(2, {1: F(1, 4), 2: F(1, 2)}, {(1, 2): F(1, 2)})
        assert violated_faces(v) == [(1, 2)]


def reference_decompose(v, relevance_index, max_n=12):
    """decompose as it was before the facet screen: every subset tried is
    decided by _feasibility."""
    subsets = []

    def split(events):
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
                    split(combo)
                    return
        raise RuntimeError("decomposition failed to terminate on singletons")

    split(tuple(range(1, v.n + 1)))
    return RankingDecomposition(tuple(subsets))


def test_screened_decompose_equals_the_unscreened_one(rng):
    # no violated face, yet infeasible: p1+p2+p3+p4 - (sum of p_ij) = 27/25 > 1,
    # so the LP still decides the full set; event 5 is independent of the rest
    four = complete_vector(4, [F(9, 20)] * 4, [F(3, 25)] * 6)
    five = CorrelationVector(5, {**four.unary, 5: F(1, 2)},
                             {**four.pairwise, **{(i, 5): F(9, 40) for i in range(1, 5)}})
    vectors = [four, five]
    while len(vectors) < 42:
        m = rng.randint(1, 5)
        v = build_ranking_vector([rand_prob(rng) for _ in range(m)],
                                 [rand_prob(rng) for _ in range(m)], rand_prob(rng))
        if not membership(v).feasible:
            vectors.append(v)
    while len(vectors) < 72:
        n = rng.randint(2, 6)
        v = complete_vector(n, [rand_prob(rng) for _ in range(n)],
                            [rand_prob(rng) for _ in range(n * (n - 1) // 2)])
        if not membership(v).feasible:
            vectors.append(v)
    assert violated_faces(four) == violated_faces(five) == []
    assert not membership(four).feasible and not membership(five).feasible
    for v in vectors:
        assert decompose(v, v.n) == reference_decompose(v, v.n), v
