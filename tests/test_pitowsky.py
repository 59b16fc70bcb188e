from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evspace import pitowsky
from evspace.admissibility import classify
from evspace.core import CondTriple, CorrelationVector
from evspace.pitowsky import (CapExceededError, RankingDecomposition, Witness,
                              _facets, _feasibility, _normalize_witness,
                              _restrict, _verify_witness, build_ranking_vector,
                              closed_form_n3, decompose, membership,
                              vertex_vector, violated_faces)

from conftest import complete_vector, lp, lp_feasible, rand_prob

probs = st.fractions(0, 1)


class TestVertexVector:
    def test_mixed_bits(self):
        v = vertex_vector(2, 0b01)
        assert v.entries == {(1,): 0, (2,): 1, (1, 2): 0}

    def test_all_ones(self):
        cv = vertex_vector(3, 0b111)
        assert cv.is_complete and set(cv.entries.values()) == {1}

    def test_all_zeros(self):
        cv = vertex_vector(3, 0b000)
        assert cv.is_complete and set(cv.entries.values()) == {0}

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
                assert v.entries[(i, j)] == min(v.entries[(i,)], v.entries[(j,)])


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
        for events, value in v.entries.items():
            assert sum(w for b, w in uniform.items()
                       if all(b[i - 1] == "1" for i in events)) == value

    def test_n3_eighth_infeasible(self):
        cert = membership(complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3))
        assert not cert.feasible
        assert not classify(CondTriple(F(1, 4), F(1, 4), F(1, 4))).classical

    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_vertices_feasible_with_singleton_weight(self, n_mask):
        # the vertex's mask is its LP column, so it is the one weight's key
        cert = membership(vertex_vector(*n_mask))
        assert cert.feasible and cert.weights == {n_mask[1]: F(1)}

    def test_partial_vector_existential(self):
        # only one pairwise entry observed; the missing ones are free
        v = CorrelationVector(3, {(1,): F(1, 2), (2,): F(1, 2), (3,): F(1, 2),
                                  (1, 3): F(1, 2)})
        assert membership(v).feasible

    def test_cap(self):
        v = complete_vector(2, [F(1, 2), F(1, 2)], [F(1, 4)])
        with pytest.raises(CapExceededError):
            membership(v, max_n=1)

    def test_empty_vector(self):
        with pytest.raises(ValueError):
            membership(CorrelationVector(2, {}))

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
            mix = CorrelationVector(2, {
                key: alpha * vecs[0].entries[key] + (1 - alpha) * vecs[1].entries[key]
                for key in vecs[0].entries})
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
        # membership's facet witness and the LP's Farkas witness on random
        # infeasible vectors, each also with one coefficient moved by one,
        # are checked both ways
        outcomes = []
        while len(outcomes) < 600:
            n = rng.randint(2, 5)
            pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            v = complete_vector(n, [rand_prob(rng, 4) for _ in range(n)],
                                [rand_prob(rng, 4) for _ in pairs])
            rows, x, y = lp(v)
            if x is not None:
                continue
            witnesses = [membership(v).witness, _normalize_witness(rows, y)]
            for w in list(witnesses):
                # the key () is the constant
                key = rng.choice(list(w.coeffs))
                coeffs = dict(w.coeffs)
                coeffs[key] += rng.choice((-1, 1))
                witnesses.append(Witness(coeffs))
            for witness in witnesses:
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
            assert (violated_faces(v) == []) == membership(v).feasible == lp_feasible(v)

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


def table(n):
    """The rows of ``_facets`` on n = 2 or 3 events: the pair rows of each
    pair, then, at n = 3, the triangle rows."""
    events = range(1, n + 1)
    faces = [*combinations(events, 2), *combinations(events, 3)]
    return [row for face in faces for row in _facets(face)]


def affine_rank(points):
    """The affine rank of rational points: the rank of the points, each with a
    1 appended, by Gaussian elimination."""
    rows = [[F(x) for x in point] + [F(1)] for point in points]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestFacets:
    def test_three_events_give_the_16_facets_of_cut_k4(self):
        rows = table(3)
        assert len({frozenset(row.items()) for row in rows}) == len(rows) == 16

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_row_is_a_facet(self, n):
        # a row keyed like Witness.coeffs evaluates as one; it is a facet of
        # the n(n+1)/2-dimensional polytope iff that many affinely
        # independent vertices are tight on it
        vertices = [vertex_vector(n, mask) for mask in range(1 << n)]
        for row in table(n):
            values = [Witness(row).evaluate(vertex) for vertex in vertices]
            assert max(values) <= 0, row
            tight = [list(vertex.entries.values())
                     for vertex, value in zip(vertices, values) if value == 0]
            assert affine_rank(tight) == n * (n + 1) // 2, row


class TestProposition1Consistency:
    def induced(self, t: CondTriple) -> CorrelationVector:
        half = F(1, 2)
        return complete_vector(
            3, [half] * 3, [t.p * half, t.r * half, t.q * half])

    def test_randomized(self, rng):
        for _ in range(200):
            t = CondTriple(rand_prob(rng), rand_prob(rng), rand_prob(rng),
                           marginal=F(1, 2))
            assert classify(t).classical == membership(self.induced(t)).feasible


class TestBuildRankingVector:
    def test_single_doc_forced(self):
        v = build_ranking_vector([F(1, 2)], [F(1)], F(1, 2))
        assert v.entries == {(1,): F(1, 2), (2,): F(1, 2), (1, 2): F(1, 2)}

    def test_two_docs(self):
        v = build_ranking_vector([F(1, 2), F(1, 2)], [F(1, 4), F(1, 4)], F(1, 2))
        assert v.n == 3
        assert v.entries == {(1,): F(1, 2), (2,): F(1, 2), (3,): F(1, 2),
                             (1, 3): F(1, 8), (2, 3): F(1, 8)}

    def test_overshoot_permitted_then_rejected(self):
        v = build_ranking_vector([F(1, 4)], [F(1)], F(1, 2))
        assert v.entries[(1, 2)] == F(1, 2) > v.entries[(1,)]
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
    events = range(1, n + 1)
    return CorrelationVector(n, {key: draw(value) for size in (1, 2)
                                 for key in combinations(events, size) if draw(present)})


class TestViolatedFaces:
    @settings(max_examples=300, deadline=None)
    @given(partial_vectors())
    def test_every_face_is_infeasible_on_its_own(self, v):
        for face in violated_faces(v):
            assert len(face) in (2, 3) and list(face) == sorted(set(face))
            assert not lp_feasible(_restrict(v, face)), face

    @settings(max_examples=300, deadline=None)
    @given(partial_vectors())
    # breaks only the sum row, with event 4's entries absent
    @example(CorrelationVector(4, {**dict.fromkeys([(1,), (2,), (3,)], F(1, 2)),
                                   **dict.fromkeys(combinations((1, 2, 3), 2), F(1, 8))}))
    def test_every_infeasible_pair_and_triple_is_listed(self, v):
        faces = violated_faces(v)

        def present(face):
            return all(key in v.entries
                       for size in (1, 2) for key in combinations(face, size))

        def infeasible(face):
            return not lp_feasible(_restrict(v, face))

        for pair in filter(present, combinations(range(1, v.n + 1), 2)):
            assert (pair in faces) == infeasible(pair), pair
        # a triple holding a listed pair is infeasible whatever its own rows
        # say, so it is listed only if one of them breaks
        for triple in filter(present, combinations(range(1, v.n + 1), 3)):
            if not any(pair in faces for pair in combinations(triple, 2)):
                assert (triple in faces) == infeasible(triple), triple

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([3, 6]).flatmap(lambda size: st.lists(
        st.builds(F, st.integers(0, 8), st.just(8)), min_size=size, max_size=size)))
    # breaks only the sum row p1 + p2 + p3 - p1,2 - p1,3 - p2,3 <= 1
    @example([F(1, 2)] * 3 + [F(1, 8)] * 3)
    def test_pair_and_triangle_rows_decide_three_events(self, values):
        # COR(2) is cut out by its 4 trivial facets, and COR(3) by its 12
        # trivial and 4 triangle facets; 3 values make n = 2 and 6 make n = 3
        n = 2 if len(values) == 3 else 3
        v = complete_vector(n, values[:n], values[n:])
        assert bool(violated_faces(v)) == (not lp_feasible(v))

    def test_absent_entries_are_not_screened(self):
        # p1,2 > p1 would break a pair row, but p2 is absent
        v = CorrelationVector(3, {(1,): F(1, 4), (3,): F(1, 2), (1, 2): F(1, 2)})
        assert violated_faces(v) == []
        v = CorrelationVector(2, {(1,): F(1, 4), (2,): F(1, 2), (1, 2): F(1, 2)})
        assert violated_faces(v) == [(1, 2)]


@st.composite
def complete_vectors(draw, max_n=5):
    """Complete vectors over eighths."""
    n = draw(st.integers(2, max_n))
    values = draw(st.lists(st.builds(F, st.integers(0, 8), st.just(8)),
                           min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    return complete_vector(n, values[:n], values[n:])


# breaks no pair or triangle row, yet p1+p2+p3+p4 - (sum of p_ij) = 27/25 > 1
NO_FACE_INFEASIBLE = complete_vector(4, [F(9, 20)] * 4, [F(3, 25)] * 6)


class TestFacetScreen:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(partial_vectors(), complete_vectors()))
    @example(NO_FACE_INFEASIBLE)
    @example(complete_vector(3, [F(1, 2)] * 3, [F(1, 4)] * 3))
    def test_verdict_equals_the_lps(self, v):
        assume(v.entries)
        assert membership(v).feasible == lp_feasible(v)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(partial_vectors(), complete_vectors()))
    def test_witness_is_the_first_broken_row_of_the_first_face(self, v):
        faces = violated_faces(v)
        assume(faces)
        witness = membership(v).witness
        assert list(witness.coeffs) == [*v.entries, ()]
        support = {events: c for events, c in witness.coeffs.items() if c}
        assert all(set(events) <= set(faces[0]) for events in support)
        # each row is evaluated here in Fractions, not over _scaled's integers
        broken = [row for row in _facets(faces[0]) if Witness(row).evaluate(v) > 0]
        assert support == broken[0]

    def test_no_lp_is_built_for_a_vector_with_a_face(self, monkeypatch):
        def refuse(rows, rhs):
            raise AssertionError("LP built")

        monkeypatch.setattr(pitowsky, "solve_feasibility", refuse)
        for v in (complete_vector(2, [F(1, 2)] * 2, [F(3, 5)]),
                  complete_vector(3, [F(1, 2)] * 3, [F(1, 8)] * 3),
                  build_ranking_vector([F(1, 4)], [F(1)], F(1, 2))):
            cert = membership(v)
            assert not cert.feasible and cert.witness.evaluate(v) > 0
        with pytest.raises(AssertionError, match="LP built"):
            membership(NO_FACE_INFEASIBLE)


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
    # the LP still decides the full set of NO_FACE_INFEASIBLE; event 5 is
    # independent of the rest
    four = NO_FACE_INFEASIBLE
    five = CorrelationVector(5, {**four.entries, (5,): F(1, 2),
                                 **{(i, 5): F(9, 40) for i in range(1, 5)}})
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
