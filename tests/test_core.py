import re
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evspace import core
from evspace.core import (CondTriple, CorrelationVector, EventTable, FormatError,
                          Ternary, parse_correlation_vector, parse_event_table,
                          serialize_correlation_vector, serialize_event_table)
from evspace.estimation import smooth_triple

FIG1 = """
# comment line
A,B,C
1,1,1 x1
1,1,0 x1
1,0,1 x0
1,0,0 x3
0,1,1 x3
0,1,0 x0
0,0,1 x1
0,0,0 x1
"""


class TestRationalParsing:
    def test_fraction_literal(self):
        assert core.parse_rational("3/5") == F(3, 5)
        assert core.parse_rational(" 007/014 ") == F(1, 2)
        assert core.parse_rational("+1/2") == F(1, 2)

    def test_decimal_is_exact(self):
        assert core.parse_prob("0.25") == F(1, 4)
        assert core.parse_prob("0.1") == F(1, 10)
        assert core.parse_prob(".5") == F(1, 2)
        assert core.parse_prob("1.") == core.parse_prob("1") == F(1)
        assert core.parse_rational("-0.5") == F(-1, 2)

    def test_garbage(self):
        with pytest.raises(FormatError):
            core.parse_rational("one half")

    def test_range_check(self):
        for text in ("7/5", "2", "-1/2"):
            with pytest.raises(FormatError, match="probability out of range"):
                core.parse_prob(text)

    @pytest.mark.parametrize("text", ["2E0", "0.5e1", "1e-3", "1/2e1"])
    def test_exponent_refused(self, text):
        with pytest.raises(FormatError, match=f"not a rational literal: '{text}'"):
            core.parse_rational(text)

    @pytest.mark.parametrize("text", [
        "1_0/2_0", "0.2_5", "1_000",  # digit-group underscores
        "\u0663/\u0664", "\u0661", "\uff11/\uff12", "\u00bd",  # non-ASCII digits
        "1/0", "1 / 2", "1/2/3", "1.2.3", ".", "+", "", "0x1", "inf", "nan",
    ])
    def test_grammar_refuses(self, text):
        with pytest.raises(FormatError, match="not a rational literal"):
            core.parse_rational(text)


class TestEventTable:
    def test_fig1_shape(self):
        table = parse_event_table(FIG1)
        assert table.observables == ("A", "B", "C")
        assert table.total == 10
        # the two x0 rows are normalized away
        assert len(table.rows) == 6

    def test_empty_is_error(self):
        with pytest.raises(FormatError, match="empty table"):
            parse_event_table("A,B,C\n")

    def test_unknown_cells(self):
        table = parse_event_table("A,B\n?,1\n0,?\n1,1 x2")
        unknown = sum(
            count for cells, count in table.rows if Ternary.UNKNOWN in cells)
        assert unknown == 2

    def test_arity_mismatch(self):
        with pytest.raises(FormatError):
            parse_event_table("A,B\n1,0,1\n")

    def test_unknown_symbol(self):
        with pytest.raises(FormatError):
            parse_event_table("A,B\n1,2\n")

    def test_count_suffix_comma_form(self):
        table = parse_event_table("A\n1,x3\n0")
        assert table.total == 4

    @pytest.mark.parametrize("suffix", [" x\u0663", ",x\u0663", " x\uff13"])
    def test_count_is_ascii_digits(self, suffix):
        # a non-ASCII digit is no count, so the suffix stays in the last cell
        with pytest.raises(FormatError, match="unknown cell symbol"):
            parse_event_table(f"A,B,C\n1,1,1{suffix}\n")

    def test_roundtrip(self):
        table = parse_event_table(FIG1)
        again = parse_event_table(serialize_event_table(table))
        assert again == table

    @given(st.lists(
        st.tuples(st.tuples(*[st.sampled_from(list(Ternary))] * 3),
                  st.integers(1, 9)),
        min_size=1, max_size=12))
    def test_roundtrip_random(self, rows):
        table = EventTable(("A", "B", "C"), tuple(rows))
        assert parse_event_table(serialize_event_table(table)) == table

    @given(st.lists(
        st.tuples(st.tuples(*[st.sampled_from(list(Ternary))] * 3),
                  st.integers(1, 9)),
        min_size=1, max_size=12), st.data())
    def test_roundtrip_random_with_comments_and_spacing(self, rows, data):
        table = EventTable(("A", "B", "C"), tuple(rows))
        noise = st.sampled_from(["", "   ", "# note", "  # 1,0,? x2"])
        sep = st.sampled_from([",", " , ", ", ", "\t,"])
        header, *lines = serialize_event_table(table).splitlines()
        noisy = data.draw(st.lists(noise, max_size=2))
        noisy.append(" " + data.draw(sep).join(header.split(",")))
        for ln in lines:
            noisy += data.draw(st.lists(noise, max_size=2))
            cells, _, count = ln.partition(" x")
            if count or data.draw(st.booleans()):
                suffix = data.draw(st.sampled_from([" x", ",x", " , x", "\tx"]))
                count = suffix + (count or "1")
            noisy.append("  " + data.draw(sep).join(cells.split(",")) + count + " ")
        noisy += data.draw(st.lists(noise, max_size=2))
        assert parse_event_table("\n".join(noisy)) == table


class TestCondTriple:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            CondTriple(F(3, 2), F(0), F(0))

    def test_marginal_open_interval(self):
        with pytest.raises(ValueError, match=r"marginal 0 is outside \(0, 1\]"):
            CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=F(0))
        with pytest.raises(ValueError, match=r"marginal 3/2 is outside \(0, 1\]"):
            CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=F(3, 2))

    @pytest.mark.parametrize("value", [0.5, "1/2", Decimal("0.5")],
                             ids=["float", "str", "Decimal"])
    @pytest.mark.parametrize("build", [
        lambda x: CondTriple(x, F(1, 2), F(1, 2)),
        lambda x: CondTriple(F(1, 2), x, F(1, 2)),
        lambda x: CondTriple(F(1, 2), F(1, 2), x),
        lambda x: CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=x),
        lambda x: CorrelationVector(2, {(1,): x}),
        lambda x: CorrelationVector(2, {(1, 2): x}),
        lambda x: smooth_triple(CondTriple(F(1), F(1), F(1)),
                                CondTriple(F(0), F(0), F(0)), (F(0), x, F(0))),
    ], ids=["p", "q", "r", "marginal", "unary", "pairwise", "smooth-coefficient"])
    def test_only_ints_and_fractions_are_exact(self, build, value):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            build(value)

    def test_exact_values_are_kept(self):
        half = F(1, 2)
        t = CondTriple(half, 1, 0, marginal=half)
        assert t.p is half and t.marginal is half
        assert (t.q, t.r) == (F(1), F(0)) and type(t.q) is F

    def test_immutable(self):
        t = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(AttributeError):
            t.p = F(1)


class TestCorrelationVector:
    def test_parse(self):
        v = parse_correlation_vector("n=3\np1=1/2\np2=0.5\np3=1/2\np1,2=1/4\n")
        assert v.n == 3
        assert v.entries[(2,)] == F(1, 2)
        assert v.entries[(1, 2)] == F(1, 4)
        assert not v.is_complete

    def test_bad_pair_order(self):
        with pytest.raises(FormatError):
            parse_correlation_vector("n=2\np2,1=1/4\n")

    def test_roundtrip(self):
        text = "n=2\np1=1/2\np2=1/2\np1,2=3/5\n"
        v = parse_correlation_vector(text)
        assert serialize_correlation_vector(v) == text

    @given(st.data())
    def test_roundtrip_random(self, data):
        n = data.draw(st.integers(2, 6))
        value = st.fractions(0, 1, max_denominator=1000)
        present = st.booleans()
        events = range(1, n + 1)
        v = CorrelationVector(n, {key: data.draw(value) for size in (1, 2)
                                  for key in combinations(events, size)
                                  if data.draw(present)})
        text = serialize_correlation_vector(v)
        assert parse_correlation_vector(text) == v
        noisy = "# a vector\n\n" + "".join(
            f"  {key} = {val}\n# entry\n\n"
            for key, _, val in (ln.partition("=") for ln in text.splitlines()))
        assert parse_correlation_vector(noisy) == v

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            CorrelationVector(2, {(3,): F(1, 2)})

    def test_entries_are_stored_in_canonical_order(self):
        # unary entries by index, then the pairs in lexicographic order,
        # whatever the order they are given in
        keys = [(2, 3), (3,), (1, 3), (1,), (1, 2), (2,)]
        for order in (keys, keys[::-1]):
            v = CorrelationVector(3, dict.fromkeys(order, F(1, 4)))
            assert list(v.entries) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]

    def test_parse_serialize_roundtrip_in_canonical_order(self):
        text = "n=3\np2,3=1/8\np3=1/2\np1,3=1/8\np1=1/2\np2=1/2\n"
        v = parse_correlation_vector(text)
        canonical = "n=3\np1=1/2\np2=1/2\np3=1/2\np1,3=1/8\np2,3=1/8\n"
        assert serialize_correlation_vector(v) == canonical
        assert parse_correlation_vector(canonical) == v

    @pytest.mark.parametrize("key, message", [
        ((0,), "unary index 0 outside 1..3"),
        ((4,), "unary index 4 outside 1..3"),
        ((2, 1), "pairwise key (2,1) invalid for n=3"),
        ((1, 1), "pairwise key (1,1) invalid for n=3"),
        ((1, 4), "pairwise key (1,4) invalid for n=3"),
        ((), "entry key () is not (i,) or (i, j)"),
        ((1, 2, 3), "entry key (1, 2, 3) is not (i,) or (i, j)"),
    ])
    def test_bad_key_message(self, key, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CorrelationVector(3, {(1,): F(1, 2), key: F(1, 2)})

    # unary keys are checked first, then pair keys, each in input order
    @pytest.mark.parametrize("keys, message", [
        ([(2, 1), (4,)], "unary index 4 outside 1..3"),
        ([(4,), (2, 1)], "unary index 4 outside 1..3"),
        ([(5,), (4,)], "unary index 5 outside 1..3"),
        ([(3, 4), (2, 1)], "pairwise key (3,4) invalid for n=3"),
        ([(2, 1), (3, 4)], "pairwise key (2,1) invalid for n=3"),
    ])
    def test_first_bad_key_reported(self, keys, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CorrelationVector(3, dict.fromkeys(keys, F(1, 2)))
        text = "n=3\n" + "".join(f"p{','.join(map(str, key))}=1/2\n" for key in keys)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_correlation_vector(text)

    def test_bad_n_names_the_line(self):
        with pytest.raises(FormatError, match="bad n= line: 'n=abc'"):
            parse_correlation_vector("n=abc\np1=1/2\n")

    # n= and the indices are ASCII digits only: int() alone would read a
    # sign, digit-group underscores and non-ASCII digits
    @pytest.mark.parametrize("n", ["1_0", "+3", "-3", "\u0663", "\uff13"])
    def test_n_is_ascii_digits(self, n):
        with pytest.raises(FormatError, match=re.escape(f"bad n= line: 'n={n}'")):
            parse_correlation_vector(f"n={n}\np1=1/2\n")

    def test_n_allows_surrounding_whitespace(self):
        assert parse_correlation_vector("n= 3 \np1=1/2\n").n == 3

    @pytest.mark.parametrize("key", ["p\u0661", "p1,\u0662", "p\uff11", "p1,\uff12"])
    def test_indices_are_ascii_digits(self, key):
        with pytest.raises(FormatError, match=re.escape(f"bad key: '{key}'")):
            parse_correlation_vector(f"n=2\n{key}=1/2\n")

