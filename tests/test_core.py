from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evspace import core
from evspace.core import (CondTriple, CorrelationVector, EventTable, FormatError,
                          Ternary, parse_correlation_vector, parse_event_table,
                          prob, serialize_correlation_vector, serialize_event_table)

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


class TestProb:
    def test_basic_value(self):
        assert prob(13, 18) == F(13, 18)

    def test_zero(self):
        assert prob(0, 5) == F(0)

    def test_reduction(self):
        assert prob(4, 8) == F(1, 2)

    @pytest.mark.parametrize("num,den", [(-1, 2), (3, 2), (1, 0), (1, -4)])
    def test_out_of_range(self, num, den):
        with pytest.raises(ValueError):
            prob(num, den)

    @given(st.integers(1, 500), st.integers(0, 500), st.integers(1, 20))
    def test_reduction_canonical(self, den, num, k):
        num = num % (den + 1)
        assert prob(k * num, k * den) == prob(num, den)


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
        with pytest.raises(ValueError):
            CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=F(0))

    def test_immutable(self):
        t = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(AttributeError):
            t.p = F(1)


class TestCorrelationVector:
    def test_parse(self):
        v = parse_correlation_vector("n=3\np1=1/2\np2=0.5\np3=1/2\np1,2=1/4\n")
        assert v.n == 3
        assert v.unary[2] == F(1, 2)
        assert v.pairwise[(1, 2)] == F(1, 4)
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
        v = CorrelationVector(
            n, {i: data.draw(value) for i in range(1, n + 1) if data.draw(present)},
            {(i, j): data.draw(value) for i in range(1, n)
             for j in range(i + 1, n + 1) if data.draw(present)})
        text = serialize_correlation_vector(v)
        assert parse_correlation_vector(text) == v
        noisy = "# a vector\n\n" + "".join(
            f"  {key} = {val}\n# entry\n\n"
            for key, _, val in (ln.partition("=") for ln in text.splitlines()))
        assert parse_correlation_vector(noisy) == v

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            CorrelationVector(2, {3: F(1, 2)})

    def test_bad_n_names_the_line(self):
        with pytest.raises(FormatError, match="bad n= line: 'n=abc'"):
            parse_correlation_vector("n=abc\np1=1/2\n")

