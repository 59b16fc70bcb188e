import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from evspace import cli, estimation, pitowsky
from evspace.cli import Report, main


def fixture_path(name):
    return str(resources.files("evspace.fixtures").joinpath(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_dict(text):
    return dict(Report.parse(text).fields)


# the verdict fields of (p, q, r) = (13/18, 5/18, 10/17), the smoothing
# pathology, up to symmetry_checked, which depends on the marginal
PATHOLOGY_VERDICT = (
    "classical: no\n"
    "real_qs: no\n"
    "complex_qs: yes\n"
    "classical_lower: 0\n"
    "classical_upper: 5/9\n"
    "complex_lower: 0\n"
    "complex_upper: 0.802469135802469\n"
    "boundary: no\n")


class TestCheck:
    def test_pathological_triple(self, capsys):
        code, out, _ = run(capsys, "check", "13/18", "5/18", "10/17")
        fields = report_dict(out)
        assert code == 0  # violations are results, not failures
        assert fields["classical"] == "no"
        assert fields["complex_qs"] == "yes"
        assert fields["classical_upper"] == "5/9"

    def test_all_yes(self, capsys):
        code, out, _ = run(capsys, "check", "1", "1", "1")
        fields = report_dict(out)
        assert code == 0
        assert (fields["classical"], fields["real_qs"], fields["complex_qs"]) == (
            "yes", "yes", "yes")

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "2", "5", "7")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("literal", ["1e-3", "1e-30000000"])
    def test_exponent_literal_exits_2_at_once(self, capsys, literal):
        # Fraction would spend about a minute expanding 1e-30000000
        start = time.perf_counter()
        code, out, err = run(capsys, "check", literal, "1/2", "1/2")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: not a rational literal: '{literal}'\n"

    @pytest.mark.parametrize("literal", ["1_0/2_0", "\u0663/\u0664", "\uff11/\uff12"])
    def test_literal_outside_grammar_exits_2(self, capsys, literal):
        # digit-group underscores, Arabic-Indic and fullwidth digits
        code, out, err = run(capsys, "check", literal, "1/2", "1/2")
        assert (code, out) == (2, "")
        assert err == f"error: not a rational literal: {literal!r}\n"

    def test_float_flag(self, capsys):
        _, out, _ = run(capsys, "--float", "check", "1/2", "1/2", "1/2")
        assert report_dict(out)["p"] == "0.5"

    def test_marginal_golden(self, capsys):
        code, out, err = run(capsys, "check", "13/18", "5/18", "10/17",
                             "--marginal", "1/2")
        assert (code, err) == (0, "")
        assert out == ("p: 13/18\nq: 5/18\nr: 10/17\nmarginal: 1/2\n"
                       + PATHOLOGY_VERDICT + "symmetry_checked: yes\n")

    def test_symmetry_warning(self, capsys):
        _, out, _ = run(capsys, "check", "1/2", "1/2", "1/2")
        assert "warning" in report_dict(out)
        _, out, _ = run(capsys, "check", "1/2", "1/2", "1/2", "--marginal", "1/2")
        assert "warning" not in report_dict(out)


class TestVector:
    def test_membership_infeasible(self, capsys):
        code, out, _ = run(capsys, "vector", fixture_path("vec_n2_infeasible.vec"),
                           "membership")
        fields = report_dict(out)
        assert code == 0
        assert fields["feasible"] == "no"
        assert "witness: -1·p1 + 0·p2 + 1·p1,2 + 0 > 0\n" in out

    def test_membership_golden(self, capsys):
        code, out, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "membership")
        assert code == 0
        assert out == (
            "n: 3\n"
            "feasible: no\n"
            "witness: 1·p1 + 1·p2 + 1·p3 + -1·p1,2 + -1·p1,3 + -1·p2,3 + -1 > 0\n")

    def test_lp_witness_golden(self, tmp_path, capsys):
        # breaks no pair or triangle row, so the LP's Farkas vector is the
        # witness: p1 + p2 + p3 + p4 - (sum of p_ij) = 27/25 > 1
        vec = tmp_path / "v.vec"
        vec.write_text("n=4\n" + "".join(f"p{i}=9/20\n" for i in range(1, 5))
                       + "".join(f"p{i},{j}=3/25\n"
                                 for i in range(1, 5) for j in range(i + 1, 5)))
        code, out, err = run(capsys, "vector", str(vec), "membership")
        assert (code, err) == (0, "")
        assert out == (
            "n: 4\n"
            "feasible: no\n"
            "witness: 1·p1 + 1·p2 + 1·p3 + 1·p4 + -1·p1,2 + -1·p1,3 + -1·p1,4"
            " + -1·p2,3 + -1·p2,4 + -1·p3,4 + -1 > 0\n")

    def test_decompose_reaches_a_subset_with_no_entries(self, tmp_path, capsys):
        # leaving event 1 out leaves {2, 3}, which holds no entry
        vec = tmp_path / "v.vec"
        vec.write_text("n=3\np1=0\np1,2=1\n")
        code, out, err = run(capsys, "vector", str(vec), "decompose", "--relevance", "2")
        assert (code, err) == (0, "")
        assert out == (
            "n: 3\n"
            "subsets: 2\n"
            "subset.1.events: 2,3\n"
            "subset.1.weight.00: 1\n"
            "subset.2.events: 1\n"
            "subset.2.weight.00: 1\n")

    def test_decompose_golden(self, capsys):
        code, out, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "decompose")
        assert code == 0
        assert out == (
            "n: 3\n"
            "subsets: 2\n"
            "subset.1.events: 2,3\n"
            "subset.1.weight.00: 1/8\n"
            "subset.1.weight.01: 3/8\n"
            "subset.1.weight.10: 3/8\n"
            "subset.1.weight.11: 1/8\n"
            "subset.2.events: 1\n"
            "subset.2.weight.00: 1/2\n"
            "subset.2.weight.10: 1/2\n")

    def test_one_parse_and_no_singleton_lp(self, capsys, monkeypatch):
        calls = {"parse": 0, "lp": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cli, "parse_correlation_vector",
                            counting("parse", cli.parse_correlation_vector))
        monkeypatch.setattr(pitowsky, "solve_feasibility",
                            counting("lp", pitowsky.solve_feasibility))
        code, _, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                         "decompose")
        assert code == 0
        # only {2, 3} needs an LP: the full set breaks the triangle row
        # p1 + p2 + p3 - p1,2 - p1,3 - p2,3 <= 1 (3/2 - 3/8 > 1), and the
        # singleton {1} is feasible by construction
        assert calls == {"parse": 1, "lp": 1}

    def test_relevance_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                             "decompose", "--relevance", "0")
        assert code == 2
        assert out == ""
        assert err == "error: relevance index 0 outside 1..3\n"

    @pytest.mark.parametrize("relevance", ["1", "9"])
    def test_relevance_under_membership_exits_2(self, capsys, relevance):
        code, out, err = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                             "membership", "--relevance", relevance)
        assert code == 2
        assert out == ""
        assert err == "error: --relevance applies only to decompose\n"

    # "x" was refused before the digits rule; the others were read as 3
    @pytest.mark.parametrize("relevance", ["x", "\u0663", "\uff13", "0_3", "+3"])
    def test_relevance_is_ascii_digits(self, capsys, relevance):
        with pytest.raises(SystemExit) as exc:
            main(["vector", fixture_path("vec_n3_gap.vec"), "decompose",
                  "--relevance", relevance])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(
            f"error: argument --relevance: invalid int value: {relevance!r}\n")

    def test_relevance_allows_surrounding_whitespace(self, capsys):
        argv = ["vector", fixture_path("vec_n3_gap.vec"), "decompose", "--relevance"]
        assert run(capsys, *argv, " 3 ") == run(capsys, *argv, "3")

    def test_bad_n_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("n=abc\np1=1/2\n")
        code, _, err = run(capsys, "vector", str(bad), "membership")
        assert code == 2
        assert err == "error: bad n= line: 'n=abc'\n"

    @pytest.mark.parametrize("value", ["x", "1_2", "+12", "١٢"])
    def test_bad_max_n_env_exits_2(self, capsys, monkeypatch, value):
        # int() alone would read the last three as 12
        monkeypatch.setenv("EVSPACE_MAX_N", value)
        code, _, err = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "membership")
        assert code == 2
        assert err == f"error: EVSPACE_MAX_N is not an integer: {value!r}\n"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "decompose")
        fields = report_dict(out)
        assert code == 0
        assert int(fields["subsets"]) >= 2

    @pytest.mark.parametrize("text, key", [
        ("n=2\np1=1/2\np1=3/4\np2=1/2\n", "p1"),
        ("n=2\np1=1/2\np2=1/2\np1,2=1/4\np1,2=1/2\n", "p1,2"),
        ("n=2\np1=1/2\nn=3\np2=1/2\n", "n"),
    ], ids=["unary", "pair", "n"])
    def test_duplicate_key_exits_2(self, tmp_path, capsys, text, key):
        vec = tmp_path / "dup.vec"
        vec.write_text(text)
        code, out, err = run(capsys, "vector", str(vec), "membership")
        assert (code, out) == (2, "")
        assert err == f"error: duplicate key: {key!r}\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("nonsense\n")
        code, _, _ = run(capsys, "vector", str(bad), "membership")
        assert code == 2

    def test_exponent_entry_exits_2(self, tmp_path, capsys):
        vec = tmp_path / "exp.vec"
        vec.write_text("n=2\np1=1e-3\np2=1/2\np1,2=0\n")
        code, out, err = run(capsys, "vector", str(vec), "membership")
        assert (code, out) == (2, "")
        assert err == "error: not a rational literal: '1e-3'\n"

    @pytest.mark.parametrize("x, y, message", [
        # x is over the vector's denominator 4: vertex 00 gets weight 1
        ([Fraction(4), 0, 0, 0], None, "certificate fails to reproduce p1"),
        (None, [0, 0, 0, Fraction(1)], "witness fails on a polytope vertex"),
        ([0, 0, 0, 0], None, "certificate weights do not sum to 1"),
        ([Fraction(3, 2), Fraction(-1, 2), 0, 0], None,
         "certificate has negative weight"),
    ])
    def test_failed_self_check_exits_4(self, tmp_path, capsys, monkeypatch,
                                       x, y, message):
        vec = tmp_path / "v.vec"
        vec.write_text("n=2\np1=1/2\np2=1/2\np1,2=1/4\n")
        monkeypatch.setattr(pitowsky, "solve_feasibility", lambda rows, rhs: (x, y))
        code, out, err = run(capsys, "vector", str(vec), "membership")
        assert code == 4
        assert out == ""
        assert err == f"error: internal: {message}\n"

    def test_vertex_weight_key_at_n3(self, tmp_path, capsys):
        # vertex 011: event i is the i-th printed bit
        vec = tmp_path / "v.vec"
        vec.write_text("n=3\np1=0\np2=1\np3=1\np1,2=0\np1,3=0\np2,3=1\n")
        code, out, err = run(capsys, "vector", str(vec), "membership")
        assert (code, out, err) == (0, "n: 3\nfeasible: yes\nweight.011: 1\n", "")

    def test_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("EVSPACE_MAX_N", "1")
        code, _, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                         "membership")
        assert code == 3

    def test_decompose_cap_exits_3_when_the_screen_rules_out_the_full_set(
            self, tmp_path, capsys):
        # p1,2 = 3/4 > p1 breaks a pair row, so no LP runs on the full set
        vec = tmp_path / "v.vec"
        vec.write_text("n=13\n" + "".join(f"p{i}=1/2\n" for i in range(1, 14))
                       + "p1,2=3/4\n")
        code, out, err = run(capsys, "vector", str(vec), "decompose")
        assert code == 3
        assert out == ""
        assert err == "error: n=13 exceeds cap 12\n"


class TestEstimateMixSmooth:
    def test_estimate(self, capsys):
        code, out, err = run(capsys, "estimate", fixture_path("fig3.tbl"),
                             "A", "B", "C", "--strategy", "exclude-unknown")
        assert (code, err) == (0, "")
        assert out == (
            "p: 2/5\n"
            "q: 4/5\n"
            "r: 1/5\n"
            "marginal: 1/2\n"
            "classical: yes\n"
            "real_qs: no\n"
            "complex_qs: yes\n"
            "classical_lower: 1/5\n"
            "classical_upper: 3/5\n"
            "complex_lower: 0.0480816411546915\n"
            "complex_upper: 0.831918358845309\n"
            "boundary: yes\n"
            "symmetry_checked: yes\n")

    def test_estimate_unknown_observable_exits_2(self, capsys):
        code, out, err = run(capsys, "estimate", fixture_path("fig1.tbl"),
                             "A", "B", "D")
        assert code == 2
        assert out == ""
        assert err == "error: unknown observable 'D'\n"

    def test_mix(self, capsys):
        code, out, err = run(capsys, "mix", "--alpha", "1/2",
                             fixture_path("s1.tbl"), fixture_path("s2.tbl"))
        assert (code, err) == (0, "")
        assert out == (
            "alpha: 1/2\n"
            "p: 2/5\n"
            "q: 1/5\n"
            "r: 3/10\n"
            "classical: no\n"
            "real_qs: no\n"
            "complex_qs: yes\n"
            "classical_lower: 2/5\n"
            "classical_upper: 4/5\n"
            "complex_lower: 0.168081641154692\n"
            "complex_upper: 0.951918358845309\n"
            "boundary: no\n"
            "symmetry_checked: no\n"
            "warning: equal-marginals premise not verified; verdict is a caveat\n")

    @pytest.mark.parametrize("tables", [
        pytest.param(["two.tbl"], id="one-table"),
        pytest.param([fixture_path("s1.tbl"), "missing.tbl", fixture_path("s2.tbl")],
                     id="three-tables"),
    ])
    def test_mix_table_count_checked_before_reading(self, tmp_path, capsys,
                                                    monkeypatch, tables):
        # neither the two-observable table nor the missing file is opened
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two.tbl").write_text("A,B\n1,1\n")
        code, out, err = run(capsys, "mix", *tables, "--alpha", "1/2")
        assert (code, out) == (2, "")
        assert err == "error: mix expects exactly two table files\n"

    def test_smooth(self, capsys):
        code, out, err = run(capsys, "smooth", "3/4", "1/4", "9/15",
                             "--alpha", "1/9", "--beta", "1/9", "--gamma", "2/17")
        assert (code, err) == (0, "")
        assert out == (
            "p: 13/18\nq: 5/18\nr: 10/17\n" + PATHOLOGY_VERDICT
            + "symmetry_checked: no\n"
            "warning: equal-marginals premise not verified; verdict is a caveat\n")


class TestRealizeSurvey:
    def test_realize_complex(self, capsys):
        code, out, _ = run(capsys, "realize", "1/4", "1/4", "1/2")
        fields = report_dict(out)
        assert code == 0
        assert fields["field"] == "complex"

    def test_realize_rejected(self, capsys):
        code, out, _ = run(capsys, "realize", "1/10", "2/10", "3/10")
        fields = report_dict(out)
        assert code == 0
        assert fields["representable"] == "no"

    def test_survey(self, capsys):
        code, out, _ = run(capsys, "survey", fixture_path("toy_docs.txt"),
                           fixture_path("toy_qrels.txt"))
        fields = report_dict(out)
        assert code == 0
        assert fields["documents"] == "16"
        assert any("verdict=YYY" in v for v in fields.values())
        assert any("verdict=NYY" in v for v in fields.values())

    def test_float_survey(self, capsys):
        code, out, _ = run(capsys, "--float", "survey", fixture_path("toy_docs.txt"),
                           fixture_path("toy_qrels.txt"))
        assert code == 0
        assert out == (
            "documents: 16\n"
            "rows: 2\n"
            "row.1: query=q1 terms=t1,t2 p=1.0 q=1.0 r=1.0 verdict=YYY\n"
            "row.2: query=q2 terms=u1,u2 p=0.25 q=0.25 r=0.25 verdict=NYY\n")

    def test_survey_row_bound_exits_3(self, capsys, monkeypatch):
        _, out, _ = run(capsys, "survey", fixture_path("toy_docs.txt"),
                        fixture_path("toy_qrels.txt"))
        rows = int(report_dict(out)["rows"])
        monkeypatch.setattr(estimation, "MAX_SURVEY_ROWS", rows)
        code, bounded, _ = run(capsys, "survey", fixture_path("toy_docs.txt"),
                               fixture_path("toy_qrels.txt"))
        assert (code, bounded) == (0, out)
        monkeypatch.setattr(estimation, "MAX_SURVEY_ROWS", rows - 1)
        code, out, err = run(capsys, "survey", fixture_path("toy_docs.txt"),
                             fixture_path("toy_qrels.txt"))
        assert code == 3
        assert out == ""
        assert err == f"error: survey of {rows} rows exceeds cap {rows - 1}\n"

    def test_survey_qrels_line_is_one_pair(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 d1 d2\n")
        code, out, err = run(capsys, "survey", fixture_path("toy_docs.txt"),
                             str(qrels))
        assert code == 2
        assert out == ""
        assert err == "error: bad qrels line: 'q1 d1 d2'\n"

    @pytest.mark.parametrize("float_output", [False, True])
    def test_survey_rows_render_their_own_fields(self, tmp_path, capsys, float_output):
        # 14 terms of document frequency 4 and three queries, two of them
        # with 4 relevant documents: 91 rows per such query over at most
        # 5 * 5 * 5 count triples, so rows share triples within a query
        rng = random.Random(21)
        docs = [f"d{k}" for k in range(30)]
        terms = {d: set() for d in docs}
        for t in range(14):
            for d in rng.sample(docs, 4):
                terms[d].add(f"t{t}")
        queries = [("qa", rng.sample(docs, 4)), ("qb", rng.sample(docs, 4)),
                   ("qc", rng.sample(docs, 3))]
        docs_path, qrels_path = tmp_path / "docs.txt", tmp_path / "qrels.txt"
        docs_path.write_text("".join(f"{d} {' '.join(sorted(ts))}\n"
                                     for d, ts in terms.items()))
        qrels_path.write_text("".join(f"{q} {d}\n" for q, rel in queries for d in rel))
        rows = estimation.survey_corpus(estimation.parse_corpus(
            docs_path.read_text(), qrels_path.read_text()))
        assert len({id(row.triple) for row in rows}) < len(rows)
        render = (lambda x: repr(float(x))) if float_output else str
        argv = ["--float"] * float_output + ["survey", str(docs_path), str(qrels_path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        fields = Report.parse(out).fields
        assert fields[:2] == [("documents", "30"), ("rows", str(len(rows)))]
        assert len(fields) == 2 + len(rows)
        for idx, (row, (key, value)) in enumerate(zip(rows, fields[2:]), 1):
            t, v = row.triple, row.verdict
            flags = "".join("Y" if b else "N"
                            for b in (v.classical, v.real_qs, v.complex_qs))
            assert (key, value) == (
                f"row.{idx}",
                f"query={row.query_id} terms={row.term_b},{row.term_c} "
                f"p={render(t.p)} q={render(t.q)} r={render(t.r)} verdict={flags}")


class TestReproduce:
    def test_fresh_checkout_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        fields = report_dict(out)
        assert fields["result"] == "ok"
        assert all(v == "PASS" for k, v in fields.items() if k != "result")


class TestParser:
    def test_usage_error_leaves_the_parser_as_fresh(self, capsys):
        argv = ["vector", fixture_path("vec_n3_gap.vec"), "decompose"]
        cli._build_parser.cache_clear()
        fresh = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["--float", "vector", fixture_path("vec_n3_gap.vec"), "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        # a flag given to one call does not carry over to the next
        assert run(capsys, "--float", *argv) != fresh
        assert run(capsys, *argv) == fresh


class TestReport:
    def test_roundtrip(self):
        report = Report()
        report.add("p", "1/2")
        report.add("classical", True)
        report.warn("something")
        assert Report.parse(report.to_text()) == report

    def test_float_output_roundtrip(self):
        report = Report(float_output=True)
        report.add("p", Fraction(1, 2))
        assert report.to_text() == "p: 0.5\n"
        assert Report.parse(report.to_text()) == report

    @pytest.mark.parametrize("argv", [
        pytest.param(["check", "1/2", "1/2", "1/2"], id="check"),
        pytest.param(["check", "13/18", "5/18", "10/17", "--marginal", "1/2"],
                     id="check-marginal"),
        pytest.param(["vector", fixture_path("vec_n2_infeasible.vec"), "membership"],
                     id="membership-n2"),
        pytest.param(["vector", fixture_path("vec_n2_infeasible.vec"), "decompose"],
                     id="decompose-n2"),
        pytest.param(["vector", fixture_path("vec_n3_gap.vec"), "membership"],
                     id="membership-n3"),
        pytest.param(["vector", fixture_path("vec_n3_gap.vec"), "decompose"],
                     id="decompose-n3"),
        pytest.param(["estimate", fixture_path("fig1.tbl"), "A", "B", "C"],
                     id="estimate-fig1"),
        pytest.param(["estimate", fixture_path("fig3.tbl"), "A", "B", "C",
                      "--strategy", "unknown-as-absent"], id="estimate-fig3"),
        pytest.param(["mix", fixture_path("s1.tbl"), fixture_path("s2.tbl"),
                      "--alpha", "1/3"], id="mix"),
        pytest.param(["smooth", "3/4", "1/4", "9/15", "--alpha", "1/9",
                      "--beta", "1/9", "--gamma", "2/17"], id="smooth"),
        pytest.param(["realize", "1/4", "1/4", "1/2"], id="realize"),
        pytest.param(["realize", "1/10", "2/10", "3/10"], id="realize-rejected"),
        pytest.param(["survey", fixture_path("toy_docs.txt"),
                      fixture_path("toy_qrels.txt")], id="survey"),
        pytest.param(["reproduce"], id="reproduce"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--float"]], ids=["exact", "float"])
    def test_real_output_roundtrips(self, capsys, argv, flags):
        code, out, err = run(capsys, *flags, *argv)
        assert (code, err) == (0, "")
        assert Report.parse(out).to_text() == out

    def test_stable_order(self, capsys):
        _, out1, _ = run(capsys, "check", "1/4", "1/4", "1/2")
        _, out2, _ = run(capsys, "check", "1/4", "1/4", "1/2")
        assert out1 == out2
