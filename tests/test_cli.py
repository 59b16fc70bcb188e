import os
from fractions import Fraction
from importlib import resources

import pytest

from evspace import cli, pitowsky
from evspace.cli import Report, main


def fixture_path(name):
    return str(resources.files("evspace.fixtures").joinpath(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_dict(text):
    return dict(Report.parse(text).fields)


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

    def test_float_flag(self, capsys):
        _, out, _ = run(capsys, "--float", "check", "1/2", "1/2", "1/2")
        assert report_dict(out)["p"] == "0.5"

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
        assert "witness: 0·p1 + -1·p2 + 1·p1,2 + 0 > 0\n" in out

    def test_membership_golden(self, capsys):
        code, out, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "membership")
        assert code == 0
        assert out == (
            "n: 3\n"
            "feasible: no\n"
            "witness: 1·p1 + 1·p2 + 1·p3 + -1·p1,2 + -1·p1,3 + -1·p2,3 + -1 > 0\n")

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
        # the full set and {2, 3} need an LP; the singleton {1} does not
        assert calls == {"parse": 1, "lp": 2}

    def test_relevance_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                             "decompose", "--relevance", "0")
        assert code == 2
        assert out == ""
        assert err == "error: relevance index 0 outside 1..3\n"

    def test_bad_n_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("n=abc\np1=1/2\n")
        code, _, err = run(capsys, "vector", str(bad), "membership")
        assert code == 2
        assert err == "error: bad n= line: 'n=abc'\n"

    def test_bad_max_n_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("EVSPACE_MAX_N", "x")
        code, _, err = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "membership")
        assert code == 2
        assert err == "error: EVSPACE_MAX_N is not an integer: 'x'\n"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                           "decompose")
        fields = report_dict(out)
        assert code == 0
        assert int(fields["subsets"]) >= 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("nonsense\n")
        code, _, _ = run(capsys, "vector", str(bad), "membership")
        assert code == 2

    def test_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("EVSPACE_MAX_N", "1")
        code, _, _ = run(capsys, "vector", fixture_path("vec_n3_gap.vec"),
                         "membership")
        assert code == 3


class TestEstimateMixSmooth:
    def test_estimate(self, capsys):
        code, out, _ = run(capsys, "estimate", fixture_path("fig3.tbl"),
                           "A", "B", "C", "--strategy", "exclude-unknown")
        fields = report_dict(out)
        assert code == 0
        assert (fields["p"], fields["q"], fields["r"]) == ("2/5", "4/5", "1/5")
        assert fields["classical"] == "yes"
        assert fields["boundary"] == "yes"

    def test_estimate_unknown_observable_exits_2(self, capsys):
        code, out, err = run(capsys, "estimate", fixture_path("fig1.tbl"),
                             "A", "B", "D")
        assert code == 2
        assert out == ""
        assert err == "error: unknown observable 'D'\n"

    def test_mix(self, capsys):
        code, out, _ = run(capsys, "mix", "--alpha", "1/2",
                           fixture_path("s1.tbl"), fixture_path("s2.tbl"))
        fields = report_dict(out)
        assert code == 0
        assert (fields["p"], fields["q"], fields["r"]) == ("2/5", "1/5", "3/10")
        assert fields["classical"] == "no"

    def test_smooth(self, capsys):
        code, out, _ = run(capsys, "smooth", "3/4", "1/4", "9/15",
                           "--alpha", "1/9", "--beta", "1/9", "--gamma", "2/17")
        fields = report_dict(out)
        assert code == 0
        assert (fields["p"], fields["q"], fields["r"]) == ("13/18", "5/18", "10/17")
        assert fields["classical"] == "no"


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

    def test_survey_qrels_line_is_one_pair(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 d1 d2\n")
        code, out, err = run(capsys, "survey", fixture_path("toy_docs.txt"),
                             str(qrels))
        assert code == 2
        assert out == ""
        assert err == "error: bad qrels line: 'q1 d1 d2'\n"


class TestReproduce:
    def test_fresh_checkout_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        fields = report_dict(out)
        assert fields["result"] == "ok"
        assert all(v == "PASS" for k, v in fields.items() if k != "result")


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

    def test_stable_order(self, capsys):
        _, out1, _ = run(capsys, "check", "1/4", "1/4", "1/2")
        _, out2, _ = run(capsys, "check", "1/4", "1/4", "1/2")
        assert out1 == out2
