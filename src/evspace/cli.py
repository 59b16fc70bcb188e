"""Command-line surface: admissibility checks, polytope queries, estimation,
quantum realizations, the corpus survey, and the golden ``reproduce`` harness.

Exit statuses: 0 = computed (violations are results, not failures),
1 = reproduce mismatch, 2 = input error, 3 = resource cap exceeded,
4 = internal error, such as a certificate that failed its own re-check.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Optional, Sequence

from . import admissibility, estimation, pitowsky, quantum
from .core import (CapExceededError, CondTriple, FormatError, parse_event_table,
                   parse_correlation_vector, parse_prob)
from .estimation import MissingStrategy

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Ordered key/value record; the text rendering is stable and parses
    back into an equal Report.  ``float_output`` renders rationals as
    decimals (display only)."""

    fields: list[tuple[str, str]] = field(default_factory=list)
    float_output: bool = field(default=False, compare=False)

    def add(self, key: str, value) -> None:
        self.fields.append((key, _render_value(value, self.float_output)))

    def warn(self, message: str) -> None:
        self.fields.append(("warning", message))

    def to_text(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self.fields) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Report":
        fields = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            key, sep, value = ln.partition(": ")
            if not sep:
                raise FormatError(f"bad report line: {ln!r}")
            fields.append((key, value))
        return cls(fields)


def _render_value(value, float_output: bool) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return repr(float(value)) if float_output else str(value)
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _verdict_fields(report: Report, verdict) -> None:
    report.add("classical", verdict.classical)
    report.add("real_qs", verdict.real_qs)
    report.add("complex_qs", verdict.complex_qs)
    report.add("classical_lower", verdict.classical_bounds[0])
    report.add("classical_upper", verdict.classical_bounds[1])
    report.add("complex_lower", verdict.complex_bounds[0])
    report.add("complex_upper", verdict.complex_bounds[1])
    report.add("boundary", verdict.boundary)
    report.add("symmetry_checked", verdict.symmetry_checked)
    if not verdict.symmetry_checked:
        report.warn("equal-marginals premise not verified; verdict is a caveat")


def _triple_fields(report: Report, t: CondTriple) -> None:
    report.add("p", t.p)
    report.add("q", t.q)
    report.add("r", t.r)
    if t.marginal is not None:
        report.add("marginal", t.marginal)


def _classified(args, t: CondTriple, *head: tuple[str, object]) -> tuple[int, Report]:
    """The report of a classified triple: the head fields, the triple, then
    its verdict."""
    report = Report(float_output=args.float)
    for key, value in head:
        report.add(key, value)
    _triple_fields(report, t)
    _verdict_fields(report, admissibility.classify(t))
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> tuple[int, Report]:
    marginal = parse_prob(args.marginal) if args.marginal else None
    t = CondTriple(parse_prob(args.p), parse_prob(args.q), parse_prob(args.r),
                   marginal=marginal)
    return _classified(args, t)


def cmd_vector(args) -> tuple[int, Report]:
    if args.subcommand == "membership" and args.relevance is not None:
        raise FormatError("--relevance applies only to decompose")
    with open(args.file) as fh:
        v = parse_correlation_vector(fh.read())
    max_n = pitowsky.max_n_from_env()
    report = Report(float_output=args.float)
    report.add("n", v.n)
    if args.subcommand == "membership":
        cert = pitowsky.membership(v, max_n)
        report.add("feasible", cert.feasible)
        _certificate_fields(report, "", cert)
    else:
        relevance = v.n if args.relevance is None else args.relevance
        dec = pitowsky.decompose(v, relevance, max_n)
        report.add("subsets", len(dec.subsets))
        for idx, (events, cert) in enumerate(dec.subsets, 1):
            report.add(f"subset.{idx}.events", ",".join(map(str, events)))
            _certificate_fields(report, f"subset.{idx}.", cert)
    return EXIT_OK, report


def _certificate_fields(report: Report, prefix: str, cert) -> None:
    if cert.feasible:
        for k, w in sorted(cert.weights.items()):
            report.add(f"{prefix}weight.{k:0{cert.n}b}", w)
    else:
        report.add(f"{prefix}witness", cert.witness.render())


def _strategy(args) -> MissingStrategy:
    return MissingStrategy(args.strategy)


def cmd_estimate(args) -> tuple[int, Report]:
    with open(args.table) as fh:
        table = parse_event_table(fh.read())
    t = estimation.estimate_triple(table, args.a, args.b, args.c, _strategy(args))
    return _classified(args, t)


def cmd_mix(args) -> tuple[int, Report]:
    if len(args.tables) != 2:
        raise FormatError("mix expects exactly two table files")
    alpha = parse_prob(args.alpha)
    triples = []
    for path in args.tables:
        with open(path) as fh:
            table = parse_event_table(fh.read())
        names = table.observables[:3]
        if len(names) < 3:
            raise FormatError(f"{path}: need three observables")
        triples.append(estimation.estimate_triple(table, *names, _strategy(args)))
    mixed = estimation.broker_mix(triples, [alpha, 1 - alpha])
    return _classified(args, mixed, ("alpha", alpha))


def cmd_smooth(args) -> tuple[int, Report]:
    base = CondTriple(parse_prob(args.p), parse_prob(args.q), parse_prob(args.r))
    background = CondTriple(parse_prob(args.background_p),
                            parse_prob(args.background_q),
                            parse_prob(args.background_r))
    coeffs = (parse_prob(args.alpha), parse_prob(args.beta), parse_prob(args.gamma))
    return _classified(args, estimation.smooth_triple(base, background, coeffs))


def cmd_realize(args) -> tuple[int, Report]:
    t = CondTriple(parse_prob(args.p), parse_prob(args.q), parse_prob(args.r))
    report = Report(float_output=args.float)
    _triple_fields(report, t)
    try:
        real = quantum.realize(t)
    except quantum.NotRepresentableError as exc:
        report.add("representable", False)
        report.warn(str(exc))
        return EXIT_OK, report
    report.add("representable", True)
    report.add("field", real.field.value)
    report.add("phase", real.phase)
    for name, vec in (("a", real.a), ("b", real.b), ("c", real.c)):
        report.add(name, "  ".join(
            f"({z.real:.15g}, {z.imag:.15g})" for z in vec.components))
    return EXIT_OK, report


def cmd_survey(args) -> tuple[int, Report]:
    with open(args.docs) as fh:
        docs_text = fh.read()
    with open(args.qrels) as fh:
        qrels_text = fh.read()
    corpus = estimation.parse_corpus(docs_text, qrels_text)
    rows = estimation.survey_corpus(corpus)
    report = Report(float_output=args.float)
    report.add("documents", corpus.N)
    report.add("rows", len(rows))
    for idx, row in enumerate(rows, 1):
        v = row.verdict
        flags = "".join("YN"[not b] for b in (v.classical, v.real_qs, v.complex_qs))
        p, q, r = (_render_value(x, report.float_output)
                   for x in (row.triple.p, row.triple.q, row.triple.r))
        report.add(
            f"row.{idx}",
            f"query={row.query_id} terms={row.term_b},{row.term_c} "
            f"p={p} q={q} r={r} verdict={flags}")
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# Golden harness
# ---------------------------------------------------------------------------

def _fixture(name: str) -> str:
    return resources.files("evspace.fixtures").joinpath(name).read_text()


def _golden_checks() -> list[tuple[str, Callable[[], None]]]:
    F = Fraction

    def fig1_parse():
        table = parse_event_table(_fixture("fig1.tbl"))
        assert table.total == 10, table.total
        assert len(table.rows) == 6  # zero-count patterns normalized away

    def fig1_triple():
        table = parse_event_table(_fixture("fig1.tbl"))
        t = estimation.estimate_triple(table, "A", "B", "C")
        assert (t.p, t.q, t.r) == (F(2, 5), F(4, 5), F(1, 5)), t
        assert admissibility.check_classical(t)

    def fig3_parse():
        table = parse_event_table(_fixture("fig3.tbl"))
        assert table.total == 12
        unknowns = sum(
            count for cells, count in table.rows
            if any(c.value == "?" for c in cells))
        assert unknowns == 2

    def fig3_exclude_unknown():
        table = parse_event_table(_fixture("fig3.tbl"))
        t = estimation.estimate_triple(table, "A", "B", "C",
                                       MissingStrategy.EXCLUDE_UNKNOWN)
        assert (t.p, t.q, t.r) == (F(2, 5), F(4, 5), F(1, 5)), t
        verdict = admissibility.classify(t)
        assert verdict.classical and verdict.boundary

    def fig3_pinned_second_triple():
        t = CondTriple(F(2, 5), F(5, 6), F(1, 6))
        assert not admissibility.check_classical(t)

    def smoothing_pathology():
        base = CondTriple(F(3, 4), F(1, 4), F(9, 15))
        background = CondTriple(F(1, 2), F(1, 2), F(1, 2))
        out = estimation.smooth_triple(base, background, (F(1, 9), F(1, 9), F(2, 17)))
        assert (out.p, out.q, out.r) == (F(13, 18), F(5, 18), F(10, 17)), out
        assert not admissibility.check_classical(out)
        assert admissibility.check_complex_qs(out)

    def broker_pathology():
        for name, expected in (("s1.tbl", (F(2, 5), F(1, 5), F(2, 5))),
                               ("s2.tbl", (F(2, 5), F(1, 5), F(1, 5)))):
            table = parse_event_table(_fixture(name))
            t = estimation.estimate_triple(table, "A", "B", "C")
            assert (t.p, t.q, t.r) == expected, (name, t)
        mixed = estimation.broker_mix(
            [CondTriple(F(2, 5), F(1, 5), F(2, 5)),
             CondTriple(F(2, 5), F(1, 5), F(1, 5))],
            [F(1, 2), F(1, 2)])
        assert (mixed.p, mixed.q, mixed.r) == (F(4, 10), F(2, 10), F(3, 10))
        assert not admissibility.check_classical(mixed)

    def survey_table():
        # table columns (Pr(B|C), Pr(B|A), Pr(C|A)) map onto (q, p, r)
        expect = [
            ((F(1), F(1), F(1)), (True, True, True)),
            ((F(1, 4), F(1, 4), F(1, 2)), (True, False, True)),
            ((F(1, 4), F(1, 4), F(1, 4)), (False, True, True)),
            ((F(1, 12), F(1, 12), F(1, 12)), (False, False, False)),
        ]
        for (q, p, r), flags in expect:
            verdict = admissibility.classify(CondTriple(p, q, r))
            got = (verdict.classical, verdict.real_qs, verdict.complex_qs)
            assert got == flags, ((q, p, r), got)

    def neither_space():
        t = CondTriple(F(1, 10), F(2, 10), F(3, 10))
        assert not admissibility.check_classical(t)
        assert not admissibility.check_complex_qs(t)

    def symmetric_half():
        t = CondTriple(F(1, 2), F(1, 2), F(1, 2), marginal=F(1, 2))
        verdict = admissibility.classify(t)
        assert verdict.classical and verdict.symmetry_checked

    def vertex_n2():
        v = pitowsky.vertex_vector(2, 0b01)
        assert (v.unary[1], v.unary[2], v.pairwise[(1, 2)]) == (0, 1, 0)
        cert = pitowsky.membership(v)
        assert cert.feasible and cert.weights == {0b01: F(1)}

    def n2_infeasible():
        v = parse_correlation_vector(_fixture("vec_n2_infeasible.vec"))
        cert = pitowsky.membership(v)
        assert not cert.feasible
        assert cert.witness.evaluate(v) > 0
        assert pitowsky.violated_faces(v) == [(1, 2)]

    def n3_gap_and_corollary():
        v = parse_correlation_vector(_fixture("vec_n3_gap.vec"))
        assert pitowsky.closed_form_n3(v)
        cert = pitowsky.membership(v)
        assert not cert.feasible
        dec = pitowsky.decompose(v, relevance_index=3)
        assert len(dec.subsets) >= 2
        assert dec.covered() == {1, 2, 3}

    def toy_survey():
        corpus = estimation.parse_corpus(_fixture("toy_docs.txt"),
                                         _fixture("toy_qrels.txt"))
        rows = estimation.survey_corpus(corpus)
        shapes = {(r.triple.p, r.triple.q, r.triple.r,
                   r.verdict.classical, r.verdict.real_qs, r.verdict.complex_qs)
                  for r in rows}
        assert (F(1), F(1), F(1), True, True, True) in shapes, shapes
        assert (F(1, 4), F(1, 4), F(1, 4), False, True, True) in shapes, shapes

    return [
        ("fig1-parse", fig1_parse),
        ("fig1-triple", fig1_triple),
        ("fig3-parse", fig3_parse),
        ("fig3-exclude-unknown", fig3_exclude_unknown),
        ("fig3-pinned-second-triple", fig3_pinned_second_triple),
        ("smoothing-pathology", smoothing_pathology),
        ("broker-pathology", broker_pathology),
        ("survey-table-verdicts", survey_table),
        ("neither-space-instance", neither_space),
        ("symmetric-half-example", symmetric_half),
        ("vertex-n2", vertex_n2),
        ("n2-infeasible", n2_infeasible),
        ("n3-gap-and-corollary", n3_gap_and_corollary),
        ("toy-corpus-survey", toy_survey),
    ]


def cmd_reproduce(args) -> tuple[int, Report]:
    report = Report()
    failures = 0
    for name, check in _golden_checks():
        try:
            check()
        except AssertionError as exc:
            failures += 1
            report.add(name, f"FAIL ({exc})")
            continue
        report.add(name, "PASS")
    report.add("result", "ok" if failures == 0 else f"{failures} mismatch(es)")
    return (EXIT_OK if failures == 0 else EXIT_MISMATCH), report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="evspace",
        description="Admissibility of observed conditional probabilities: "
                    "classical event spaces, real and complex quantum spaces.")
    parser.add_argument("--float", action="store_true",
                        help="render rationals as decimals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a conditional triple (p, q, r)")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("r")
    p.add_argument("--marginal", help="common marginal, when known")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("vector", help="correlation-polytope queries")
    p.add_argument("file", help="correlation vector file")
    p.add_argument("subcommand", choices=["membership", "decompose"])
    p.add_argument("--relevance", type=int, default=None,
                   help="relevance event index for decompose (default n)")
    p.set_defaults(fn=cmd_vector)

    p = sub.add_parser("estimate", help="estimate a triple from an event table")
    p.add_argument("table")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--strategy", choices=[s.value for s in MissingStrategy],
                   default=MissingStrategy.EXCLUDE_UNKNOWN.value)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("mix", help="broker mixture of two tables' triples")
    p.add_argument("tables", nargs="+")
    p.add_argument("--alpha", required=True)
    p.add_argument("--strategy", choices=[s.value for s in MissingStrategy],
                   default=MissingStrategy.EXCLUDE_UNKNOWN.value)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser("smooth", help="linear smoothing of a triple")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("r")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--background-p", default="1/2")
    p.add_argument("--background-q", default="1/2")
    p.add_argument("--background-r", default="1/2")
    p.set_defaults(fn=cmd_smooth)

    p = sub.add_parser("realize", help="quantum realization of a triple")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("r")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("survey", help="corpus survey of term-pair triples")
    p.add_argument("docs")
    p.add_argument("qrels")
    p.set_defaults(fn=cmd_survey)

    p = sub.add_parser("reproduce", help="replay all pinned golden examples")
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.fn(args)
    except (FormatError, ValueError, OSError) as exc:
        if isinstance(exc, CapExceededError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAP
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
