"""Tests of the benchmark itself: the independent checks reject tampered
output, inputs and counts repeat for a seed, and the command refuses to run
without the program's sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import checks
import instances
import run
from tracing import Tracer

HALF = F(1, 2)

# n=2, Pr(both) above Pr(each): infeasible, separated by p1,2 - p1 > 0
OVERLAP = {"n": 2, "unary": {1: HALF, 2: HALF}, "pairwise": {(1, 2): F(3, 4)}}
WITNESS = "-1·p1 + 0·p2 + 1·p1,2 + 0 > 0"

# n=3 mixture of 011 and 110 with weights 1/4 and 3/4
MIXTURE = {"n": 3, "unary": {1: F(3, 4), 2: F(1), 3: F(1, 4)},
           "pairwise": {(1, 2): F(3, 4), (1, 3): F(0), (2, 3): F(1, 4)}}
WEIGHTS = "n: 3\nfeasible: yes\nweight.011: 1/4\nweight.110: 3/4\n"

# the n=3 vector with all marginals 1/2 and pairwise 1/8 splits as {2,3}, {1}
GAP = {"n": 3, "unary": {i: HALF for i in (1, 2, 3)},
       "pairwise": {pair: F(1, 8) for pair in ((1, 2), (1, 3), (2, 3))}}
GAP_SUBSETS = ("n: 3\nsubsets: 2\nsubset.1.events: 2,3\n"
               "subset.1.weight.00: 1/8\nsubset.1.weight.01: 3/8\n"
               "subset.1.weight.10: 3/8\nsubset.1.weight.11: 1/8\n"
               "subset.2.events: 1\n")


@pytest.mark.parametrize("prefix", ["witness: ", ""])
def test_witness_line_with_or_without_doubled_prefix(prefix):
    text = f"n: 2\nfeasible: no\nwitness: {prefix}{WITNESS}\n"
    checks.check_membership(text, OVERLAP, expect_feasible=False)


def test_weights_accepted():
    checks.check_membership(WEIGHTS, MIXTURE, expect_feasible=True)


def test_changed_weight_rejected():
    tampered = WEIGHTS.replace("weight.011: 1/4", "weight.011: 1/5")
    with pytest.raises(checks.CheckError):
        checks.check_membership(tampered, MIXTURE, expect_feasible=True)


def test_changed_witness_coefficient_rejected():
    text = f"n: 2\nfeasible: no\nwitness: {WITNESS.replace('-1·p1', '0·p1')}\n"
    with pytest.raises(checks.CheckError, match="vertex"):
        checks.check_membership(text, OVERLAP, expect_feasible=False)


def test_witness_positive_on_a_vertex_rejected():
    text = "n: 2\nfeasible: no\nwitness: 1·p1 + 0 > 0\n"
    with pytest.raises(checks.CheckError, match="on vertex"):
        checks.check_membership(text, OVERLAP, expect_feasible=None)


def test_mixture_reported_infeasible_rejected():
    text = f"n: 2\nfeasible: no\nwitness: {WITNESS}\n"
    with pytest.raises(checks.CheckError, match="built feasible"):
        checks.check_membership(text, OVERLAP, expect_feasible=True)


@pytest.mark.parametrize("singleton", [
    "subset.2.weight.0: 1/2\nsubset.2.weight.1: 1/2\n",
    "subset.2.weight.00: 1/2\nsubset.2.weight.10: 1/2\n",
])
def test_singleton_weights_over_one_bit_or_padded(singleton):
    checks.check_decompose(GAP_SUBSETS + singleton, GAP)


def test_singleton_padding_bit_set_rejected():
    singleton = "subset.2.weight.01: 1/2\nsubset.2.weight.11: 1/2\n"
    with pytest.raises(checks.CheckError, match="padding"):
        checks.check_decompose(GAP_SUBSETS + singleton, GAP)


def test_subsets_must_partition():
    text = GAP_SUBSETS.replace("subsets: 2", "subsets: 1")
    with pytest.raises(checks.CheckError):
        checks.check_decompose(text, GAP)


def _toy_survey() -> tuple[dict, list, str]:
    docs = {"d1": {"t1", "t2", "u1"}, "d2": {"t1", "t2"}, "d3": {"u1", "u2"},
            "d4": {"u2"}, "d5": set()}
    queries = [("q1", {"d1", "d2"})]
    rows = checks.survey_rows(docs, queries)
    text = f"documents: 5\nrows: {len(rows)}\n" + "".join(
        f"row.{k}: query={q} terms={b},{c} p={p} q={qq} r={r} verdict={flags}\n"
        for k, (q, b, c, p, qq, r, flags) in enumerate(rows, 1))
    return docs, rows, text


def test_survey_recount_accepted():
    _, rows, text = _toy_survey()
    assert len(rows) == 6
    checks.check_survey(text, 5, rows)


def test_wrong_survey_flag_rejected():
    _, rows, text = _toy_survey()
    flags = rows[0][-1]
    flipped = ("N" if flags[0] == "Y" else "Y") + flags[1:]
    tampered = text.replace(f"verdict={flags}", f"verdict={flipped}", 1)
    with pytest.raises(checks.CheckError):
        checks.check_survey(tampered, 5, rows)


def test_wrong_triple_flag_rejected():
    # (1/4, 1/4, 1/2) is classical and complex but not real
    text = ("p: 1/4\nq: 1/4\nr: 1/2\nclassical: yes\nreal_qs: yes\ncomplex_qs: yes\n"
            "classical_lower: 1/2\nclassical_upper: 1\ncomplex_lower: 0.25\n"
            "complex_upper: 1\nboundary: yes\nsymmetry_checked: no\n")
    with pytest.raises(checks.CheckError, match="real_qs"):
        checks.check_triple(text, F(1, 4), F(1, 4), HALF, None)


def _program():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.load_program()


def _traced_counts(ops: list) -> dict[str, float]:
    runner = run.Runner(_program(), ops)
    tracer = Tracer(runner.modules)
    tracer.install()
    runner.tracer = tracer
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
    assert runner.failed == 0 and not runner.wrong, runner.wrong
    metrics = tracer.metrics(len(ops), 1.0)
    assert not [m for m in metrics.values() if "absent" in m]
    return {name: metrics[name]["value"] for name in (
        "simplex.pivots", "simplex.calls", "pitowsky.membership_calls", "core.parse_calls")}


@pytest.mark.parametrize("workload, kinds", [
    ("membership", {"membership:ranking-m6-random", "membership:ranking-m6-mixture"}),
    ("decompose", {"decompose:ranking-m5"}),
    ("survey", {"estimate", "mix", "check"}),
])
def test_inputs_and_counts_repeat_for_a_seed(tmp_path, workload, kinds):
    sets = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        ops = instances.build(workload, 7, work)
        sets.append(([[a.replace(str(work), "") for a in op.argv] for op in ops],
                     sorted((p.name, p.read_text()) for p in work.iterdir())))
    assert sets[0] == sets[1]
    ops = [op for op in instances.build(workload, 7, tmp_path / "0") if op.kind in kinds][:4]
    first, second = _traced_counts(ops), _traced_counts(ops)
    assert first == second
    if workload != "survey":
        assert first["simplex.pivots"] > 0 and first["core.parse_calls"] > 0


def test_seeds_give_different_inputs(tmp_path):
    texts = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        instances.build("membership", seed, work)
        texts.append(sorted(p.read_text() for p in work.iterdir()))
    assert texts[0] != texts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
