"""End-to-end benchmark of evspace through its command line.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 25 --trace 0

Each operation is one in-process ``evspace.cli.main(argv)`` call with its
output captured, on input files generated from ``--seed`` (see
``instances.py``).  The loop is closed: one process, one thread, one
operation at a time.  Whole passes over the workload's fixed instance set
run until the next pass would end further from ``--seconds`` than stopping
now.  Every output is checked by ``checks.py``, which shares nothing with
the program; an output identical to one already checked for the same
instance is not checked again.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
traces every operation, reports per-layer means per operation, and reports
its own overhead from operations it also runs untraced.  Results and spans
are written under ``.perfbench_out/`` in the checkout.
"""

from time import perf_counter, process_time

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 7
REFERENCE_EVERY_S = 0.5
REFERENCE_NOMINAL_S = 0.03
TAIL_BEYOND = 10
OVERHEAD_EVERY = 4
MODULES = ("cli", "core", "pitowsky", "simplex", "admissibility", "estimation", "quantum")


def load_program() -> dict[str, object]:
    """Import evspace afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "evspace" or m.startswith("evspace.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {m: importlib.import_module(f"evspace.{m}") for m in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"evspace was imported from {origin}, not from {SRC}")
    return modules


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of exact-rational row reduction, the
    same kind of work as the program's tableau pivots but not the program's
    code: the machine's speed at this moment."""
    start = perf_counter()
    rows = [[Fraction((7 * i + 3 * j) % 5, 1 + (i + j) % 4) for j in range(48)]
            for i in range(12)]
    for step in range(12):
        pivot = rows[step][step] or Fraction(1)
        prow = [v / pivot for v in rows[step]]
        rows[step] = prow
        for i in range(12):
            f = rows[i][step]
            if i != step and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    return perf_counter() - start


class Runner:
    def __init__(self, modules: dict[str, object], ops: list,
                 reference_every: float | None = None):
        self.modules = modules
        self.ops = ops
        self.reference_every = reference_every
        self.verified: list[str | None] = [None] * len(ops)
        self.failed = 0
        self.wrong: list[str] = []
        self.tracer: Tracer | None = None
        self.calls = 0
        self.cpu_s = 0.0
        self.reference_s: list[float] = []
        self._since_reference = reference_every or 0.0

    def call(self, argv: list[str]) -> tuple[int | None, str, float]:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = self.calls
        self.calls += 1
        main = self.modules["cli"].main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu, start = process_time(), perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                err.write(traceback.format_exc())
            elapsed = perf_counter() - start
            self.cpu_s += process_time() - cpu
        if code != 0:
            print(f"operation {' '.join(argv)} exited {code}: "
                  f"{err.getvalue().strip()[-500:]}", file=sys.stderr)
        return code, out.getvalue(), elapsed

    def run(self, idx: int, op) -> float:
        if self.reference_every is not None and self._since_reference >= self.reference_every:
            self.reference_s.append(reference_kernel())
            self._since_reference = 0.0
        code, text, elapsed = self.call(op.argv)
        self._since_reference += elapsed
        if code != 0:
            self.failed += 1
        elif text != self.verified[idx]:
            try:
                op.check(text)
            except checks.CheckError as exc:
                self.wrong.append(f"{' '.join(op.argv)}: {exc}")
            else:
                self.verified[idx] = text
        return elapsed

    def run_pass(self) -> list[float]:
        return [self.run(idx, op) for idx, op in enumerate(self.ops)]


def setup(warm: list, gen_s: float) -> tuple[dict[str, object], list[float], list[float]]:
    """Import the program and warm it up SETUPS times, sampling the reference
    kernel after each; the first set-up is timed from process start, less
    the time spent generating inputs."""
    times, reference = [], []
    for k in range(SETUPS):
        start = T0 if k == 0 else perf_counter()
        modules = load_program()
        warm_runner = Runner(modules, warm)
        warm_runner.run_pass()
        if warm_runner.failed or warm_runner.wrong:
            raise RuntimeError(f"warm-up failed: {warm_runner.wrong}")
        times.append(perf_counter() - start - (gen_s if k == 0 else 0.0))
        reference.append(reference_kernel())
    return modules, times, reference


def slowness(reference: list[float]) -> float:
    """How much slower than nominal the machine ran the reference kernel.
    The mean, not the median: the machine switches between a fast and a
    slow state faster than an operation runs, so an operation pays the
    average of the two, and the median of short samples jumps between them."""
    return statistics.mean(reference) / REFERENCE_NOMINAL_S


def tail(latencies: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND operations above it."""
    return sorted(latencies)[-TAIL_BEYOND - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "evspace" / "__init__.py").is_file():
        print(f"error: no evspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        gen_start = perf_counter()
        ops = instances.build(args.workload, args.seed, work)
        warm = instances.warmup_ops(work)
        gen_s = perf_counter() - gen_start
        modules, setups, setup_reference = setup(warm, gen_s)
        result, detail = measure(args, modules, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                  generate_s=gen_s, setups_s=setups, setup_reference_s=setup_reference,
                  instance_set={kind: sum(op.kind == kind for op in ops)
                                for kind in sorted({op.kind for op in ops})})
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups) / slowness(setup_reference), "unit": "s"}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


def traced_pass(runner: Runner, tracer: Tracer, paired: dict[str, float]) -> list[float]:
    """One pass with every operation traced.  Every OVERHEAD_EVERY-th
    operation also runs untraced, before or after its traced run in turn,
    so that the two can be compared on the same inputs."""
    times = []
    for idx, op in enumerate(runner.ops):
        pair = idx % OVERHEAD_EVERY == 0
        untraced_first = (idx // OVERHEAD_EVERY) % 2 == 0
        if pair and untraced_first:
            paired["untraced"] += runner.run(idx, op)
        tracer.install()
        runner.tracer = tracer
        try:
            elapsed = runner.run(idx, op)
        finally:
            tracer.uninstall()
            runner.tracer = None
        times.append(elapsed)
        if pair:
            paired["traced"] += elapsed
            if not untraced_first:
                paired["untraced"] += runner.run(idx, op)
    return times


def measure(args, modules: dict[str, object], ops: list) -> tuple[dict, dict]:
    runner = Runner(modules, ops, REFERENCE_EVERY_S)
    tracer = Tracer(modules) if args.trace else None
    paired = {"traced": 0.0, "untraced": 0.0}
    latencies: list[float] = []
    pass_s: list[float] = []
    start = perf_counter()
    while True:
        times = runner.run_pass() if tracer is None else traced_pass(runner, tracer, paired)
        latencies += times
        pass_s.append(sum(times))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(pass_s) / 2 >= args.seconds:
            break

    result = {"correct": not runner.wrong, "attempted": runner.calls, "failed": runner.failed}
    by_kind: dict[str, list[float]] = {}
    for op, elapsed in zip(ops * len(pass_s), latencies):
        by_kind.setdefault(op.kind, []).append(elapsed * 1000)
    detail = {"passes": len(pass_s), "ops_per_pass": len(ops), "pass_s": pass_s,
              "cpu_s": runner.cpu_s, "wrong": runner.wrong[:20],
              "reference_s": runner.reference_s,
              "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
              "tail_rank": f"{len(latencies) - TAIL_BEYOND} of {len(latencies)}",
              "first_pass_ms": [[op.kind, t * 1000] for op, t in zip(ops, latencies)]}
    slow = slowness(runner.reference_s)
    detail["slowness"] = slow
    detail["raw_ops_per_s"] = len(latencies) / sum(latencies)
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": {"value": len(latencies) / sum(latencies) * slow, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) * 1000 / slow,
                               "unit": "ms"},
            "latency_tail_ms": {"value": tail(latencies) * 1000 / slow, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        return result, detail
    metrics = tracer.metrics(len(latencies), slow)
    metrics["trace.overhead_pct"] = {
        "value": (paired["traced"] / paired["untraced"] - 1) * 100, "unit": "%"}
    for name, metric in metrics.items():
        if "absent" in metric:
            print(f"absent: {name}: {metric['absent']}", file=sys.stderr)
    detail["overhead_pairs_s"] = paired
    result["metrics"] = metrics
    tracer.write(OUT / f"trace-{args.workload}.json")
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
