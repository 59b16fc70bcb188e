"""Per-layer spans and counters, installed from outside the program.

Each hook replaces one module attribute of evspace with a wrapper, so the
program itself is unchanged.  A wrapper records a span ``[name, start, end,
parent, op]`` in memory, or only bumps a counter where a span per call would
cost more than the call.  A layer's self time is its spans' time minus the
time of their child spans.  If a later version of the program no longer has
a hooked name, the metrics that need it are reported absent, with the reason.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self, modules: dict[str, object]):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.singleton = 0
        self.in_decompose = 0
        self.absent: dict[str, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, before: Callable | None = None,
              after: Callable | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scoped(self, attr: str, fn: Callable, applies: Callable) -> Callable:
        """Raise ``self.<attr>`` while inside a call for which ``applies(args)``."""
        def wrapper(*args, **kwargs):
            if not applies(args):
                return fn(*args, **kwargs)
            setattr(self, attr, getattr(self, attr) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr, getattr(self, attr) - 1)
        return wrapper

    def _on_solve(self, args) -> None:
        rows = args[0]
        self.counts["simplex.lp_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        if self.singleton:
            self.counts["pitowsky.singleton_lps"] += 1

    def _on_membership(self, args) -> None:
        if self.in_decompose:
            self.counts["pitowsky.decompose_lps"] += 1

    def _on_decompose(self, result) -> None:
        self.counts["pitowsky.subsets"] += len(getattr(result, "subsets", ()))

    def _hooks(self) -> list[tuple[str, str, Callable[[Callable], Callable]]]:
        """(module, attribute, wrap) for every hook; a dotted attribute is a
        method on a class."""
        span = self._span
        return [
            ("cli", "main", lambda f: span("cli.main", f)),
            ("cli", "Report.to_text", lambda f: span("cli.Report.to_text", f)),
            ("cli", "parse_correlation_vector",
             lambda f: span("core.parse_correlation_vector", f)),
            ("cli", "parse_event_table", lambda f: span("core.parse_event_table", f)),
            ("estimation", "parse_corpus", lambda f: span("estimation.parse_corpus", f)),
            ("pitowsky", "decompose",
             lambda f: self._scoped("in_decompose",
                                    span("pitowsky.decompose", f, after=self._on_decompose),
                                    lambda a: True)),
            ("pitowsky", "_feasibility",
             lambda f: self._scoped("singleton", f, lambda a: len(a[1]) == 1)),
            ("pitowsky", "membership",
             lambda f: span("pitowsky.membership", f, before=self._on_membership)),
            ("pitowsky", "solve_feasibility",
             lambda f: span("simplex.solve_feasibility", f, before=self._on_solve)),
            ("simplex", "_pivot", lambda f: self._counter("simplex.pivots", f)),
            ("admissibility", "classify", lambda f: span("admissibility.classify", f)),
            ("estimation", "estimate_triple", lambda f: span("estimation.estimate_triple", f)),
            ("estimation", "survey_corpus", lambda f: span("estimation.survey_corpus", f)),
            ("estimation", "broker_mix", lambda f: span("estimation.broker_mix", f)),
            ("estimation", "smooth_triple", lambda f: span("estimation.smooth_triple", f)),
            ("quantum", "realize", lambda f: span("quantum.realize", f)),
        ]

    def install(self) -> None:
        for module, attr, wrap in self._hooks():
            owner = self.modules[module]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.absent[f"{module}.{attr}"] = f"evspace.{module} has no {attr}"
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, wrap(original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[Counter, dict[str, float], dict[str, float]]:
        """Per span name: call count, total seconds, self seconds."""
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - children[idx]
        return calls, total, own

    def metrics(self, ops: int, slowness: float) -> dict[str, dict]:
        """Every per-layer metric, as a mean per operation; times are
        divided by the machine's slowness, as the end-to-end times are."""
        calls, total, own = self.totals()
        c = self.counts
        ms = 1000.0 / slowness
        membership_lps = c["pitowsky.decompose_lps"]
        table = [
            ("simplex.pivots", "count/op", ["simplex._pivot"], c["simplex.pivots"]),
            ("simplex.calls", "count/op", ["pitowsky.solve_feasibility"],
             calls["simplex.solve_feasibility"]),
            ("simplex.solve_ms", "ms/op", ["pitowsky.solve_feasibility"],
             total["simplex.solve_feasibility"] * ms),
            ("simplex.lp_cells", "count/op", ["pitowsky.solve_feasibility"],
             c["simplex.lp_cells"]),
            ("pitowsky.membership_calls", "count/op", ["pitowsky.membership"],
             calls["pitowsky.membership"]),
            ("pitowsky.membership_self_ms", "ms/op",
             ["pitowsky.membership", "pitowsky.solve_feasibility"],
             own["pitowsky.membership"] * ms),
            ("pitowsky.decompose_self_ms", "ms/op",
             ["pitowsky.decompose", "pitowsky.membership"],
             own["pitowsky.decompose"] * ms),
            ("pitowsky.singleton_lps", "count/op",
             ["pitowsky._feasibility", "pitowsky.solve_feasibility"],
             c["pitowsky.singleton_lps"]),
            ("core.parse_calls", "count/op",
             ["cli.parse_correlation_vector", "cli.parse_event_table"],
             calls["core.parse_correlation_vector"] + calls["core.parse_event_table"]),
            ("core.parse_ms", "ms/op",
             ["cli.parse_correlation_vector", "cli.parse_event_table"],
             (total["core.parse_correlation_vector"] + total["core.parse_event_table"]) * ms),
            ("cli.render_ms", "ms/op", ["cli.Report.to_text"],
             total["cli.Report.to_text"] * ms),
            ("cli.main_self_ms", "ms/op", ["cli.main"], own["cli.main"] * ms),
            ("admissibility.classify_calls", "count/op", ["admissibility.classify"],
             calls["admissibility.classify"]),
            ("admissibility.classify_ms", "ms/op", ["admissibility.classify"],
             total["admissibility.classify"] * ms),
            ("estimation.survey_self_ms", "ms/op",
             ["estimation.survey_corpus", "admissibility.classify"],
             own["estimation.survey_corpus"] * ms),
            ("estimation.estimate_ms", "ms/op", ["estimation.estimate_triple"],
             total["estimation.estimate_triple"] * ms),
            ("quantum.realize_ms", "ms/op", ["quantum.realize"], total["quantum.realize"] * ms),
        ]
        out = {}
        for name, unit, needs, value in table:
            out[name] = {"value": value / ops, "unit": unit}
            missing = [self.absent[n] for n in needs if n in self.absent]
            if missing:
                out[name]["absent"] = "; ".join(missing)
        out["pitowsky.subset_yield"] = {
            "value": c["pitowsky.subsets"] / membership_lps if membership_lps else 0.0,
            "unit": "ratio"}
        missing = [self.absent[n] for n in ("pitowsky.decompose", "pitowsky.membership")
                   if n in self.absent]
        if missing:
            out["pitowsky.subset_yield"]["absent"] = "; ".join(missing)
        return out

    def write(self, path: Path) -> None:
        """Spans as ``[name, start_s, end_s, parent_index, op]`` plus counters."""
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }, separators=(",", ":")))
