"""Spans and counters recorded from outside the program, for the traced run.

Timing wrappers are installed on the names the *caller* looks up (the
module globals of ``fpfusion.fusion`` and ``fpfusion.evaluation`` and the
``Gallery`` methods), so nothing under ``src/`` changes. They are installed
only around traced operations; untraced operations run the original
functions. A name the program no longer has is skipped and reports 0 calls.

Every span records its name, start, end, parent span and operation id. Spans
stay in memory and are written out once, at the end of the run. The program
is single-process and queues no work, so no wait time exists to record.
"""

from __future__ import annotations

import csv
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

SETUP = "setup"  # operation id of spans recorded while setting up


def _count_descriptors(layer):
    def count(counts, args, kwargs, result):
        counts[f"{layer}.minutiae"] += len(result)
        counts[f"{layer}.invalid"] += len(result) - int(result.valid.sum())

    return count


def _count_sim(counts, args, kwargs, result):
    counts["pairing.sim_entries"] += result.gated.size
    counts["pairing.gated"] += int(result.gated.sum())


def _count_select(counts, args, kwargs, result):
    n_r = args[1] if len(args) > 1 else kwargs["n_r"]
    counts["pairing.select_requested"] += max(n_r, 0)
    counts["pairing.select_returned"] += len(result)


def _count_relax(counts, args, kwargs, result):
    counts["relaxation.pairs"] += len(result)


def _count_match(counts, args, kwargs, result):
    counts["fusion.channel_results"] += len(result)
    counts["fusion.empty"] += sum(1 for r in result.values() if r.n_pairs_used == 0)


# (module[:class], attribute looked up by the caller, span name, counter hook)
TARGETS = (
    ("fpfusion.fusion", "sim_score", "pairing.sim_score", _count_sim),
    ("fpfusion.fusion", "lsa_select", "pairing.lsa_select", _count_select),
    ("fpfusion.fusion", "relax", "relaxation.relax", _count_relax),
    ("fpfusion.fusion", "match_score", "relaxation.match_score", None),
    ("fpfusion.evaluation", "match_all_channels", "fusion.match_all_channels", _count_match),
    ("fpfusion.evaluation", "build_mcc_set", "mcc.build_mcc_set", _count_descriptors("mcc")),
    (
        "fpfusion.evaluation",
        "build_synthetic_embeddings",
        "embedding.build_synthetic_embeddings",
        _count_descriptors("embedding"),
    ),
    ("fpfusion.evaluation:Gallery", "enroll", "evaluation.enroll", None),
    ("fpfusion.evaluation:Gallery", "prepare_query", "evaluation.prepare_query", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class NullTracer:
    """Stands in for a Tracer in untraced operations."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts = {SETUP: Counter(), "op": Counter()}
        self.op = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts[SETUP if self.op == SETUP else "op"], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def traced(self, op_id):
        """Install the wrappers and record one operation (or the set-up)."""
        for path, attr, name, hook in TARGETS:
            owner = _owner(path)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is not None:
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
        self.op = op_id
        try:
            with self.span(SETUP if op_id == SETUP else "op"):
                yield self
        finally:
            self.op = None
            while self._installed:
                owner, attr, fn = self._installed.pop()
                setattr(owner, attr, fn)

    def totals(self):
        """Per (phase, span name): calls, total ns and self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, parent, op), children in zip(self.spans, child_ns):
            row = out[(SETUP if op == SETUP else "op", name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "start_ns", "end_ns", "parent", "op"])
            writer.writerows(self.spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics: per traced operation, per set-up, or ratios."""
    t = tracer.totals()
    c = tracer.counts["op"]

    def calls(name):
        return t[("op", name)][0] / n_ops

    def ms(name, phase="op", col=1):
        return t[(phase, name)][col] / 1e6 / (n_ops if phase == "op" else 1)

    rows = [
        ("trace.op_ms", "ms/op", ms("op")),
        ("trace.overhead_frac", "ratio", overhead_frac),
        ("mcc.build_mcc_set.calls", "1/op", calls("mcc.build_mcc_set")),
        ("mcc.build_mcc_set.ms", "ms/op", ms("mcc.build_mcc_set")),
        ("mcc.minutiae", "1/op", c["mcc.minutiae"] / n_ops),
        ("mcc.invalid_frac", "ratio", _ratio(c["mcc.invalid"], c["mcc.minutiae"])),
        (
            "embedding.build_synthetic_embeddings.calls",
            "1/op",
            calls("embedding.build_synthetic_embeddings"),
        ),
        (
            "embedding.build_synthetic_embeddings.ms",
            "ms/op",
            ms("embedding.build_synthetic_embeddings"),
        ),
        (
            "embedding.invalid_frac",
            "ratio",
            _ratio(c["embedding.invalid"], c["embedding.minutiae"]),
        ),
        ("templates.load_template.calls", "1/op", calls("templates.load_template")),
        ("templates.load_template.ms", "ms/op", ms("templates.load_template")),
        ("pairing.sim_score.calls", "1/op", calls("pairing.sim_score")),
        ("pairing.sim_score.ms", "ms/op", ms("pairing.sim_score")),
        ("pairing.sim_entries", "1/op", c["pairing.sim_entries"] / n_ops),
        ("pairing.gated_frac", "ratio", _ratio(c["pairing.gated"], c["pairing.sim_entries"])),
        ("pairing.lsa_select.calls", "1/op", calls("pairing.lsa_select")),
        ("pairing.lsa_select.ms", "ms/op", ms("pairing.lsa_select")),
        (
            "pairing.select_fill",
            "ratio",
            _ratio(c["pairing.select_returned"], c["pairing.select_requested"]),
        ),
        ("relaxation.relax.calls", "1/op", calls("relaxation.relax")),
        ("relaxation.relax.ms", "ms/op", ms("relaxation.relax")),
        (
            "relaxation.pairs_per_relax",
            "1/call",
            _ratio(c["relaxation.pairs"], t[("op", "relaxation.relax")][0]),
        ),
        ("relaxation.match_score.calls", "1/op", calls("relaxation.match_score")),
        ("relaxation.match_score.ms", "ms/op", ms("relaxation.match_score")),
        ("fusion.match_all_channels.calls", "1/op", calls("fusion.match_all_channels")),
        (
            "fusion.match_all_channels.self_ms",
            "ms/op",
            ms("fusion.match_all_channels", col=2),
        ),
        ("fusion.empty_frac", "ratio", _ratio(c["fusion.empty"], c["fusion.channel_results"])),
        ("evaluation.identify_all.self_ms", "ms/op", ms("evaluation.identify_all", col=2)),
        ("evaluation.prepare_query.self_ms", "ms/op", ms("evaluation.prepare_query", col=2)),
        ("evaluation.enroll.self_ms", "ms/op", ms("evaluation.enroll", col=2)),
        ("setup.ms", "ms/setup", ms(SETUP, SETUP)),
        ("synthetic.ms", "ms/setup", ms("synthetic", SETUP)),
        ("setup.mcc.build_mcc_set.ms", "ms/setup", ms("mcc.build_mcc_set", SETUP)),
        (
            "setup.embedding.build_synthetic_embeddings.ms",
            "ms/setup",
            ms("embedding.build_synthetic_embeddings", SETUP),
        ),
        ("setup.evaluation.enroll.self_ms", "ms/setup", ms("evaluation.enroll", SETUP, 2)),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}
