"""In-process tracing of motr from the outside.

Wrappers go on the attribute each caller actually looks up (a module global
such as ``motr.solver.solve_marginal`` or a class attribute such as
``FiniteSumOracle.evaluate``), so motr's sources stay untouched. Each call
becomes a span (id, parent, trace, name, start, end) kept in memory; a new
trace id starts at every ``run_final`` call, i.e. per simulation or restart.
A layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from time import perf_counter

import numpy as np

from checks import RESTART_WARNING

# (layer, owner path, attribute). Owners are modules or classes under motr.
BOUNDARIES = (
    ("harness.run_experiment", "cli", "run_experiment"),
    ("harness.emit", "cli", "emit"),
    ("harness.build_oracle", "harness.ExperimentSpec", "build_oracle"),
    ("oracles.load_dataset", "harness", "load_dataset"),
    ("oracles.make_synthetic_logistic", "harness", "make_synthetic_logistic"),
    ("solver.run_final", "harness", "run_final"),
    ("solver.run_final", "pareto", "run_final"),
    ("solver.smop_iterate", "solver", "smop_iterate"),
    ("solver.build_model", "solver", "build_model"),
    ("solver.spectral_norm", "solver", "spectral_norm"),
    ("solver.cauchy_step", "solver", "cauchy_step"),
    ("marginal.solve_marginal", "solver", "solve_marginal"),
    ("marginal.solve_marginal", "harness", "solve_marginal"),
    ("core.ObjectiveSample", "core.ObjectiveSample", "__post_init__"),
    ("oracles.evaluate", "oracles.AnalyticOracle", "evaluate"),
    ("oracles.evaluate", "oracles.FiniteSumOracle", "evaluate"),
    ("oracles.evaluate", "oracles.ExactOracle", "evaluate"),
    ("oracles.exact_evaluate", "oracles.AnalyticOracle", "exact_evaluate"),
    ("oracles.exact_evaluate", "oracles.FiniteSumOracle", "exact_evaluate"),
    ("oracles.exact_evaluate", "oracles.ExactOracle", "exact_evaluate"),
    ("pareto.front_round", "pareto", "front_round"),
    ("pareto.dominance_filter", "pareto", "dominance_filter"),
    ("pareto.thin", "pareto", "_thin"),
)
LAYERS = ("cli.main",) + tuple(dict.fromkeys(b[0] for b in BOUNDARIES))
COUNTERS = ("marginal.solve_marginal.unconverged", "oracles.evaluate.rows",
            "oracles.full_batch_frac", "solver.accept_frac",
            "pareto.dominance_filter.input_n", "pareto.restarts",
            "pareto.restart_fail_frac", "harness.emit.bytes")


def _on_marginal(counts, args, result):
    counts["marginal.solve_marginal.unconverged"] += not result.converged


def _on_evaluate(counts, args, result):
    counts["oracles.evaluate.rows"] += result.cost
    if result.cost:
        counts["finite_evals"] += 1
        counts["full_batch_evals"] += bool(
            np.array_equal(result.sample_sizes, args[0].group_sizes()))


def _on_iterate(counts, args, result):
    counts["accepted"] += bool(result.history[-1].success)


def _on_filter(counts, args, result):
    counts["pareto.dominance_filter.input_n"] += len(args[0])


def _on_emit(counts, args, result):
    path = args[1]
    for p in (path, f"{path}.summary.json"):
        if os.path.exists(p):
            counts["harness.emit.bytes"] += os.path.getsize(p)


HOOKS = {"marginal.solve_marginal": _on_marginal, "oracles.evaluate": _on_evaluate,
         "solver.smop_iterate": _on_iterate, "pareto.dominance_filter": _on_filter,
         "harness.emit": _on_emit}


class _WarningCounter(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if record.getMessage().startswith(RESTART_WARNING):
            self.counts["restart_warnings"] += 1


class Tracer:
    """Collects spans and counts for one traced call; use as a context
    manager to install the wrappers and remove them again."""

    def __init__(self, motr):
        self.motr = motr
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []
        self._next_id = 1
        self._next_trace = 1
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _WarningCounter(self.counts)

    def _owner(self, path: str):
        obj = self.motr
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        new_trace = name == "solver.run_final"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent, trace = stack[-1] if stack else (0, 0)
            sid = self._next_id
            self._next_id += 1
            if new_trace:
                trace = self._next_trace
                self._next_trace += 1
            stack.append((sid, trace))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, trace, name, start, end))
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def __enter__(self):
        for name, owner_path, attr in BOUNDARIES:
            owner = self._owner(owner_path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        logging.getLogger("motr.pareto").addHandler(self._handler)
        return self

    def __exit__(self, *exc):
        logging.getLogger("motr.pareto").removeHandler(self._handler)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls and self time plus the counters, by metric name."""
    child_time: Counter = Counter()
    for _, parent, _, _, start, end in tracer.spans:
        child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for sid, _, _, name, start, end in tracer.spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
    c = tracer.counts
    by_id = {s[0]: s[3] for s in tracer.spans}
    restarts = sum(1 for s in tracer.spans
                   if s[3] == "solver.run_final" and by_id.get(s[1]) == "pareto.front_round")
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics.update({
        "marginal.solve_marginal.unconverged": c["marginal.solve_marginal.unconverged"],
        "oracles.evaluate.rows": c["oracles.evaluate.rows"],
        "oracles.full_batch_frac": _ratio(c["full_batch_evals"], c["finite_evals"]),
        "solver.accept_frac": _ratio(c["accepted"], calls["solver.smop_iterate"]),
        "pareto.dominance_filter.input_n": c["pareto.dominance_filter.input_n"],
        "pareto.restarts": restarts,
        "pareto.restart_fail_frac": _ratio(c["restart_warnings"], restarts),
        "harness.emit.bytes": c["harness.emit.bytes"],
    })
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(tracer: Tracer, path) -> None:
    """One CSV line per span, times relative to the first span's start."""
    t0 = min(s[4] for s in tracer.spans)
    with open(path, "w") as fh:
        fh.write("id,parent,trace,name,start_s,end_s\n")
        for sid, parent, trace, name, start, end in sorted(tracer.spans):
            fh.write(f"{sid},{parent},{trace},{name},{start - t0:.9f},{end - t0:.9f}\n")
