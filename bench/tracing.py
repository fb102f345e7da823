"""Span tracing at the module boundaries of fracbvp, from outside the package.

A traced run wraps the public functions of each module under every name a
caller resolves them by (for example both fracbvp.fem.solve_nonlinear_fem and
the fracbvp.experiments global the study driver calls).  Wrappers return the
callee's result unchanged.  Spans (name, start, end, parent, op) and counts
stay in memory; self times are computed when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from fracbvp import fem, greens, grids, noise, problem
from fracbvp.errors import NonConvergenceError

# Operation id of the set-up phase, traced before any operation runs.
SETUP_OP = -1
ROOT_SPAN = "experiments.op"


def _calls(counter):
    def count(counts, op, result):
        counts[(op, counter)] += 1
    return count


def _solve_counts(layer):
    solves, iterations = f"{layer}.solves", f"{layer}.iterations"

    def count(counts, op, result):
        counts[(op, solves)] += 1
        counts[(op, iterations)] += result.iterations
    return count


def _dense_bytes(counts, op, result):
    # computed from the array shape, not measured
    if result.ndim == 2:
        counts[(op, "greens.operator_bytes")] += result.nbytes


# (owner, attribute, span name, count(counts, op, result), counter on stall)
TARGETS = (
    (noise.IncrementSampler, "__init__", "noise.sampler_setup", None, None),
    (noise.IncrementSampler, "sample", "noise.draw", _calls("noise.draws"), None),
    (noise, "aggregate_increments", "noise.aggregate", None, None),
    (fem, "solve_nonlinear_fem", "fem.solve", _solve_counts("fem"), "fem.nonconverged"),
    (fem.Tridiagonal, "solve", "fem.tridiag_solve", _calls("fem.tridiag_solves"), None),
    (fem, "assemble_load", "fem.load", None, None),
    (greens, "solve_hammerstein", "greens.solve", _solve_counts("greens"),
     "greens.nonconverged"),
    (greens, "greens_cell_integrals", "greens.cell_integrals", _dense_bytes, None),
    (greens, "greens_function", "greens.kernel", _dense_bytes, None),
    (grids, "discrete_l2_error", "grids.l2_error", _calls("grids.l2_error_calls"), None),
    (problem.ReactionTerm, "__call__", "problem.reaction",
     _calls("problem.reaction_calls"), None),
    (problem.ProblemSpec, "from_labels", "problem.setup", None, None),
)

LAYERS = ("noise", "fem", "greens", "grids", "problem", "experiments")
# Span self times reported per op; the root span's self time is the driver's.
SELF_TIME_METRICS = {
    "noise.draw_s": "noise.draw",
    "noise.aggregate_s": "noise.aggregate",
    "fem.solve_s": "fem.solve",
    "fem.tridiag_solve_s": "fem.tridiag_solve",
    "fem.load_s": "fem.load",
    "greens.solve_s": "greens.solve",
    "greens.cell_integrals_s": "greens.cell_integrals",
    "greens.kernel_s": "greens.kernel",
    "grids.l2_error_s": "grids.l2_error",
    "problem.reaction_s": "problem.reaction",
    "experiments.driver_self_s": ROOT_SPAN,
}
# Span self times reported for the set-up phase instead of per op.
SETUP_METRICS = {
    "noise.sampler_setup_s": "noise.sampler_setup",
    "problem.setup_s": "problem.setup",
}
COUNT_METRICS = (
    "noise.draws",
    "fem.solves", "fem.iterations", "fem.nonconverged", "fem.tridiag_solves",
    "greens.solves", "greens.iterations", "greens.nonconverged", "greens.operator_bytes",
    "grids.l2_error_calls", "problem.reaction_calls",
)


def unit_of(metric: str) -> str:
    if metric == "greens.operator_bytes":
        return "bytes"
    if metric == "trace.overhead_share":
        return "ratio"
    if metric.endswith("_s") or metric == "fem.s_per_iteration":
        return "s"
    return "count"


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = defaultdict(float)  # (op id, counter) -> total
        self._stack = []
        self._op = SETUP_OP
        self._restore = []

    def _wrap(self, fn, name, count, stall_counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NonConvergenceError:
                if stall_counter:
                    counts[(self._op, stall_counter)] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self._op)
            if count is not None:
                count(counts, self._op, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "fracbvp" or key.startswith("fracbvp.")]
        for owner, attr, name, count, stall in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, count, stall))
                else:
                    wrapped = self._wrap(raw, name, count, stall)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, count, stall)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; its self time is the driver's own."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (ROOT_SPAN, start, end, -1, op_id)
            self._op = SETUP_OP

    def self_times(self) -> dict:
        """(op id, span name) -> (self time, inclusive time), summed over spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0])
        for (name, start, end, parent, op), child in zip(self.spans, covered):
            entry = totals[(op, name)]
            entry[0] += end - start - child
            entry[1] += end - start
        return totals

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, out)


def layer_metrics(tracer: Tracer, op_ids, traced_walls, untraced_walls) -> tuple:
    """Per-layer metrics (per-op means over op_ids) and the per-op identity gaps.

    The gap of an op is |sum of its layer self times - its traced wall time|,
    the wall time measured by the caller outside the tracer.  Every traced
    moment of an op belongs to one layer, so the gap must vanish up to the
    cost of entering and leaving the root span.
    """
    totals = tracer.self_times()
    ops = len(op_ids)
    per_op = lambda name: sum(totals[(op, name)][0] for op in op_ids) / ops
    metrics = {}
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = per_op(span)
    for metric, span in SETUP_METRICS.items():
        metrics[metric] = totals[(SETUP_OP, span)][0]
    for counter in COUNT_METRICS:
        metrics[counter] = sum(tracer.counts[(op, counter)] for op in op_ids) / ops
    fem_iterations = sum(tracer.counts[(op, "fem.iterations")] for op in op_ids)
    fem_inclusive = sum(totals[(op, "fem.solve")][1] for op in op_ids)
    metrics["fem.s_per_iteration"] = fem_inclusive / fem_iterations if fem_iterations else 0.0

    traced_ops = set(op_ids)
    span_names = {name for (op, name) in totals if op in traced_ops}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(per_op(name) for name in span_names
                                         if name.split(".")[0] == layer)
    gaps = []
    for op, wall in zip(op_ids, traced_walls):
        layer_sum = sum(totals[(op, name)][0] for name in span_names)
        gaps.append(abs(layer_sum - wall))
    metrics["trace.op_s"] = statistics.fmean(traced_walls)
    metrics["trace.overhead_share"] = (statistics.median(traced_walls)
                                       / statistics.median(untraced_walls) - 1.0)
    return metrics, gaps
