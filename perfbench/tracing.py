"""Spans and counters recorded from outside the qsearch package.

Each layer function is replaced, for the length of a traced unit, by a
wrapper installed under every name its callers look it up by (a module
attribute read at call time).  A wrapper opens a span, calls the original,
closes the span and, for some layers, adds counters computed from the
arguments and the return value.  Spans are kept in memory; self times are
derived from them at the end: a span's duration minus the durations of its
direct children.  Nothing in the package itself is modified on disk.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

from qsearch.optimizer import cap

# span name -> the (module, attribute) pairs through which callers reach it.
# ``qsearch.optimizer.optimize`` covers the deferred import inside bounds;
# ``qsearch.circuits.*`` covers both cli's ``qc.<name>`` lookups and calls
# made inside circuits itself (halfhalf_spec -> theta_for_sigma).
LAYERS = {
    "kernels.waterfill": [("qsearch.optimizer", "waterfill")],
    "optimizer.optimize": [
        ("qsearch.cli", "optimize"),
        ("qsearch.circuits", "optimize"),
        ("qsearch.optimizer", "optimize"),
    ],
    "optimizer.kkt_residual": [
        ("qsearch.optimizer", "kkt_residual"),
        ("qsearch.cli", "kkt_residual"),
    ],
    "optimizer.save_plan": [("qsearch.cli", "save_plan")],
    "esp.esp": [
        ("qsearch.optimizer", "esp"),
        ("qsearch.cli", "esp"),
        ("qsearch.bounds", "esp"),
    ],
    "esp.ranking_baseline": [("qsearch.cli", "ranking_baseline")],
    "esp.uniform_plan": [("qsearch.cli", "uniform_plan")],
    "esp.speedup_plan": [("qsearch.cli", "speedup_plan")],
    "prior.sample_random_prior": [("qsearch.cli", "sample_random_prior")],
    "prior.top_k_mass": [("qsearch.cli", "top_k_mass")],
    "prior.load_prior": [("qsearch.cli", "load_prior")],
    "bounds.theorem_a2_bound": [("qsearch.cli", "theorem_a2_bound")],
    "bounds.lemma_a1_search": [("qsearch.cli", "lemma_a1_search")],
    "simulator.run_iterations": [("qsearch.cli", "run_iterations")],
    "simulator.run_gate_circuit": [("qsearch.simulator", "run_gate_circuit")],
    "circuits.theta_for_sigma": [("qsearch.circuits", "theta_for_sigma")],
    "circuits.emit_qasm": [("qsearch.circuits", "emit_qasm")],
    "circuits.parse_qasm": [("qsearch.circuits", "parse_qasm")],
    "cli": [("qsearch.cli", "main")],
}

# Every counter a wrapper adds to, started at 0 so that a layer the
# workload never reaches reads 0 rather than going missing.
COUNTERS = (
    "kernels.waterfill.outer_iters",
    "kernels.waterfill.coord_iters",
    "kernels.waterfill.unconverged",
    "optimizer.path.waterfill",
    "optimizer.path.slack",
    "optimizer.save_plan.bytes",
    "prior.load_prior.bytes",
)


def _count_waterfill(counts, args, result):
    w_support = args[0]
    iterations, converged = result[2], result[3]
    counts["kernels.waterfill.outer_iters"] += int(iterations)
    counts["kernels.waterfill.coord_iters"] += len(w_support) * int(iterations)
    counts["kernels.waterfill.unconverged"] += 0 if converged else 1


def _count_path(counts, args, result):
    # Same split optimize makes, classified from its inputs; the t=0 path
    # (one classical guess) is not counted, as no workload takes it.
    p, t = args[0], args[1]
    if t == 0:
        return
    if int((p.weights > 0.0).sum()) * cap(t) <= 1.0:
        counts["optimizer.path.slack"] += 1
    else:
        counts["optimizer.path.waterfill"] += 1


def _count_file(key, position):
    def count(counts, args, result):
        counts[key] += os.path.getsize(args[position])

    return count


_COUNTERS = {
    "kernels.waterfill": _count_waterfill,
    "optimizer.optimize": _count_path,
    "optimizer.save_plan": _count_file("optimizer.save_plan.bytes", 2),
    "prior.load_prior": _count_file("prior.load_prior.bytes", 0),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """name -> (calls, total self seconds)."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_ns = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[index]
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}

    def write(self, path):
        """One JSON line per span; ``call`` is the id of its root span."""
        root = -1
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                root = index if parent < 0 else root
                span = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                        "parent": parent, "call": root}
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def instrumented(tracer):
    """Install ``tracer``'s wrappers over every layer; restore them on exit."""
    saved = []
    try:
        for name, targets in LAYERS.items():
            modules = [importlib.import_module(module) for module, _ in targets]
            original = getattr(modules[0], targets[0][1])
            wrapper = tracer.wrap(name, original)
            for module, (_, attr) in zip(modules, targets):
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not the function {name} wraps")
                saved.append((module, attr))
                setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr in reversed(saved):
            setattr(module, attr, getattr(module, attr).__wrapped__)


def layer_metrics(tracer, traced_s):
    """Per-layer metric values from a finished traced phase.

    ``trace.coverage`` is the share of the traced time spent inside the
    named layers below ``cli``: time in a hot path that has no wrapper of
    its own lands in ``cli.self_s`` and lowers it.
    """
    times = tracer.self_times()
    values = dict(tracer.counts)
    for name in LAYERS:
        calls, self_s = times.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    accounted = sum(self_s for name, (_, self_s) in times.items() if name != "cli")
    values["trace.coverage"] = accounted / traced_s
    return values
