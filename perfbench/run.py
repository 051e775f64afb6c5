#!/usr/bin/env python3
"""qsearch benchmark: sweep, certify and plan workloads driven through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout (nothing needs to
be installed).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics for
``--trace 0``, the per-layer metrics for ``--trace 1``.  The line before it
is a ``{"record": ...}`` object with the environment, sample counts,
per-command latencies and, for ``sweep``, the sha256 of every CSV written.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os
import sys

# Pinned before NumPy is imported anywhere in this process or its children.
THREAD_VARS = ("QSEARCH_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed for setup_s, after one unmeasured start that
# leaves the bytecode cache written.
SETUP_REPEATS = 9
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import qsearch
qsearch.optimize(qsearch.sample_random_prior(512, {seed}), 4)
sys.stdout.write(repr(time.perf_counter() - start))
"""


def declared(kind):
    """(name, unit) of every metric BENCHMARK.json declares under ``kind``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def bootstrap():
    """Import qsearch from this checkout's src/, or exit non-zero."""
    if not (SRC / "qsearch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qsearch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qsearch

    if Path(qsearch.__file__).resolve().parent != SRC / "qsearch":
        raise SystemExit(f"perfbench: imported qsearch from {qsearch.__file__}, not {SRC}")
    return qsearch


def measure_setup(seed):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once(index):
        code = SETUP_CODE.format(seed=seed * SETUP_REPEATS + index)
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout)

    once(SETUP_REPEATS)
    runs = [once(index) for index in range(SETUP_REPEATS)]
    return statistics.median(runs), runs


def nearest_rank(sorted_values, share):
    """The smallest value with at least ``share`` of the values at or below it."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


class Phase:
    """Totals of one set of timed units."""

    def __init__(self):
        self.units = []
        self.unit_ns = []
        self.work = 0
        self.calls = []  # (command, ns)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def timed_ns(self):
        return sum(self.unit_ns)

    @property
    def ops_per_s(self):
        return self.work / (self.timed_ns / 1e9)


def run_unit(workload, unit, phase, tracer=None):
    """Time one unit into ``phase``, traced when ``tracer`` is given.  The
    output check runs after the clock stops and outside the trace."""
    context = contextlib.nullcontext()
    if tracer is not None:
        import tracing  # imports qsearch, so only after bootstrap()

        context = tracing.instrumented(tracer)
    with context:
        start = time.perf_counter_ns()
        calls = workload.run(unit)
        phase.unit_ns.append(time.perf_counter_ns() - start)
    problems = workload.check(unit, calls)
    phase.units.append(unit)
    phase.work += workload.work(unit)
    for call, problem in zip(calls, problems):
        phase.calls.append((call.command, call.ns))
        phase.attempted += 1
        if problem is not None:
            phase.failed += 1
            phase.problems.append(f"{unit}: {problem}")


def run_phase(workload, seconds):
    """Run whole groups, stopping at the group boundary nearest to
    ``seconds`` of unit time (at least one group)."""
    phase = Phase()
    for done, group in enumerate(workload.groups(), 1):
        for unit in group:
            run_unit(workload, unit, phase)
        # Another group would overshoot by more than stopping now falls short.
        if phase.timed_ns >= seconds * 1e9 - phase.timed_ns / done / 2:
            return phase


def run_traced(workload, tracer):
    """Run the first TRACE_GROUPS groups, each unit twice in a row: once
    plain and once traced, alternating which goes first.  The counts then
    repeat exactly for a seed, and the overhead compares the same work at
    nearly the same moment, on a machine whose speed drifts over seconds."""
    plain, traced = Phase(), Phase()
    groups = itertools.islice(workload.groups(), workload.TRACE_GROUPS)
    for index, unit in enumerate(itertools.chain.from_iterable(groups)):
        runs = [(plain, None), (traced, tracer)]
        for phase, unit_tracer in runs[::-1] if index % 2 else runs:
            run_unit(workload, unit, phase, unit_tracer)
    return plain, traced


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    return git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain", "--untracked-files=no"))


def environment(qsearch):
    import numpy as np

    sha, dirty = git_state()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas = None
    return {
        "kernel_backend": qsearch.kernel_backend(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def latency_summary(calls):
    by_command = {}
    for command, ns in calls:
        by_command.setdefault(command, []).append(ns / 1e6)
    return {
        command: {"n": len(ms), "p50_ms": statistics.median(ms), "max_ms": max(ms)}
        for command, ms in by_command.items()
    }


def measure(workload_name, seed, seconds, trace, shape=None, out_dir=OUT):
    """One benchmark run; returns (record, result) as printed by main."""
    qsearch = bootstrap()
    import tracing  # both import qsearch, so only after bootstrap()
    import workloads

    setup_s, setup_runs = measure_setup(seed)
    workdir = out_dir / f"work-{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](seed, str(workdir), **(shape or {}))
        qsearch.optimize(qsearch.sample_random_prior(64, seed), 2)  # warm-up, untimed
        if trace:
            tracer = tracing.Tracer()
            phase, traced = run_traced(workload, tracer)
            phases = [phase, traced]
            spans_path = out_dir / f"spans-{workload_name}-{seed}.jsonl"
            tracer.write(spans_path)
            values = tracing.layer_metrics(tracer, traced.timed_ns / 1e9)
            values["trace.overhead"] = traced.timed_ns / phase.timed_ns
        else:
            phase = run_phase(workload, seconds)
            phases = [phase]
            latencies = sorted(ns / 1e6 for _, ns in phase.calls)
            values = {
                "ops_per_s": phase.ops_per_s,
                "call_ms_p50": nearest_rank(latencies, 0.50),
                "call_ms_p90": nearest_rank(latencies, 0.90),
                "ok_ratio": (phase.attempted - phase.failed) / phase.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Indexed strictly: a declared metric that nothing computes is an error.
    kind = "per_layer" if trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind)}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "environment": environment(qsearch),
        "setup_runs_s": setup_runs,
        "units": len(phase.units),
        "work": phase.work,
        "timed_s": phase.timed_ns / 1e9,
        "calls": latency_summary(phase.calls),
        "problems": [p for ph in phases for p in ph.problems][:20],
    }
    if trace:
        record["traced_s"] = traced.timed_ns / 1e9
        record["spans"] = str(spans_path.relative_to(ROOT))
    if workload_name == "sweep":
        record["csv_sha256"] = workload.digests
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "plan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
