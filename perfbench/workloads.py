"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: the next top-level call
starts only after the previous one has returned.  Calls go through
``qsearch.cli.main(argv)`` in this process, exactly as the ``qsearch``
console script would run them.  Inputs come only from the run seed.

A workload yields *groups* of *units*.  A unit is the unit of work that
``ops_per_s`` counts; a run stops at a group boundary once the timed
budget is spent, so every run covers whole groups and the mix of inputs
inside a run does not depend on where the clock ran out.  A traced run
covers the first TRACE_GROUPS groups, a fixed amount of work per seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import time
import traceback
from dataclasses import dataclass

import numpy as np

import qsearch.circuits
import qsearch.cli
import qsearch.simulator
from qsearch.circuits import solution_outcome
from qsearch.esp import esp, ranking_baseline
from qsearch.optimizer import load_plan, optimize_t1_closed_form
from qsearch.prior import new_prior, sample_random_prior


@dataclass
class Call:
    """One top-level CLI call and what it left behind."""

    command: str
    ns: int
    code: object  # exit code, or None when main raised
    stdout: str
    stderr: str
    data: object = None  # in-round results the check needs


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = qsearch.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
        ns = time.perf_counter_ns() - start
    return Call(argv[0], ns, code, out.getvalue(), err.getvalue())


def _exit_problem(call):
    if call.code == 0:
        return None
    tail = call.stderr.strip().splitlines()[-1:] or [""]
    return f"{call.command} exited {call.code!r}: {tail[0]}"


def _cap(t):
    # Written out here, not taken from qsearch.optimizer.cap, so that a wrong
    # cap cannot make the feasibility check agree with itself.
    return math.sin(math.pi / (2.0 * (2 * t + 1))) ** 2


def _rng(seed, stream):
    return np.random.Generator(np.random.PCG64([seed, stream]))


# ------------------------------------------------------------------- sweep


METHODS = ("classical", "grover-uniform", "ranking", "optimal")


class Sweep:
    """Repeated ``compare`` calls at the acceptance shape (n=512, t=1..22).

    Unit: one (sample, t) cell.  Group: one call of SAMPLES samples, with
    its own ``--seed`` drawn from the run seed.  One sample a call gives a
    run a couple of dozen call latencies instead of a handful.
    """

    T_MAX = 22
    SAMPLES = 1
    TRACE_GROUPS = 8

    def __init__(self, seed, workdir, n=512):
        self.workdir = workdir
        self.n = n
        self.seeds = _rng(seed, 1)
        self.digests = {}  # compare --seed -> sha256 of its CSV

    def groups(self):
        for index in itertools.count():
            yield [(index, int(self.seeds.integers(0, 2**31)))]

    def work(self, unit):
        return self.SAMPLES * self.T_MAX

    def run(self, unit):
        index, seed = unit
        out = os.path.join(self.workdir, f"sweep-{index}.csv")
        argv = ["compare", "--n", str(self.n), "--samples", str(self.SAMPLES),
                "--t-min", "1", "--t-max", str(self.T_MAX), "--seed", str(seed),
                "--out", out]
        return [cli_call(argv)]

    def check(self, unit, calls):
        (call,) = calls
        problem = _exit_problem(call)
        if problem is None:
            problem = self._check_csv(*unit)
        return [problem]

    def _check_csv(self, index, seed):
        path = os.path.join(self.workdir, f"sweep-{index}.csv")
        with open(path, "rb") as fh:
            raw = fh.read()
        self.digests[seed] = hashlib.sha256(raw).hexdigest()
        lines = raw.decode("utf-8").splitlines()
        if lines[:1] != ["t,method,mean_esp,std_esp,samples,seed"]:
            return f"bad CSV header {lines[:1]!r}"
        expected = [(t, m) for t in range(1, self.T_MAX + 1) for m in METHODS]
        if len(lines) - 1 != len(expected):
            return f"CSV has {len(lines) - 1} rows, expected {len(expected)}"
        optimal = {}
        for line, (t, method) in zip(lines[1:], expected):
            fields = line.split(",")
            if fields[:2] != [str(t), method] or fields[4:] != [str(self.SAMPLES), str(seed)]:
                return f"CSV row out of order or mislabelled: {line!r}"
            if method == "optimal":
                optimal[t] = float(fields[2])
        priors = [sample_random_prior(self.n, seed ^ s) for s in range(self.SAMPLES)]
        closed = float(np.mean([esp(p, optimize_t1_closed_form(p)) for p in priors]))
        if abs(optimal[1] - closed) > 1e-12:
            return f"t=1 optimal mean {optimal[1]!r} != closed form {closed!r}"
        for t in range(1, self.T_MAX + 1):
            if self.n * _cap(t) <= 1.0 and abs(optimal[t] - 1.0) > 1e-12:
                return f"slack-path row t={t} reads {optimal[t]!r}, expected 1.0"
        return None


# ----------------------------------------------------------------- certify


class Certify:
    """Rounds of ``verify``, ``theta-table`` and ``emit`` (+ parse, gate-sim).

    Unit: one round.  Group: one pass over VERIFY_POOL in an order drawn
    from the run seed.  verify's cost depends strongly on its own seed (its
    ascent-bound check draws n and t at random; one call takes 2 s to 8 s on
    the reference box), so each run covers whole passes of a fixed pool of
    verify seeds: a run then measures the same verify work whatever its
    seed, and the run seed varies the order, the emitted sigma and the label.
    The pool is small so that a pass (about 9 s) is short next to a run and
    a run holds several passes, hence several calls of each command.
    """

    VERIFY_POOL = (0, 1, 2)
    TRACE_GROUPS = 2

    def __init__(self, seed, workdir, pool=VERIFY_POOL, verify_flags=()):
        self.workdir = workdir
        self.pool = pool
        self.verify_flags = list(verify_flags)
        self.rng = _rng(seed, 2)
        self.index = itertools.count()

    def groups(self):
        while True:
            order = self.rng.permutation(len(self.pool))
            group = []
            for position in order:
                j = int(self.rng.integers(0, 10))  # sigma = j/80 lies in [0, 1/8)
                label = format(int(self.rng.integers(0, 8)), "03b")
                group.append((next(self.index), self.pool[position], j, label))
            yield group

    def work(self, unit):
        return 1

    def run(self, unit):
        index, verify_seed, j, label = unit
        qasm = os.path.join(self.workdir, f"circuit-{index}.qasm")
        calls = [
            cli_call(["verify", "--seed", str(verify_seed)] + self.verify_flags),
            cli_call(["theta-table", "--out", os.path.join(self.workdir, f"theta-{index}.csv")]),
            cli_call(["emit", "--sigma", repr(j / 80), "--solution", label, "--out", qasm]),
        ]
        emit = calls[2]
        if emit.code == 0:
            try:
                with open(qasm, encoding="utf-8") as fh:
                    circuit = qsearch.circuits.parse_qasm(fh.read())
                emit.data = qsearch.simulator.run_gate_circuit(circuit)
            except Exception:
                emit.data = traceback.format_exc()
        return calls

    def check(self, unit, calls):
        verify, theta, emit = calls
        problems = [_exit_problem(verify), _exit_problem(theta), _exit_problem(emit)]
        if problems[0] is None:
            passes = sum(1 for line in verify.stdout.splitlines() if line.split()[1:2] == ["PASS"])
            if passes != 6:
                problems[0] = f"verify printed {passes} PASS lines, expected 6"
        if problems[2] is None:
            problems[2] = self._check_emit(unit, emit)
        return problems

    @staticmethod
    def _check_emit(unit, emit):
        label = unit[3]
        match = re.fullmatch(r"predicted_success (\S+)\n", emit.stdout)
        if match is None:
            return f"emit printed {emit.stdout!r}"
        if not isinstance(emit.data, np.ndarray):
            return f"emitted QASM did not parse or simulate: {emit.data}"
        simulated = float(emit.data[solution_outcome(label)])
        predicted = float(match.group(1))
        if abs(simulated - predicted) > 1e-10:
            return f"gate simulation gives {simulated!r}, emit predicted {predicted!r}"
        return None


# -------------------------------------------------------------------- plan


class Plan:
    """Single ``optimize`` calls from prior JSON files, n=65,536.

    Unit: one call.  Group: one cycle over the three prior shapes times
    t in {1, 4, 16}; cycle c reads variant c mod VARIANTS of each shape.
    """

    T_VALUES = (1, 4, 16)
    TRACE_GROUPS = 4
    SHAPES = ("flat", "zipf", "sparse")
    VARIANTS = 3

    def __init__(self, seed, workdir, n=65536):
        self.workdir = workdir
        rng = _rng(seed, 3)
        self.priors = {}  # (shape, variant) -> (path, Prior)
        for variant in range(self.VARIANTS):
            for shape in self.SHAPES:
                raw = self._weights(shape, n, rng)
                path = os.path.join(workdir, f"prior-{shape}-{variant}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"weights": raw.tolist()}, fh)
                self.priors[shape, variant] = (path, new_prior(raw))

    @staticmethod
    def _weights(shape, n, rng):
        if shape == "flat":
            return rng.random(n)
        if shape == "zipf":
            return rng.permutation(1.0 / np.arange(1, n + 1) ** 1.1)
        weights = np.zeros(n)  # sparse: 95% zeros
        keep = rng.choice(n, size=max(1, n // 20), replace=False)
        weights[keep] = rng.random(keep.size)
        return weights

    def groups(self):
        index = itertools.count()
        for cycle in itertools.count():
            yield [
                (next(index), shape, cycle % self.VARIANTS, t)
                for shape in self.SHAPES
                for t in self.T_VALUES
            ]

    def work(self, unit):
        return 1

    def run(self, unit):
        index, shape, variant, t = unit
        path = self.priors[shape, variant][0]
        out = os.path.join(self.workdir, f"plan-{index}.json")
        return [cli_call(["optimize", "--prior", path, "--t", str(t), "--out", out])]

    def check(self, unit, calls):
        (call,) = calls
        problem = _exit_problem(call)
        out = os.path.join(self.workdir, f"plan-{unit[0]}.json")
        if problem is None:
            try:
                problem = self._check_plan(unit, load_plan(out))
            except Exception as exc:  # a plan that does not load is a failed call
                problem = f"plan file does not load: {exc!r}"
        if os.path.exists(out):
            os.remove(out)
        return [problem]

    def _check_plan(self, unit, plan):
        _, shape, variant, t = unit
        p = self.priors[shape, variant][1]
        q = plan.q
        if plan.t != t or q.size != p.n:
            return f"plan has t={plan.t}, n={q.size}; expected t={t}, n={p.n}"
        if q.min() < 0.0 or q.max() > _cap(t) or q.sum() > 1.0 + 1e-12:
            return f"infeasible plan: min {q.min()!r} max {q.max()!r} sum {q.sum()!r}"
        stored = plan.meta.get("esp")
        value = esp(p, plan)
        if stored is None or abs(stored - value) > 1e-12:
            return f"stored esp {stored!r} != recomputed {value!r}"
        if t == 1:
            closed = esp(p, optimize_t1_closed_form(p))
            if abs(value - closed) > 1e-12:
                return f"t=1 esp {value!r} != closed form {closed!r}"
        ranking = ranking_baseline(p, t).value
        if value < ranking - 1e-9:
            return f"esp {value!r} below the ranking baseline {ranking!r}"
        return None


WORKLOADS = {"sweep": Sweep, "certify": Certify, "plan": Plan}
