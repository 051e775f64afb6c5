"""Top-level acceptance gate: ten checks, one printed verdict line each.

Each test covers one shipping criterion end to end at its stated tolerance
and wall-clock budget; run with ``pytest -s`` to see the verdict table.
"""

import csv
import hashlib
import math
import time

import numpy as np

import qsearch.cli as cli
from qsearch import (
    AmplitudePlan,
    REFERENCE_THETA,
    build_halfhalf_circuit,
    esp,
    halfhalf_prior,
    l1_distance,
    lemma_a1_search,
    new_prior,
    optimize,
    run_gate_circuit,
    run_iterations,
    sample_random_prior,
    speedup_plan,
    success_prob_single,
    theorem_a2_bound,
    theta_for_sigma,
    top_k_mass,
    uniform_plan,
)

NAIVE = new_prior([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])

#: md5 of the default compare CSV (n=512, 100 samples, t=1..22, seed 42).
SWEEP_CSV_MD5 = "29504789faf42e468e84f0795f3cd50e"


def _verdict(index, label, ok):
    print(f"criterion {index:02d} {label:<28} {'PASS' if ok else 'FAIL'}")


def _criterion(index, label, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    except BaseException:
        _verdict(index, label, False)
        raise
    _verdict(index, label, True)


def test_criterion_01_golden_values():
    def body():
        plan = optimize(NAIVE, 1)
        assert abs(esp(NAIVE, plan) - 1.0) <= 1e-9
        assert abs(esp(NAIVE, uniform_plan(8, 1)) - 0.78125) <= 1e-9
        assert abs(top_k_mass(NAIVE, 1) - 0.25) <= 1e-9

    _criterion(1, "golden example values", 1.0, body)


def test_criterion_02_theta_table(tmp_path):
    def body():
        out = tmp_path / "theta.csv"
        assert cli.main(["theta-table", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 9
        assert all(float(row[3]) <= 1e-3 for row in rows[1:])

    _criterion(2, "reference angle table", 5.0, body)


def test_criterion_03_simulator_oracle():
    def body():
        rng = np.random.Generator(np.random.PCG64(301))
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 17))
            q = rng.dirichlet(np.ones(n)) * float(rng.random())
            t = int(rng.integers(0, 7))
            x = int(rng.integers(1, n + 1))
            simulated = run_iterations(AmplitudePlan(q=q, t=t), x)
            analytic = success_prob_single(float(q[x - 1]), t)
            worst = max(worst, abs(simulated - analytic))
        assert worst <= 1e-10, f"worst |sim - analytic| = {worst:.3e}"

    _criterion(3, "simulator vs closed form", 10.0, body)


def test_criterion_04_optimality():
    def body():
        rng = np.random.Generator(np.random.PCG64(401))
        for _ in range(50):
            n = int(rng.integers(2, 17))
            t = int(rng.integers(0, 5))
            p = sample_random_prior(n, int(rng.integers(0, 2**63)))
            plan = optimize(p, t)
            best = esp(p, plan)
            assert plan.meta["kkt_residual"] <= 1e-9
            k = 2 * t + 1
            rivals = rng.dirichlet(np.ones(n), size=1000) * rng.random((1000, 1))
            rival_esp = np.sin(k * np.arcsin(np.sqrt(rivals))) ** 2 @ p.weights
            assert best >= float(rival_esp.max()) - 1e-9

    _criterion(4, "optimality certification", 60.0, body)


def test_criterion_05_duality_bound():
    def body():
        rng = np.random.Generator(np.random.PCG64(501))
        for _ in range(20):
            n = int(rng.integers(2, 9))
            t = int(rng.integers(1, 4))
            p = sample_random_prior(n, int(rng.integers(0, 2**63)))
            residual = theorem_a2_bound(p, t).residual
            assert abs(residual) <= 1e-6, f"residual {residual:.3e} at n={n} t={t}"

    _criterion(5, "independent upper bound", 120.0, body)


def test_criterion_06_allocation_grid():
    def body():
        rng = np.random.Generator(np.random.PCG64(601))
        step = 0.05
        for index in range(5):
            p = sample_random_prior(3, int(rng.integers(0, 2**63)))
            m = 3 if index % 2 == 0 else 2
            gap = lemma_a1_search(p, m, step).residual
            assert gap <= 2.0 * step, f"gap {gap:.3e} at m={m}"
            assert gap >= -1e-12

    _criterion(6, "per-step allocation grid", 120.0, body)


def test_criterion_07_robustness():
    def body():
        rng = np.random.Generator(np.random.PCG64(701))
        for _ in range(100):
            n = int(rng.integers(2, 17))
            t = int(rng.integers(1, 5))
            p = sample_random_prior(n, int(rng.integers(0, 2**63)))
            other = sample_random_prior(n, int(rng.integers(0, 2**63)))
            beta = 0.1 * float(rng.random())
            p_hat = new_prior((1.0 - beta) * p.weights + beta * other.weights)
            eps = l1_distance(p, p_hat)
            assert eps <= 0.2
            exact = esp(p, optimize(p, t))
            transferred = esp(p, AmplitudePlan(q=optimize(p_hat, t).q, t=t))
            assert transferred >= exact - 2.0 * eps - 1e-9

    _criterion(7, "plan robustness", 30.0, body)


def test_criterion_08_quadratic_speedup():
    def body():
        rng = np.random.Generator(np.random.PCG64(801))
        budget = math.pi**2 / 16.0
        for _ in range(20):
            n = int(rng.integers(16, 65))
            p = sample_random_prior(n, int(rng.integers(0, 2**63)))
            for t_classical in (1, 4, 9, 16):
                plan = speedup_plan(p, t_classical)
                assert plan.t == math.isqrt(t_classical - 1) + 1
                gap = abs(esp(p, plan) - top_k_mass(p, t_classical))
                assert gap <= 1e-12, f"ESP off by {gap:.3e} at T={t_classical}"
                assert float(plan.q.sum()) <= budget

    _criterion(8, "quadratic speedup plan", 5.0, body)


def test_criterion_09_baseline_sweep(tmp_path):
    def body():
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "compare",
                "--n", "512",
                "--samples", "100",
                "--t-min", "1",
                "--t-max", "22",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0  # exit 4 would mean an ordering violation in some sample
        # The CSV's bytes move only with a CHANGES.md entry that shows the
        # duality gaps of the plans that moved them.
        assert hashlib.md5(out.read_bytes()).hexdigest() == SWEEP_CSV_MD5
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 88
        optimal = {int(r[0]): float(r[2]) for r in rows[1:] if r[1] == "optimal"}
        curve = [optimal[t] for t in sorted(optimal)]
        assert len(curve) == 22
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))
        assert curve[-1] >= 0.999

    _criterion(9, "baseline sweep at n=512", 600.0, body)


def test_criterion_10_circuit_end_to_end():
    def body():
        for sigma, _ in REFERENCE_THETA:
            p = halfhalf_prior(sigma)
            plan = optimize(p, 1)
            theta = theta_for_sigma(sigma)
            simulated = np.empty(8)
            for outcome in range(8):
                label = format(outcome, "03b")
                circuit = build_halfhalf_circuit(theta, label)
                probs = run_gate_circuit(circuit)
                analytic = success_prob_single(float(plan.q[outcome]), 1)
                assert abs(probs[outcome] - analytic) <= 1e-10
                simulated[outcome] = probs[outcome]
            averaged = float(p.weights @ simulated)
            assert abs(averaged - esp(p, plan)) <= 1e-10

    _criterion(10, "circuit family end to end", 30.0, body)
