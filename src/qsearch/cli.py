"""Command-line experiment harness.

Subcommands: ``optimize`` (solve one prior and write the plan),
``compare`` (baseline sweep over sampled priors, CSV), ``theta-table``
(recompute the eight benchmark rotation angles against their reference
values), ``verify`` (property suite over the solver, simulator, bounds,
robustness and speedup contracts) and ``emit`` (write a runnable QASM
circuit).

Exit codes: 0 success, 2 input error, 3 solver failure, 4 property or
tolerance failure.  Identical command lines produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import circuits as qc
# verify no longer calls lemma_a1_search; it stays imported because
# perfbench/tracing.py's LAYERS entry "bounds.lemma_a1_search" wraps it here.
from .bounds import _clamped, exchange_map, lemma_a1_search, theorem_a2_bound  # noqa: F401
from .errors import InvalidInput, NumericalFailure, ResourceLimit, check_int
from .esp import (
    METHODS,
    AmplitudePlan,
    cap,
    esp,
    marginal,
    ranking_baseline,
    speedup_plan,
    success_prob_single,
    uniform_plan,
)
from .optimizer import _TOL, kkt_residual, optimize, save_plan
from .prior import Prior, l1_distance, load_prior, new_prior, sample_random_prior, top_k_mass
from .simulator import run_iterations

#: Slack that compare's ordering check allows between the methods' mean ESPs
#: (optimal >= ranking >= uniform, optimal >= classical).
_ORDER_TOL = 1e-9


# ---------------------------------------------------------------- optimize


def cmd_optimize(args) -> int:
    p = load_prior(args.prior)
    plan = optimize(p, args.t)
    # plan.meta is the certificate under p, the prior the plan was solved for.
    save_plan(p, plan, args.out, plan.meta)
    print(f"esp {plan.meta['esp']!r}")
    print(f"kkt_residual {plan.meta['kkt_residual']!r}")
    return 0


# ----------------------------------------------------------------- compare


def _sample_methods(p: Prior, t_values) -> list:
    """Per-prior method values, one (classical, uniform, ranking, optimal) per t."""
    rows = []
    for t in t_values:
        classical = top_k_mass(p, min(t, p.n))
        uniform = esp(p, uniform_plan(p.n, t))
        ranking = ranking_baseline(p, t).value
        optimal = optimize(p, t).meta["esp"]
        rows.append((classical, uniform, ranking, optimal))
    return rows


def cmd_compare(args) -> int:
    check_int(args.n, "--n", 1)
    check_int(args.samples, "--samples", 1)
    if args.t_min < 0 or args.t_min > args.t_max:
        raise InvalidInput("need 0 <= t-min <= t-max")
    check_int(args.seed, "--seed")
    injected = load_prior(args.prior) if args.prior else None
    if injected is not None and injected.n != args.n:
        raise InvalidInput(f"--prior has {injected.n} items but --n is {args.n}")

    t_values = list(range(args.t_min, args.t_max + 1))
    if injected is not None:
        # The same prior in every sample: solve it once.
        per_sample = [_sample_methods(injected, t_values)] * args.samples
    else:
        per_sample = [
            _sample_methods(sample_random_prior(args.n, args.seed ^ s), t_values)
            for s in range(args.samples)
        ]

    for s, rows in enumerate(per_sample):
        for t, (classical, uniform, ranking, optimal) in zip(t_values, rows):
            ordered = (
                optimal >= ranking - _ORDER_TOL
                and ranking >= uniform - _ORDER_TOL
                and optimal >= classical - _ORDER_TOL
            )
            if not ordered:
                print(
                    f"method ordering violated at sample {s}, t={t}: "
                    f"classical={classical!r} uniform={uniform!r} "
                    f"ranking={ranking!r} optimal={optimal!r}",
                    file=sys.stderr,
                )
                return 4

    lines = ["t,method,mean_esp,std_esp,samples,seed"]
    # (t, method, samples), contiguous: each cell reduces one contiguous row,
    # with the pairwise summation a (samples,) column gets on its own.
    values = np.ascontiguousarray(np.transpose(per_sample, (1, 2, 0)))
    means, stds = values.mean(axis=-1), values.std(axis=-1)
    for ti, t in enumerate(t_values):
        for mi, method in enumerate(METHODS):
            lines.append(
                f"{t},{method},{float(means[ti, mi])!r},{float(stds[ti, mi])!r},"
                f"{args.samples},{args.seed}"
            )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------- theta-table


def cmd_theta_table(args) -> int:
    lines = ["sigma,theta,paper_theta,abs_diff"]
    worst = 0.0
    for sigma, reference in qc.REFERENCE_THETA:
        theta = qc.theta_for_sigma(sigma)
        diff = abs(theta - reference)
        worst = max(worst, diff)
        lines.append(f"{sigma!r},{theta!r},{reference!r},{diff!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"worst |theta - reference| = {worst:.3e}")
    if worst > 1e-3:
        print("theta reproduction exceeded the 1e-3 tolerance", file=sys.stderr)
        return 4
    return 0


# ------------------------------------------------------------------ verify


def _check_oracle_equivalence(args, rng) -> tuple:
    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, min(16, args.n_max) + 1))
        t = int(rng.integers(0, min(6, args.t_max) + 1))
        raw = rng.random(n)
        q = raw / float(raw.sum()) * float(rng.random())
        plan = AmplitudePlan(q=q, t=t)
        x = int(rng.integers(1, n + 1))
        simulated = run_iterations(plan, x)
        analytic = success_prob_single(float(q[x - 1]), t)
        err = abs(simulated - analytic)
        if err > worst:
            worst = err
        if err > 1e-10:
            return False, f"|sim - analytic| = {err:.3e} at n={n} t={t} x={x}"
    return True, f"worst |sim - analytic| = {worst:.3e} over {args.trials} runs"


def _check_kkt(args, rng) -> tuple:
    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, args.n_max + 1))
        t = int(rng.integers(1, min(4, args.t_max) + 1))
        p = sample_random_prior(n, int(rng.integers(0, 2**63)))
        residual = kkt_residual(p, optimize(p, t))
        worst = max(worst, residual)
        if residual > 1e-9:
            return False, f"KKT residual {residual:.3e} at n={n} t={t}"
    return True, f"worst residual = {worst:.3e} over {args.trials} solves"


#: Unit roundoff of float64.
_U = 2.0**-53

#: Rounding charged to each term of a checked sum for its own evaluation, in
#: units of _U: a chain of a few square roots, sines and arcsines, each within
#: 4 ulp (8u), and of products and quotients, each within u.  Every chain the
#: two checks below evaluate stays under 40u of the bound they give its term.
_CHAIN = 40


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff.

    A float sum of k terms is within gamma_k times the sum of their
    magnitudes (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    4.2); gamma_{n + _CHAIN} also covers each term's own evaluation.
    """
    return k * _U / (1.0 - k * _U)


def _duality_limit(p: Prior, q: np.ndarray, t: int) -> float:
    """Rounding bound on |residual| of the duality bound at the solver's plan q.

    In exact arithmetic the residual is lam (1 - sum(q)) plus tangent terms
    that vanish at the optimum, so at most lam _TOL once sum(q) lies in the
    solver's window [1 - _TOL, 1]; lam is one of the a_i = p_i g'(q_i), so at
    most their largest.  In floats it adds three n-term sums (the two ESPs,
    sum(q) times lam, the tangent terms), whose terms total at most
    S = 2 + 2 n cap k^2 max(p): each ESP is at most 1, lam and every |d_i|
    at most max(p) g'(0) = k^2 max(p), sum(q) <= n cap, and each tangent
    term at most |d_i| cap.
    """
    k, c = 2 * t + 1, cap(t)
    lam = float((p.weights * marginal(q, t)).max())
    terms = 2.0 + 2.0 * p.n * c * k * k * float(p.weights.max())
    return _gamma(p.n + _CHAIN) * terms + lam * _TOL


def _check_a2(args, rng) -> tuple:
    """The duality bound at the solver's plan, held to ``_duality_limit``.

    t is drawn up to the largest t with n cap(t) > 1 (at most --t-max), so
    that the budget binds and the plan is water-filled: where n cap(t) <= 1
    every item sits at its cap and a wrong plan's loss is zero or second
    order.  At n <= 4, where no t binds, t = 1.  That t is at most about
    pi sqrt(n) / 4, so finding it costs nothing that grows with --t-max.
    """
    cases = min(args.trials, 5)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, args.n_max + 1))
        t_fill = 1
        while t_fill < args.t_max and n * cap(t_fill + 1) > 1.0:
            t_fill += 1
        t = int(rng.integers(1, t_fill + 1))
        p = sample_random_prior(n, int(rng.integers(0, 2**63)))
        report = theorem_a2_bound(p, t)
        residual = abs(report.residual)
        worst = max(worst, residual)
        if residual > _duality_limit(p, report.achiever, t):
            return False, f"duality bound residual {residual:.3e} at n={n} t={t}"
    return True, f"worst residual = {worst:.3e} over {cases} bounds"


def _check_a1(args, rng) -> tuple:
    """Lemma A1 by its exchange map, at m = 2t+1 steps.

    Each draw takes m per-step allocations, rows on the simplex with about
    30% zero entries; every other draw gives one item at least half of
    every row, so its total angle passes pi/2.  The map's q must keep the
    budget and the cap, reach the per-step value exactly and stay at most
    the solver's ESP.  The limits are rounding bounds:

    * sum(q): each q carries 2 gamma_m + 40u of its angle sum and its sine,
      the rows sum to 1 within gamma_n and sum(q) rounds within gamma_n;
    * q <= cap(t): the clamped q and cap(t) are the same sine of the same
      float pi / (2m), each within _CHAIN u;
    * the two values are two n-term sums of p_i times a value in [0, 1],
      each term within _CHAIN u of the other side's (sum(p) = 1);
    * against the solver: ESP* rises by at most k^2 max(p) per unit of
      budget, the map may overspend by the sum's limit and the solver
      underspends by at most _TOL.
    """
    worst = 0.0
    for index in range(args.trials):
        n = int(rng.integers(2, args.n_max + 1))
        t = int(rng.integers(1, args.t_max + 1))
        m = 2 * t + 1
        p = sample_random_prior(n, int(rng.integers(0, 2**63)))
        raw = rng.random((m, n)) * (rng.random((m, n)) >= 0.3)
        if index % 2 == 0:
            raw[:, int(rng.integers(n))] += raw.sum(axis=1) + 1.0
        raw[:, int(rng.integers(n))] += 1e-3  # no row is empty
        theta, q = exchange_map(raw / raw.sum(axis=1, keepdims=True))
        where = f"at n={n} t={t}"
        spent, top, c = float(q.sum()), float(q.max()), cap(t)
        overspend = 2.0 * _gamma(n + m + _CHAIN)
        if spent > 1.0 + overspend:
            return False, f"the map spends sum(q) = {spent!r} > 1 {where}"
        if top > c * (1.0 + _gamma(_CHAIN)):
            return False, f"the map gives q = {top!r} > cap {c!r} {where}"
        per_step = float(p.weights @ _clamped(theta))
        equal = esp(p, AmplitudePlan(q=q, t=t))
        value_limit = 2.0 * _gamma(n + _CHAIN)
        diff = abs(per_step - equal)
        worst = max(worst, diff)
        if diff > value_limit:
            return False, f"per-step value {per_step!r} != equal value {equal!r} {where}"
        optimum = optimize(p, t).meta["esp"]
        if equal > optimum + value_limit + m * m * float(p.weights.max()) * (_TOL + overspend):
            return False, f"equal value {equal!r} > the solver's ESP {optimum!r} {where}"
    return True, f"worst |per-step - equal| = {worst:.3e} over {args.trials} draws"


def _check_robustness(args, rng) -> tuple:
    worst = math.inf
    for _ in range(args.trials):
        n = int(rng.integers(2, args.n_max + 1))
        t = int(rng.integers(1, min(4, args.t_max) + 1))
        p = sample_random_prior(n, int(rng.integers(0, 2**63)))
        other = sample_random_prior(n, int(rng.integers(0, 2**63)))
        beta = 0.1 * float(rng.random())
        p_hat = new_prior((1.0 - beta) * p.weights + beta * other.weights)
        eps = l1_distance(p, p_hat)
        exact = optimize(p, t).meta["esp"]
        transferred = esp(p, optimize(p_hat, t))
        slack = transferred - (exact - eps)
        worst = min(worst, slack)
        if slack < -1e-9:
            return False, (
                f"plan for a prior {eps:.3f} away lost {exact - transferred:.3e} "
                f"> eps at n={n} t={t}"
            )
    return True, f"smallest slack = {worst:.3e} over {args.trials} pairs"


def _check_speedup(args, rng) -> tuple:
    worst = 0.0
    budget = math.pi**2 / 16.0
    n = max(2, args.n_max)
    for _ in range(args.trials):
        p = sample_random_prior(n, int(rng.integers(0, 2**63)))
        for t_classical in (1, 4, 9, 16):
            if t_classical > n:
                continue
            plan = speedup_plan(p, t_classical)
            err = abs(esp(p, plan) - top_k_mass(p, t_classical))
            worst = max(worst, err)
            if err > 1e-12:
                return False, f"speedup ESP off by {err:.3e} at T={t_classical}"
            if float(plan.q.sum()) > budget + 1e-12:
                return False, f"speedup plan spends {plan.q.sum()!r} > pi^2/16"
    return True, f"worst ESP mismatch = {worst:.3e} over {args.trials} priors"


_VERIFY_CHECKS = (
    ("oracle-equivalence", _check_oracle_equivalence),
    ("kkt-certificate", _check_kkt),
    ("duality-bound", _check_a2),
    ("exchange-map", _check_a1),
    ("robustness", _check_robustness),
    ("speedup", _check_speedup),
)


def cmd_verify(args) -> int:
    check_int(args.trials, "--trials", 1)
    check_int(args.n_max, "--n-max", 2)
    check_int(args.t_max, "--t-max", 1)
    check_int(args.seed, "--seed")
    failures = 0
    for index, (name, check) in enumerate(_VERIFY_CHECKS):
        rng = np.random.Generator(np.random.PCG64([args.seed, index]))
        ok, detail = check(args, rng)
        print(f"{name:<20} {'PASS' if ok else 'FAIL'}  {detail}")
        if not ok:
            failures += 1
    return 4 if failures else 0


# -------------------------------------------------------------------- emit


def cmd_emit(args) -> int:
    theta = qc.theta_for_sigma(args.sigma)
    circuit = qc.build_halfhalf_circuit(theta, args.solution)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(qc.emit_qasm(circuit))
    q_block = qc.block_amplitude(theta, qc.in_high_block(args.solution))
    print(f"predicted_success {success_prob_single(q_block, 1)!r}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsearch",
        description="Plan, verify and emit amplitude-optimal quantum searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="solve one prior and write the plan")
    p_opt.add_argument("--prior", required=True, help="prior JSON file")
    p_opt.add_argument("--t", type=int, required=True, help="query budget")
    p_opt.add_argument("--out", required=True, help="plan JSON output path")
    p_opt.set_defaults(func=cmd_optimize)

    p_cmp = sub.add_parser("compare", help="baseline sweep over sampled priors")
    p_cmp.add_argument("--n", type=int, default=512)
    p_cmp.add_argument("--samples", type=int, default=100)
    p_cmp.add_argument("--t-min", dest="t_min", type=int, default=1)
    p_cmp.add_argument("--t-max", dest="t_max", type=int, default=22)
    p_cmp.add_argument("--seed", type=int, default=42)
    p_cmp.add_argument("--prior", help="use this prior for every sample")
    p_cmp.add_argument("--out", required=True, help="CSV output path")
    p_cmp.set_defaults(func=cmd_compare)

    p_theta = sub.add_parser("theta-table", help="recompute the benchmark angles")
    p_theta.add_argument("--out", required=True, help="CSV output path")
    p_theta.set_defaults(func=cmd_theta_table)

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--n-max", dest="n_max", type=int, default=16)
    p_ver.add_argument("--t-max", dest="t_max", type=int, default=6)
    p_ver.add_argument("--trials", type=int, default=25)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_emit = sub.add_parser("emit", help="write a 3-qubit circuit as OpenQASM 2.0")
    p_emit.add_argument("--sigma", type=float, required=True)
    p_emit.add_argument("--solution", required=True, help="3-bit label, e.g. 101")
    p_emit.add_argument("--out", required=True, help="QASM output path")
    p_emit.set_defaults(func=cmd_emit)
    return parser


_parser = None  # built by the first main() call and reused by every later one


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (InvalidInput, ResourceLimit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
