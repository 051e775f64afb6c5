import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch import (
    AmplitudePlan,
    InvalidInput,
    NumericalFailure,
    cap,
    esp,
    kkt_residual,
    load_plan,
    new_prior,
    optimize,
    optimize_t1_closed_form,
    plan_to_json,
    ranking_baseline,
    sample_random_prior,
    save_plan,
    top_k_mass,
)
from qsearch import optimizer
from qsearch.bounds import _duality_gap as duality_gap
from qsearch.esp import marginal, slope
from qsearch.optimizer import kernel_backend, waterfill

NAIVE = new_prior([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])

# Independent two-block solution for the half-half prior at t=1, obtained by
# root-finding the stationarity balance (1/8+s) g'(q_hi) = (1/8-s) g'(q_lo)
# with q_lo = 1/4 - q_hi (scipy.optimize.brentq, xtol=1e-16).
HALFHALF_QHI = {
    1.0 / 80.0: 0.13543117458710222,
    8.0 / 80.0: 0.21745016941274078,
}


def halfhalf(sigma):
    return new_prior([0.125 + sigma] * 4 + [0.125 - sigma] * 4)


# The two routes to the t=1 optimum: the water-fill and the closed form.
T1_SOLVERS = pytest.mark.parametrize(
    "solve", [lambda p: optimize(p, 1), optimize_t1_closed_form], ids=["optimize", "closed-form"]
)


def test_cap_values():
    assert cap(0) == 1.0
    assert cap(1) == pytest.approx(0.25, abs=1e-15)
    assert cap(2) == pytest.approx((3.0 - math.sqrt(5.0)) / 8.0, abs=1e-16)
    assert cap(2) == pytest.approx(0.0954915028, abs=1e-10)
    with pytest.raises(InvalidInput):
        cap(-1)


BAD_T = [True, False, 1.5, 2.0, "1", None, np.float64(1.0)]


@pytest.mark.parametrize("t", BAD_T)
def test_cap_rejects_non_integer_t(t):
    with pytest.raises(InvalidInput):
        cap(t)


@pytest.mark.parametrize("t", BAD_T + [-1])
def test_optimize_rejects_bad_t_before_solving(t, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("water-fill ran on an invalid t")

    monkeypatch.setattr(optimizer, "waterfill", must_not_run)
    with pytest.raises(InvalidInput):
        optimize(sample_random_prior(64, 1), t)


@pytest.mark.parametrize("t", [True, 1.5, 2.0, "1", None, -1])
def test_load_plan_rejects_bad_t(tmp_path, t):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"t": t, "q": [0.25, 0.25]}))
    with pytest.raises(InvalidInput):
        load_plan(path)


@pytest.mark.parametrize("t", [np.int64(4), np.int32(4), np.uint8(4)])
def test_numpy_integer_t_is_accepted(t):
    p = sample_random_prior(64, 1)
    assert cap(t) == cap(4)
    plan = optimize(p, t)
    assert plan.t == 4
    assert plan.q.tolist() == optimize(p, 4).q.tolist()


@T1_SOLVERS
def test_naive_prior_saturates(solve):
    plan = solve(NAIVE)
    assert plan.q[:4].tolist() == pytest.approx([cap(1)] * 4, abs=1e-15)
    assert plan.q[4:].tolist() == [0.0] * 4
    assert esp(NAIVE, plan) == 1.0
    assert plan.meta["esp"] == 1.0
    assert plan.meta["kkt_residual"] <= 1e-9


@T1_SOLVERS
def test_uniform_prior_stays_uniform(solve):
    plan = solve(new_prior(np.ones(8)))
    assert plan.q.tolist() == pytest.approx([0.125] * 8, abs=1e-9)


@T1_SOLVERS
@pytest.mark.parametrize("sigma", sorted(HALFHALF_QHI))
def test_halfhalf_matches_independent_root(sigma, solve):
    plan = solve(halfhalf(sigma))
    q_hi = HALFHALF_QHI[sigma]
    assert plan.q[:4].tolist() == pytest.approx([q_hi] * 4, abs=1e-10)
    assert plan.q[4:].tolist() == pytest.approx([0.25 - q_hi] * 4, abs=1e-10)
    # KKT balance between the two blocks, written out with the t=1 marginal
    def marginal(p_i, q):
        return p_i * (48.0 * q * q - 48.0 * q + 9.0)

    hi = marginal(0.125 + sigma, float(plan.q[0]))
    lo = marginal(0.125 - sigma, float(plan.q[4]))
    assert hi == pytest.approx(lo, abs=1e-9)
    assert kkt_residual(halfhalf(sigma), plan) <= 1e-9


def test_zero_queries_is_argmax_guess():
    p = new_prior([0.2, 0.5, 0.3])
    plan = optimize(p, 0)
    assert plan.q.tolist() == [0.0, 1.0, 0.0]
    assert esp(p, plan) == 0.5
    # ties go to the first index
    tie = optimize(new_prior([1, 1]), 0)
    assert tie.q.tolist() == [1.0, 0.0]


def test_zero_weight_items_get_nothing():
    p = new_prior([0.4, 0.0, 0.3, 0.0, 0.3])
    for t in (1, 2):
        plan = optimize(p, t)
        assert plan.q[1] == 0.0 and plan.q[3] == 0.0
    # same pinning when the budget binds (6 supported items at t=1)
    crowded = new_prior([0.3, 0.0, 0.2, 0.15, 0.15, 0.1, 0.1, 0.0])
    plan = optimize(crowded, 1)
    assert plan.q[1] == 0.0 and plan.q[7] == 0.0
    assert float(plan.q.sum()) == pytest.approx(1.0, abs=1e-9)
    assert plan.meta["kkt_residual"] <= 1e-9


def test_budget_slack_branch():
    # support of 3 at t=1: caps sum to 0.75 < 1, so everyone saturates
    p = new_prior([0.5, 0.25, 0.25])
    plan = optimize(p, 1)
    assert plan.q.tolist() == [cap(1)] * 3
    assert esp(p, plan) == 1.0


def test_nonconvergence_raises(monkeypatch):
    lam = 0.012345678901234567
    received = []

    def stalled(w, t):
        received.append(w)
        return np.full(w.size, 0.5 / w.size), lam, optimizer._MAX_ITER, False

    monkeypatch.setattr(optimizer, "waterfill", stalled)
    p = sample_random_prior(32, 4)
    with pytest.raises(NumericalFailure) as info:
        optimize(p, 1)
    message = str(info.value)
    assert "after 200 iterations" in message
    # The fill sees the weights scaled by a power of two; lam is reported
    # in the units of the prior.
    (w,) = received
    assert repr(lam * float(p.weights.max() / w.max())) in message
    assert "|sum(q)-1| = 5.000e-01" in message


def test_closed_form_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(optimizer, "_MAX_ITER", 1)
    with pytest.raises(NumericalFailure) as info:
        optimize_t1_closed_form(sample_random_prior(32, 4))
    message = str(info.value)
    assert "after 1 iterations" in message
    # Both fills report the same multiplier, p_i g'(q_i) = lam > 0.
    assert float(message.split("at lam = ")[1].split()[0]) > 0.0
    assert "|sum(q)-1| = " in message


@given(st.integers(0, 2**32), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_feasibility_and_alignment(seed, t):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, 33))
    p = sample_random_prior(n, seed)
    plan = optimize(p, t)
    q = plan.q
    assert float(q.min()) >= 0.0
    assert float(q.max()) <= cap(t) + 1e-12
    assert float(q.sum()) <= 1.0 + 1e-12
    # more likely items never receive less amplitude
    order = np.argsort(p.weights)
    sorted_q = q[order]
    assert np.all(np.diff(sorted_q) >= -1e-9)


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_dominates_baselines(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(4, 17))
    t = int(rng.integers(1, 5))
    p = sample_random_prior(n, seed)
    best = esp(p, optimize(p, t))
    assert best >= ranking_baseline(p, t).value - 1e-9
    assert best >= top_k_mass(p, min(t, n)) - 1e-9


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_closed_form_agrees_with_waterfill(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(5, 25))
    p = sample_random_prior(n, seed)
    via_bisection = optimize(p, 1)
    via_formula = optimize_t1_closed_form(p)
    assert np.abs(via_bisection.q - via_formula.q).max() <= 1e-9


def test_kkt_residual_flags_bad_plans():
    p = sample_random_prior(8, 11)
    good = optimize(p, 2)
    assert kkt_residual(p, good) <= 1e-9
    lopsided = np.zeros(8)
    lopsided[p.weights.argmin()] = cap(2)
    bad = AmplitudePlan(q=lopsided, t=2)
    assert kkt_residual(p, bad) > 1e-3
    with pytest.raises(InvalidInput):
        kkt_residual(p, AmplitudePlan(q=good.q[:7], t=2))  # one item short


def test_kkt_residual_on_slack_and_argmax_plans():
    assert kkt_residual(NAIVE, optimize(NAIVE, 1)) == 0.0
    p = new_prior([0.2, 0.5, 0.3])
    assert kkt_residual(p, optimize(p, 0)) == 0.0


def test_plan_json_round_trip(tmp_path):
    p = sample_random_prior(6, 2)
    plan = optimize(p, 2)
    path = tmp_path / "plan.json"
    save_plan(p, plan, path)
    data = json.loads(path.read_text())
    assert set(data) == {"t", "q", "esp", "kkt_residual"}
    assert data["t"] == 2
    assert data["esp"] == pytest.approx(esp(p, plan), abs=1e-15)
    loaded = load_plan(path)
    assert loaded.q.tolist() == plan.q.tolist()
    assert loaded.t == plan.t
    assert loaded.meta["kkt_residual"] <= 1e-9


def test_plan_json_matches_string_writer(tmp_path):
    p = sample_random_prior(5, 3)
    plan = optimize(p, 1)
    path = tmp_path / "plan.json"
    save_plan(p, plan, path)
    assert path.read_text() == plan_to_json(p, plan) + "\n"


def test_load_plan_rejects_garbage(tmp_path):
    files = {
        "junk.json": b"{}",
        # json.load fails on these with a ValueError other than
        # JSONDecodeError or with a RecursionError
        "digits.json": b'{"t": 1, "q": [1, ' + b"9" * 5000 + b"]}",
        "utf16.json": b'\xff\xfe{"t": 1, "q": [1]}',
        "nested.json": b"[" * 100_000 + b"]" * 100_000,
    }
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(InvalidInput):
            load_plan(path)


@pytest.mark.parametrize(
    "payload",
    [
        {"t": 1, "q": [False, "0.25"], "esp": "high"},
        {"t": 1, "q": [0.5, "0.25"]},
        {"t": 1, "q": [0.5, None]},
        {"t": 1, "q": [[0.5], 0.25]},
        {"t": 1, "q": 0.5},
        {"t": 1, "q": [1, 10**400]},
        {"t": 1, "q": [0.5, 0.25], "esp": "high"},
        {"t": 1, "q": [0.5, 0.25], "kkt_residual": True},
        {"t": 1, "q": [0.5, 0.25], "esp": math.nan},
        {"t": 1, "q": [0.5, 0.25], "kkt_residual": math.inf},
        {"t": 1, "q": [0.5, 0.25], "esp": 0.5, "kkt_residual": -math.inf},
        "not json",  # written as it is
    ],
)
def test_load_plan_rejects_entries_that_are_not_numbers(tmp_path, payload):
    path = tmp_path / "plan.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    with pytest.raises(InvalidInput):
        load_plan(path)


def test_plan_json_certifies_under_the_prior_it_is_given(tmp_path):
    # A plan solved for p_hat and saved under p carries p's numbers, not its
    # own meta, which holds the certificate under p_hat.
    p, p_hat = sample_random_prior(64, 4), sample_random_prior(64, 5)
    plan = optimize(p_hat, 3)
    data = json.loads(plan_to_json(p, plan))
    assert data["esp"] == esp(p, plan) != plan.meta["esp"]
    assert data["kkt_residual"] == kkt_residual(p, plan) != plan.meta["kkt_residual"]
    path = tmp_path / "plan.json"
    save_plan(p, plan, path)
    assert load_plan(path).meta == {"esp": data["esp"], "kkt_residual": data["kkt_residual"]}


def test_kernel_backend_is_python():
    assert kernel_backend() == "python"


def binding_case(seed, t):
    """Random weights on a register large enough that the budget binds."""
    k = 2 * t + 1
    c = math.sin(math.pi / (2.0 * k)) ** 2
    n = int(1.0 / c) + 3 + seed % 10
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.random(n) + 1e-3
    w /= w.sum()
    return w, float(k), c


@pytest.mark.parametrize("t", [1, 2, 3])
def test_waterfill_solution_is_feasible_and_stationary(t):
    w, k, c = binding_case(11 + t, t)
    q, lam, _, converged = waterfill(w, t)
    assert converged
    assert 1.0 - 1e-9 <= float(np.sum(q)) <= 1.0
    assert float(np.min(q)) >= 0.0
    assert float(np.max(q)) <= c
    # interior coordinates all sit on the common multiplier
    interior = (q > 1e-9) & (q < c - 1e-9)
    marg = w[interior] * k * np.sin(2.0 * k * np.arcsin(np.sqrt(q[interior]))) / (
        2.0 * np.sqrt(q[interior] * (1.0 - q[interior]))
    )
    assert float(np.abs(marg - lam).max()) <= 1e-6 * lam


def test_waterfill_iteration_cap_reports_nonconvergence(monkeypatch):
    w, k, c = binding_case(99, 1)
    monkeypatch.setattr(optimizer, "_MAX_ITER", 1)
    q, lam, iterations, converged = waterfill(w, 1)
    assert not converged
    assert iterations == 1
    assert float(np.sum(q)) <= 1.0


def test_waterfill_zero_tolerance_never_accepted(monkeypatch):
    # a too-tight tolerance must surface as converged=False, not a bad plan
    w, k, c = binding_case(7, 1)
    monkeypatch.setattr(optimizer, "_TOL", 1e-300)
    monkeypatch.setattr(optimizer, "_MAX_ITER", 3)
    q, _, _, converged = waterfill(w, 1)
    assert not converged
    assert float(np.sum(q)) <= 1.0
    # given time, the only sum the window [1 - 1e-300, 1] accepts is 1.0 itself
    monkeypatch.setattr(optimizer, "_MAX_ITER", 200)
    q, _, _, converged = waterfill(w, 1)
    assert float(np.sum(q)) == 1.0 if converged else float(np.sum(q)) <= 1.0


EXTREME_PRIORS = {
    "geomspace": np.geomspace(1.0, 1e-300, 64),
    "single": [1.0],
    "ties": np.ones(512),
    "one-heavy": np.r_[1.0, np.full(511, 1e-300)],
    "tiny-tail": [1.0, 1.0, 1.0] + [1e-20] * 20,
    "subnormal-1e-308": np.r_[1.0, np.full(1000, 1e-308)],
    "subnormal-1e-310": np.r_[np.ones(30), np.full(1000, 1e-310)],
    "subnormal-5e-324": np.r_[1.0, np.full(5000, 5e-324)],
}


@pytest.mark.parametrize("t", [1, 4, 22])
@pytest.mark.parametrize("name", sorted(EXTREME_PRIORS))
def test_extreme_priors_give_certified_plans(name, t, monkeypatch):
    iterations = []

    def recorded(w, t):
        result = waterfill(w, t)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(optimizer, "waterfill", recorded)
    p = new_prior(EXTREME_PRIORS[name])
    plan = optimize(p, t)
    q = plan.q
    assert float(q.min()) >= 0.0
    assert float(q.max()) <= cap(t)
    assert float(q.sum()) <= 1.0 + 1e-12
    if p.n * cap(t) > 1.0:
        assert float(q.sum()) >= 1.0 - 1e-12
    assert all(i <= 10 for i in iterations), iterations
    assert plan.meta["esp"] == esp(p, plan)
    assert plan.meta["kkt_residual"] <= 1e-9
    # kkt_residual reads 0.0 on every sub-normal tail, so the duality gap is
    # the certificate there.  The tail is worth under 1e-300 of ESP, so only
    # the budget check above sees whether it gets its share of q.
    assert duality_gap(p.weights, q, t) <= 1e-14
    if t == 1:
        # Weights spanning decades put the water level far below k^2 max(p);
        # the closed form's bisection must still spend the budget.
        closed = optimize_t1_closed_form(p).q
        assert np.abs(closed - q).max() <= 1e-9
        if p.n * cap(1) > 1.0:
            assert float(closed.sum()) >= 1.0 - 1e-12


@pytest.mark.parametrize("n, t", [(65536, 4), (14330, 2), (2211, 4)])
def test_waterfill_converges_on_tied_weights(n, t):
    # Tied weights round alike, so sum(q) lands a few ulps below 1.  Each of
    # these solves is accepted in the window after 2 iterations; no bracket
    # closes.  test_waterfill_safeguards_keep_the_solution forces the closing.
    q, _, _, converged = waterfill(np.full(n, 1.0 / n), t)
    assert converged
    assert 1.0 - 1e-12 <= float(q.sum()) <= 1.0


@pytest.mark.parametrize("case", ["tied-1000-3", "tied-2211-4", "far-chord"])
def test_waterfill_safeguards_keep_the_solution(case, monkeypatch):
    # The safeguards run only when the Newton path misses.  A window of just
    # {1.0}, which tied weights cannot hit, moves both ends of the bracket,
    # steps to neighbouring floats and past the ends, and returns when the
    # bracket collapses.  A chord start 10x too high puts lam outside the
    # bracket.  Each forced solve must still certify and keep the unforced
    # solve's ESP.
    if case == "far-chord":
        w, t = sample_random_prior(512, 42).weights, 4
    else:
        n, t = (int(v) for v in case.split("-")[1:])
        w = np.full(n, 1.0 / n)
    p = new_prior(w)
    unforced = esp(p, AmplitudePlan(q=waterfill(w, t)[0], t=t))
    if case == "far-chord":
        chord_level = optimizer._chord_level
        monkeypatch.setattr(optimizer, "_chord_level", lambda s, c: 10.0 * chord_level(s, c))
    else:
        monkeypatch.setattr(optimizer, "_TOL", 1e-300)
    q, _, _, converged = waterfill(w, t)
    assert converged
    if case != "far-chord":
        assert float(q.sum()) < 1.0  # only the bracket's collapse returns this
    plan = AmplitudePlan(q=q, t=t)
    assert kkt_residual(p, plan) <= 1e-9
    assert abs(esp(p, plan) - unforced) <= 1e-15


def reference_plan(w, t):
    """Nested bisection, geometric on lam outside and plain per coordinate inside."""
    k, c = 2 * t + 1, cap(t)

    def coords(lam):
        lo, hi = np.zeros(w.size), np.full(w.size, c)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            up = w * slope(mid, k) > lam
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        return np.where(w * k * k > lam, 0.5 * (lo + hi), 0.0)

    if w.size * c <= 1.0:
        return np.full(w.size, c)
    # sum(q) is about w.size * c > 1 at the low end and 0 at the high end
    lam_lo, lam_hi = float(w.min()) * k * k * 1e-12, float(w.max()) * k * k
    while lam_lo < (lam := math.sqrt(lam_lo) * math.sqrt(lam_hi)) < lam_hi:
        if coords(lam).sum() > 1.0:
            lam_lo = lam
        else:
            lam_hi = lam
    return coords(lam_hi)


def gaps_at(w, q, t, lam):
    """lam (1 - sum(q)) + sum_i max(-d_i q_i, d_i (cap - q_i)), d_i = w_i g'(q_i) - lam.

    For any lam >= 0 the optimum is at most lam + sum_i max_{0<=r<=cap} of
    w_i g(r) - lam r, and each of these concave maxima is at most its tangent
    line at q_i, maximised over the endpoints.  What is left after the ESP of
    q is subtracted is this weak-duality bound on the optimal ESP minus the
    ESP of q, one value per entry of the column ``lam``.
    """
    d = w * marginal(q, t) - lam
    return lam[:, 0] * (1.0 - q.sum()) + np.maximum(-d * q, d * (cap(t) - q)).sum(axis=1)


def duality_gap_reference(w, q, t):
    """bounds._duality_gap by brute force: the smallest bound over lam = 0 and every breakpoint.

    The bound is convex and piecewise linear in lam, with its breakpoints at
    lam = w_i g'(q_i), so it is smallest at one of them or at 0.
    """
    m = w * marginal(q, t)
    return float(gaps_at(w, q, t, np.append(m[m > 0.0], 0.0)[:, None]).min())


@given(
    st.integers(2, 600),
    st.integers(1, 22),
    st.sampled_from(["uniform", "near-tied", "tiny", "geometric"]),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_waterfill_agrees_with_nested_bisection(n, t, kind, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "uniform":
        w = rng.random(n) + 1e-3
    elif kind == "near-tied":
        w = 1.0 + 1e-12 * rng.random(n)
    elif kind == "tiny":
        w = np.where(rng.random(n) < 0.5, 1e-300, rng.random(n) + 1e-3)
    else:
        w = rng.permutation(np.geomspace(1.0, 10.0 ** -int(rng.integers(1, 300)), n))
    p = new_prior(w)
    plan = optimize(p, t)
    reference = AmplitudePlan(q=reference_plan(p.weights, t), t=t)
    assert np.abs(plan.q - reference.q).max() <= 1e-9
    assert esp(p, plan) >= esp(p, reference) - 1e-14
    gap = duality_gap(p.weights, plan.q, t)
    assert gap <= 1e-14
    assert abs(gap - duality_gap_reference(p.weights, plan.q, t)) <= 1e-18 + 1e-13 * gap
    # Off the optimum the breakpoints spread out, so a multiplier one
    # breakpoint off the minimum shows there.
    rough = np.minimum(plan.q * rng.uniform(0.5, 1.5, n), cap(t))
    gap = duality_gap(p.weights, rough, t)
    # rough may spend more than the budget, and then its gap is negative
    assert abs(gap - duality_gap_reference(p.weights, rough, t)) <= 1e-18 + 1e-13 * abs(gap)


def counted_evaluations(monkeypatch):
    """Record the size of every g'/g'' evaluation the water-fill makes."""
    calls = []
    original = optimizer.slope_and_curvature

    def counted(q, k):
        calls.append(np.size(q))
        return original(q, k)

    monkeypatch.setattr(optimizer, "slope_and_curvature", counted)
    return calls


def test_waterfill_outer_iterations_stay_newton_fast():
    # A safeguard that quietly fell back to bisection would need about 40.
    for s in range(10):
        w = sample_random_prior(512, 42 ^ s).weights
        for t in range(1, 18):
            _, _, iterations, converged = waterfill(w[w > 0.0], t)
            assert converged
            assert iterations <= 15, (s, t, iterations)


def test_waterfill_spends_few_evaluations_per_solve(monkeypatch):
    # About 7 g'/g'' evaluations per solve on these priors.  Solving every
    # coordinate to convergence at each multiplier costs about 31.
    calls = counted_evaluations(monkeypatch)
    solves = 0
    for s in range(10):
        w = sample_random_prior(512, 42 ^ s).weights
        for t in range(1, 18):
            _, _, _, converged = waterfill(w[w > 0.0], t)
            assert converged
            solves += 1
    assert len(calls) / solves <= 8


def test_waterfill_carries_the_active_set_until_it_changes(monkeypatch):
    # On Zipf 1/i^1.1 at t=16 the active set grows and then shrinks after the
    # chord start and then stays put: an evaluation after each change sees
    # the re-gathered set, the ones after it the carried one.
    p = new_prior(1.0 / np.arange(1, 4097) ** 1.1)
    calls = counted_evaluations(monkeypatch)
    plan = optimize(p, 16)
    assert calls == [844, 1070, 1030, 1028, 1028, 1028, 1028]
    assert plan.meta["kkt_residual"] <= 1e-9
    assert duality_gap(p.weights, plan.q, 16) <= 1e-14


def plan_digest(cases):
    """sha256 over the bytes of optimize(p, t).q, case by case."""
    digest = hashlib.sha256()
    for p, t in cases:
        digest.update(optimize(p, t).q.tobytes())
    return digest.hexdigest()


# plan_digest of each family below.  A digest moves only with a CHANGES.md
# entry that shows the duality gaps of the plans that moved it.
PLAN_DIGESTS = {
    "sweep": "9f8777ffb5b544184c13a7d6a947823abd30d5c5b3a651b054bee49d0be79609",
    "zipf-4096": "e76abb33b56adbb08ecfb5045684edf19b186f8afdf69246855f40dde8623948",
    "geomspace": "7de3a1b4a92690202ab4bda2877f5c16612ec31c7faa3500806d61c4bddda8f7",
}


def test_plans_keep_their_bits():
    sweep = [sample_random_prior(512, 42 ^ s) for s in range(10)]  # the seed-42 sweep's first ten
    assert plan_digest((p, t) for p in sweep for t in range(1, 18)) == PLAN_DIGESTS["sweep"]
    for name, weights in (
        ("zipf-4096", 1.0 / np.arange(1, 4097) ** 1.1),
        ("geomspace", np.geomspace(1.0, 1e-300, 200_000)),
    ):
        p = new_prior(weights)
        assert plan_digest((p, t) for t in (1, 4, 16, 22)) == PLAN_DIGESTS[name], name


def just_binding(n, t):
    """Weights in [1, 2] on n = floor(1/cap(t)) + 1 items, so n cap(t) - 1 is small."""
    assert n == math.floor(1.0 / cap(t)) + 1
    return 1.0 + np.random.Generator(np.random.PCG64(n)).random(n)


# name -> (weights, t, most g'/g'' evaluations).  At n = 107,492 and t = 257,
# n cap - 1 = 2.1e-7 puts every q within 3e-12 of the cap, inside _FACE_TOL;
# at n = 1,930 and t = 34 it is 5.5e-5, within 4e-8.  The ceilings are the
# counts of the earlier two-stage solver (a joint Newton predictor, then
# Newton per coordinate nested in Newton on the multiplier), except for the
# random and Zipf shapes, whose ceilings are the joint loop's own counts.
HARD_SHAPES = {
    "just-binding": (lambda: just_binding(107_492, 257), 257, 8),
    "just-binding-small": (lambda: just_binding(1_930, 34), 34, 8),
    "geomspace": (lambda: np.geomspace(1.0, 1e-300, 200_000), 300, 18),
    "geomspace-small": (lambda: np.geomspace(1.0, 1e-300, 2_048), 30, 15),
    "one-heavy": (lambda: np.r_[1.0, np.full(100_000, 1e-300)], 22, 6),
    "one-heavy-small": (lambda: np.r_[1.0, np.full(2_047, 1e-300)], 22, 4),
    "random-1e6": (lambda: sample_random_prior(10**6, 0).weights, 4, 6),
    "random-1e5-t200": (lambda: sample_random_prior(10**5, 0).weights, 200, 8),
    "zipf-1e5": (lambda: 1.0 / np.arange(1, 100_001), 22, 7),
}


@pytest.mark.parametrize("name", sorted(HARD_SHAPES))
def test_hard_shapes_cost_at_most_the_predictor_cap_extra(name, monkeypatch):
    weights, t, most = HARD_SHAPES[name]
    p = new_prior(weights())
    calls = counted_evaluations(monkeypatch)
    plan = optimize(p, t)  # raises NumericalFailure unless the fill converged
    q = plan.q
    assert float(q.min()) >= 0.0
    assert float(q.max()) <= cap(t)
    assert 1.0 - 1e-12 <= float(q.sum()) <= 1.0
    assert plan.meta["kkt_residual"] <= 1e-9
    assert duality_gap(p.weights, q, t) <= 1e-14
    assert len(calls) <= most


def test_random_geometric_priors_cost_few_evaluations(monkeypatch):
    # Weights spanning 1 to 300 decades put the water level decades away from
    # a tangent of g' taken at the last level.  The loop spends about 7
    # evaluations per solve here; falling back on bisection costs about 40.
    calls = counted_evaluations(monkeypatch)
    for seed in range(40):
        rng = np.random.Generator(np.random.PCG64(seed))
        t = int(rng.integers(1, 41))
        n = int(rng.integers(max(100, math.floor(1.0 / cap(t)) + 2), 5001))
        q = optimize(new_prior(np.geomspace(1.0, 10.0 ** -int(rng.integers(1, 301)), n)), t).q
        assert 1.0 - 1e-12 <= float(q.sum()) <= 1.0
    assert len(calls) / 40 <= 12
