import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch import (
    AmplitudePlan,
    EspReport,
    InvalidInput,
    esp,
    new_prior,
    ranking_baseline,
    sample_random_prior,
    speedup_plan,
    success_prob_single,
    top_k_mass,
    uniform_plan,
)
from qsearch.esp import cap, marginal, slope, slope_and_curvature

NAIVE = new_prior([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])
UNIFORM8 = new_prior(np.ones(8))


def random_feasible_q(rng, n):
    raw = rng.random(n)
    return raw / raw.sum() * rng.random()


# ---------------------------------------------------------------- the curve


def test_single_item_golden_value():
    # 25/32 exactly in reals; one ulp of slack for the float route
    assert success_prob_single(0.125, 1) == pytest.approx(0.78125, abs=1e-15)


def test_single_item_identity_at_zero_queries():
    for q in np.linspace(0.0, 1.0, 23):
        assert success_prob_single(float(q), 0) == pytest.approx(q, abs=1e-15)


def test_single_item_saturates_at_cap():
    assert success_prob_single(0.25, 1) == 1.0


def test_single_item_domain_errors():
    with pytest.raises(InvalidInput):
        success_prob_single(-0.1, 1)
    with pytest.raises(InvalidInput):
        success_prob_single(1.1, 1)
    with pytest.raises(InvalidInput):
        success_prob_single(0.5, -1)


def test_single_item_monotone_below_cap():
    for t in (1, 2, 3):
        cap_t = math.sin(math.pi / (2 * (2 * t + 1))) ** 2
        grid = np.linspace(0.0, cap_t, 200)
        vals = [success_prob_single(float(q), t) for q in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------- plans


def test_plan_validation():
    with pytest.raises(InvalidInput):
        AmplitudePlan(q=np.array([-0.1, 0.5]), t=1)
    with pytest.raises(InvalidInput):
        AmplitudePlan(q=np.array([1.2]), t=1)
    with pytest.raises(InvalidInput):
        AmplitudePlan(q=np.array([0.7, 0.7]), t=1)
    with pytest.raises(InvalidInput):
        AmplitudePlan(q=np.array([0.5]), t=-1)
    with pytest.raises(InvalidInput):
        AmplitudePlan(q=np.array([0.5]), t=1.5)


def test_plan_is_frozen():
    plan = uniform_plan(4, 1)
    assert plan.n == 4 and plan.t == 1
    with pytest.raises(ValueError):
        plan.q[0] = 0.9


def test_report_validation():
    with pytest.raises(InvalidInput):
        EspReport(value=1.5, M=4)


# ----------------------------------------------------------------- esp core


def test_esp_golden_values():
    assert esp(UNIFORM8, uniform_plan(8, 1)) == pytest.approx(0.78125, abs=1e-12)
    spec_plan = AmplitudePlan(q=np.array([0.25] * 4 + [0.0] * 4), t=1)
    assert esp(NAIVE, spec_plan) == 1.0
    assert esp(NAIVE, AmplitudePlan(q=np.zeros(8), t=3)) == 0.0


def test_esp_dimension_mismatch():
    with pytest.raises(InvalidInput):
        esp(NAIVE, uniform_plan(4, 1))


@given(st.integers(0, 2**32), st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_esp_is_linear_in_the_prior(seed, alpha):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = sample_random_prior(6, seed)
    b = sample_random_prior(6, seed + 17)
    plan = AmplitudePlan(q=random_feasible_q(rng, 6), t=2)
    mixed = new_prior(alpha * a.weights + (1.0 - alpha) * b.weights)
    combined = alpha * esp(a, plan) + (1.0 - alpha) * esp(b, plan)
    assert esp(mixed, plan) == pytest.approx(combined, abs=1e-12)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_esp_perturbation_bounded_by_l1(seed):
    from qsearch import l1_distance

    rng = np.random.Generator(np.random.PCG64(seed))
    p = sample_random_prior(8, seed)
    p_hat = sample_random_prior(8, seed + 1)
    plan = AmplitudePlan(q=random_feasible_q(rng, 8), t=1)
    assert abs(esp(p, plan) - esp(p_hat, plan)) <= l1_distance(p, p_hat) + 1e-12


# ------------------------------------------------------------------ ranking


def test_ranking_on_naive_prior():
    report = ranking_baseline(NAIVE, 1)
    assert report.value == 1.0
    assert report.M == 4


def test_ranking_on_uniform_prior():
    report = ranking_baseline(UNIFORM8, 1)
    assert report.value == pytest.approx(0.78125, abs=1e-12)
    assert report.M == 8


def test_ranking_at_zero_queries_is_single_guess():
    # exact M-ties at t=0 must resolve to M=1 despite float noise
    report = ranking_baseline(NAIVE, 0)
    assert report.value == 0.25
    assert report.M == 1
    p = sample_random_prior(11, 3)
    report = ranking_baseline(p, 0)
    assert report.value == pytest.approx(float(p.weights.max()), abs=1e-12)
    assert report.M == 1


@given(st.integers(0, 2**32), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_ranking_dominates_uniform_grover(seed, t):
    p = sample_random_prior(10, seed)
    assert ranking_baseline(p, t).value >= esp(p, uniform_plan(10, t)) - 1e-12


# ------------------------------------------------------------------ speedup


def test_speedup_plan_structure():
    plan = speedup_plan(sample_random_prior(20, 0), 4)
    assert plan.t == 2
    occupied = plan.q[plan.q > 0]
    assert occupied.size == 4
    assert occupied.tolist() == pytest.approx([0.09549150281252627] * 4, abs=1e-16)
    assert float(plan.q.sum()) == pytest.approx(0.3819660112501051, abs=1e-15)


def test_speedup_single_query():
    p = sample_random_prior(9, 1)
    plan = speedup_plan(p, 1)
    assert plan.t == 1
    assert esp(p, plan) == pytest.approx(float(p.weights.max()), abs=1e-12)


def test_speedup_on_naive_prior_reaches_certainty():
    plan = speedup_plan(NAIVE, 4)
    assert plan.t == 2
    assert esp(NAIVE, plan) == 1.0


@given(st.integers(0, 2**32), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_speedup_matches_classical_mass(seed, t_classical):
    p = sample_random_prior(16, seed)
    plan = speedup_plan(p, t_classical)
    assert esp(p, plan) == pytest.approx(top_k_mass(p, t_classical), abs=1e-12)
    assert float(plan.q.sum()) <= math.pi**2 / 16.0 + 1e-12


def test_speedup_rejects_bad_budget():
    with pytest.raises(InvalidInput):
        speedup_plan(NAIVE, 0)
    with pytest.raises(InvalidInput):
        speedup_plan(NAIVE, 9)


def test_marginal_face_values():
    # g'(0+) = (2t+1)^2 at and below 0; above the cap q is read as the cap.
    q = np.array([-0.1, 0.0, 0.05, cap(2), 0.5])
    out = marginal(q, 2)
    assert out[:2].tolist() == [25.0, 25.0]
    assert out[2] == slope(np.array([0.05]), 5)[0]
    assert out[3] == out[4] == slope(np.array([cap(2)]), 5)[0]
    assert abs(out[3]) < 1e-12
    # at t = 0 the curve is the identity, slope 1 up to q = 1
    assert marginal(np.array([0.0, 0.5, 1.0]), 0).tolist() == [1.0, 1.0, 1.0]


def test_marginal_is_exactly_one_at_zero_queries():
    # The slope formula reads 1.414 at the float below 1 and 1 + 4e-9 at
    # 1 - 2^-52; at t = 0 g is the identity, with slope 1 everywhere.
    q = np.array([np.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 0.5, 0.0, 1.0])
    assert marginal(q, 0).tolist() == [1.0] * 5


@pytest.mark.parametrize("t", [1, 2, 4, 10, 22, 64])
def test_curvature_is_the_derivative_of_slope(t):
    # g'' against a central difference of g', from deep in the series branch
    # (k^2 q < 1e-5) up to just below the cap.
    k, c = 2 * t + 1, cap(t)
    q = np.geomspace(1e-7, 0.999, 60) * c
    h = np.minimum(0.5 * np.minimum(q, c - q), 1e-5 * c)
    central = (slope(q + h, k) - slope(q - h, k)) / (2.0 * h)
    g1, g2 = slope_and_curvature(q, k)
    assert g2 == pytest.approx(central, rel=1e-7)
    assert g1.tolist() == slope(q, k).tolist()


def test_curvature_is_negative_up_to_the_cap():
    # the strict concavity of g on [0, cap(t)] that the water-fill relies on
    for t in range(1, 65):
        k, c = 2 * t + 1, cap(t)
        q = np.concatenate([[0.0], np.geomspace(1e-300, c, 300), np.linspace(0.0, c, 2001)])
        _, g2 = slope_and_curvature(q, k)
        assert float(g2.max()) < 0.0, t
    # at t = 1: -48 at q = 0, rising to -24 at the cap
    _, g2 = slope_and_curvature(np.array([0.0, cap(1)]), 3)
    assert g2.tolist() == pytest.approx([-48.0, -24.0], rel=1e-12)


@pytest.mark.parametrize("t", [1, 2, 5, 22, 64])
def test_curvature_limit_at_zero(t):
    k = 2 * t + 1
    g1, g2 = slope_and_curvature(np.array([0.0]), k)
    assert g1[0] == k * k
    assert g2[0] == -2.0 * k * k * (k * k - 1) / 3.0
    # the series and the closed form meet where the branch switches
    edge = 1e-5 / (k * k)
    _, (below, above) = slope_and_curvature(np.array([edge * (1 - 1e-12), edge * (1 + 1e-12)]), k)
    assert below == pytest.approx(above, rel=1e-10)
