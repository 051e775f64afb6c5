"""Argument validation.

Every integer argument goes through one rule, qsearch.errors.check_int, and
the two constructors check their vectors for finiteness before range.
"""

import math
import re

import numpy as np
import pytest

from qsearch import (
    AmplitudePlan,
    InvalidInput,
    Prior,
    lemma_a1_search,
    ranking_baseline,
    sample_random_prior,
    speedup_plan,
    success_prob_single,
    theorem_a2_bound,
    top_k_mass,
    uniform_plan,
)

P4 = sample_random_prior(4, 5)
P3 = sample_random_prior(3, 5)

# name -> (call with the integer argument x, smallest accepted value).
# cap, optimize and load_plan have their own cases in test_optimizer.py.
CALLS = {
    "AmplitudePlan.t": (lambda x: AmplitudePlan(q=np.array([0.5]), t=x), 0),
    "success_prob_single.t": (lambda x: success_prob_single(0.1, x), 0),
    "ranking_baseline.t": (lambda x: ranking_baseline(P4, x), 0),
    "theorem_a2_bound.t": (lambda x: theorem_a2_bound(P4, x), 0),
    "top_k_mass.k": (lambda x: top_k_mass(P4, x), 0),
    "speedup_plan.t_classical": (lambda x: speedup_plan(P4, x), 1),
    "lemma_a1_search.m": (lambda x: lemma_a1_search(P3, x), 1),
    "uniform_plan.n": (lambda x: uniform_plan(x, 1), 1),
    "sample_random_prior.n": (lambda x: sample_random_prior(x, 1), 1),
}

NOT_INTEGERS = [True, 1.5, 2.0, "1", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS + ["below"], ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_integer_arguments_are_validated(name, bad):
    call, minimum = CALLS[name]
    with pytest.raises(InvalidInput):
        call(minimum - 1 if bad == "below" else bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_numpy_integers_are_accepted(name):
    call, minimum = CALLS[name]
    call(np.int64(minimum + 1))


NAN, INF = math.nan, math.inf

# entries -> the message AmplitudePlan(q=entries) raises with.
PLAN_FINITE = "plan amplitudes must be finite"
PLAN_RANGE = "plan amplitudes must lie in [0, 1]"
BAD_PLANS = [
    ([0.1, NAN], PLAN_FINITE),
    ([INF, 0.1], PLAN_FINITE),
    ([0.1, -INF, 0.2], PLAN_FINITE),
    ([-0.5, NAN], PLAN_FINITE),  # finite is checked before range
    ([NAN, 2.0], PLAN_FINITE),
    ([INF, -1.0], PLAN_FINITE),
    ([1.5, -INF], PLAN_FINITE),
    ([0.2, -0.1], PLAN_RANGE),
    ([1.5], PLAN_RANGE),  # before its sum
    ([0.0, 1.0 + 2.0**-52], PLAN_RANGE),
    ([[0.25, 0.25]], "plan needs a non-empty 1-D amplitude vector"),
]

PRIOR_FINITE = "prior weights must be finite"
PRIOR_SIGN = "prior weights must be non-negative"
BAD_PRIORS = [
    ([0.5, 0.5, NAN], PRIOR_FINITE),
    ([INF, 0.5], PRIOR_FINITE),
    ([0.5, -INF, 0.5], PRIOR_FINITE),
    ([-0.5, 1.5, NAN], PRIOR_FINITE),  # finite is checked before sign
    ([NAN, -1.0], PRIOR_FINITE),
    ([-INF, 2.0], PRIOR_FINITE),
    ([INF, -1.0], PRIOR_FINITE),
    ([1.5, -0.5], PRIOR_SIGN),  # sums to 1
    ([2.0], "prior weights must sum to 1"),
    ([[0.5, 0.5]], "prior needs a non-empty 1-D weight vector"),
]


@pytest.mark.parametrize("entries, message", BAD_PLANS, ids=repr)
def test_plan_constructor_rejects(entries, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        AmplitudePlan(q=np.array(entries), t=1)


@pytest.mark.parametrize("entries, message", BAD_PRIORS, ids=repr)
def test_prior_constructor_rejects(entries, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        Prior(weights=np.array(entries))


def test_constructors_accept_negative_zero():
    plan = AmplitudePlan(q=np.array([-0.0, 0.5]), t=1)
    assert plan.q.tolist() == [0.0, 0.5]
    prior = Prior(weights=np.array([-0.0, 1.0]))
    assert prior.weights.tolist() == [0.0, 1.0]
