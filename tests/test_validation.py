"""Every integer argument goes through one rule: qsearch.errors.check_int."""

import numpy as np
import pytest

from qsearch import (
    AmplitudePlan,
    InvalidInput,
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
