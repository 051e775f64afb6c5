import math

import numpy as np
import pytest

from qsearch import (
    BoundReport,
    InvalidInput,
    ResourceLimit,
    esp,
    lemma_a1_search,
    new_prior,
    optimize,
    sample_random_prior,
    theorem_a2_bound,
)
from qsearch import bounds

NAIVE = new_prior([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])


def test_f_clamped_shape():
    below = np.array([0.0, math.pi / 6.0, math.pi / 4.0, 1.5])
    assert bounds._clamped(below).tolist() == pytest.approx(np.sin(below) ** 2, abs=1e-15)
    assert bounds._clamped(np.array([math.pi / 2.0, 2.0, 50.0])).tolist() == [1.0, 1.0, 1.0]


def test_f_clamped_monotone():
    ys = bounds._clamped(np.linspace(0.0, 4.0, 200))
    assert np.all(np.diff(ys) >= -1e-15)


def test_report_validation():
    with pytest.raises(InvalidInput):
        BoundReport(bound_value=0.5, achiever=np.zeros(2), method="magic", residual=0.0)
    with pytest.raises(InvalidInput):
        BoundReport(bound_value=1.5, achiever=np.zeros(2), method="grid", residual=0.0)


def test_ascent_bound_on_saturating_prior():
    report = theorem_a2_bound(NAIVE, 1)
    assert report.method == "projected-ascent"
    assert report.bound_value == pytest.approx(1.0, abs=1e-9)
    assert abs(report.residual) <= 1e-9


def test_ascent_bound_matches_uniform_optimum():
    p = new_prior(np.ones(8))
    report = theorem_a2_bound(p, 1)
    assert report.bound_value >= 0.78125 - 1e-9
    assert abs(report.residual) <= 1e-6
    assert float(np.sum(report.achiever)) <= 1.0 + 1e-9


def test_ascent_bound_point_mass():
    p = new_prior([1.0, 0.0, 0.0])
    report = theorem_a2_bound(p, 1)
    assert report.bound_value == pytest.approx(1.0, abs=1e-12)
    # certainty on one item requires its amplitude to reach the saturation point
    assert float(report.achiever[0]) >= 0.25 - 1e-9


def test_ascent_bound_zero_queries():
    report = theorem_a2_bound(NAIVE, 0)
    assert report.bound_value == pytest.approx(0.25, abs=1e-9)
    assert abs(report.residual) <= 1e-9


@pytest.mark.parametrize("seed, n, t", [(5, 5, 1), (6, 8, 2), (7, 6, 3)])
def test_ascent_bound_certifies_optimizer(seed, n, t):
    p = sample_random_prior(n, seed)
    report = theorem_a2_bound(p, t)
    assert abs(report.residual) <= 1e-6


def test_ascent_bound_residual_is_against_the_optimizer():
    p = sample_random_prior(6, 9)
    report = theorem_a2_bound(p, 1)
    own = esp(p, optimize(p, 1))
    assert report.residual == pytest.approx(report.bound_value - own, abs=1e-15)


def test_ascent_bound_limits():
    with pytest.raises(ResourceLimit):
        theorem_a2_bound(new_prior(np.ones(9)), 1)
    with pytest.raises(ResourceLimit):
        theorem_a2_bound(new_prior(np.ones(4)), 4)
    with pytest.raises(InvalidInput):
        theorem_a2_bound(new_prior(np.ones(4)), -1)


def test_ascent_bound_rejects_bad_t_before_ascending(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("ascent ran on an invalid t")

    monkeypatch.setattr(bounds, "_ascend", must_not_run)
    with pytest.raises(InvalidInput):
        theorem_a2_bound(sample_random_prior(8, 3), 2.5)


def test_grid_search_two_items_saturates():
    p = new_prior([0.5, 0.5])
    report = lemma_a1_search(p, 2, grid_step=0.05)
    assert report.method == "grid"
    assert report.bound_value == pytest.approx(1.0, abs=1e-12)
    assert report.residual == pytest.approx(0.0, abs=1e-12)
    assert report.achiever.shape == (2, 2)


def test_grid_search_point_mass_single_step():
    p = new_prior([1.0, 0.0, 0.0])
    report = lemma_a1_search(p, 1, grid_step=0.05)
    assert report.bound_value == pytest.approx(1.0, abs=1e-12)
    assert report.achiever.shape == (1, 3)
    assert report.achiever[0].tolist() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("seed, m", [(21, 2), (22, 3), (23, 2)])
def test_grid_search_gap_is_small(seed, m):
    p = sample_random_prior(3, seed)
    report = lemma_a1_search(p, m, grid_step=0.05)
    assert report.residual >= -1e-12
    assert report.residual <= 0.1
    assert report.bound_value <= 1.0 + 1e-12


def test_grid_search_skewed_prior():
    p = new_prior([0.6, 0.3, 0.1])
    report = lemma_a1_search(p, 2, grid_step=0.05)
    assert -1e-12 <= report.residual <= 0.1


def test_grid_search_limits():
    with pytest.raises(ResourceLimit):
        lemma_a1_search(new_prior(np.ones(4)), 2)
    with pytest.raises(ResourceLimit):
        lemma_a1_search(new_prior(np.ones(3)), 4)
    with pytest.raises(ResourceLimit):
        lemma_a1_search(new_prior(np.ones(3)), 2, grid_step=0.01)
    with pytest.raises(InvalidInput):
        lemma_a1_search(new_prior(np.ones(3)), 0)
    with pytest.raises(InvalidInput):
        lemma_a1_search(new_prior(np.ones(3)), 2, grid_step=0.0)
    with pytest.raises(InvalidInput):
        lemma_a1_search(new_prior(np.ones(3)), 2, grid_step=1.5)
