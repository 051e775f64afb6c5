import contextlib
import io
import math
from types import SimpleNamespace

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
from qsearch import bounds, cli
from qsearch.esp import cap, marginal

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


def test_grid_search_rejects_limits_before_building_the_grid(monkeypatch):
    # The level table has (1/step + 1)^m entries, so every cap runs first.
    def must_not_run(*args):
        raise AssertionError("grid built past a limit")

    monkeypatch.setattr(bounds, "_simplex_grid", must_not_run)
    for args, error in [
        ((new_prior(np.ones(4)), 2), ResourceLimit),
        ((new_prior(np.ones(3)), 4), ResourceLimit),
        ((new_prior(np.ones(3)), 2, 0.01), ResourceLimit),
        ((new_prior(np.ones(3)), 2, 0.0), InvalidInput),
        ((new_prior(np.ones(3)), 0), InvalidInput),
    ]:
        with pytest.raises(error):
            lemma_a1_search(*args)


def report_bits(report):
    return repr(report.bound_value), repr(report.residual), repr(report.achiever)


def verify_ascent_inputs(monkeypatch):
    """The (prior, t) pairs `qsearch verify --seed 0..2` bounds, recorded by a stub."""
    calls = []

    def record(*args):
        calls.append(args)
        return SimpleNamespace(residual=0.0)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "theorem_a2_bound", record)
        for seed in range(3):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", "--seed", str(seed)])
    return calls


def reference_ascend(w, r0, t):
    """Unbatched form of bounds._ascend: each seed ascends on its own."""

    def project(r):
        r = np.minimum(r, 1.0)
        clipped = np.maximum(r, 0.0)
        if float(clipped.sum()) <= 1.0:
            return clipped
        u = np.sort(r)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u - css / np.arange(1, r.size + 1) > 0.0)[0][-1]
        return np.maximum(r - css[rho] / float(rho + 1), 0.0)

    def objective(r):
        return float(w @ bounds._clamped((2 * t + 1) * np.arcsin(np.sqrt(np.clip(r, 0.0, 1.0)))))

    values, rows = [], []
    for seed in r0:
        r = project(seed)
        value = objective(r)
        for _ in range(bounds._MAX_ASCENT_STEPS):
            grad = np.where(r < cap(t), w * marginal(r, t), 0.0)
            candidate = project(r + grad)
            if float(np.linalg.norm(candidate - r)) < bounds._CONVERGENCE_TOL:
                break
            for halvings in range(60):
                if halvings:
                    candidate = project(r + 0.5**halvings * grad)
                cand_value = objective(candidate)
                if cand_value > value:
                    r, value = candidate, cand_value
                    break
            else:
                break
        values.append(value)
        rows.append(r)
    return values, np.array(rows)


def ascent_cases(kind, monkeypatch):
    if kind == "criterion-05":
        rng = np.random.Generator(np.random.PCG64(501))
        cases = []
        for _ in range(20):
            n = int(rng.integers(2, 9))
            t = int(rng.integers(1, 4))
            cases.append((sample_random_prior(n, int(rng.integers(0, 2**63))), t))
        return cases
    if kind == "verify":
        return verify_ascent_inputs(monkeypatch)
    shapes = {
        "uniform": np.ones,
        "geometric": lambda n: np.geomspace(1.0, 1e-12, n),
        "one-hot": lambda n: np.eye(n)[0],
    }
    return [(new_prior(shapes[kind](n)), t) for n in range(1, 9) for t in range(4)]


@pytest.mark.parametrize("kind", ["criterion-05", "verify", "uniform", "geometric", "one-hot"])
def test_batched_ascent_matches_one_seed_at_a_time(kind, monkeypatch):
    if kind == "geometric":
        # Some seeds crawl on these priors until the step cap, which takes
        # minutes one seed at a time; a short cap keeps that exit compared.
        monkeypatch.setattr(bounds, "_MAX_ASCENT_STEPS", 20)
    for p, t in ascent_cases(kind, monkeypatch):
        batched = report_bits(theorem_a2_bound(p, t))
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_ascend", reference_ascend)
            reference = report_bits(theorem_a2_bound(p, t))
        assert batched == reference, (p.weights.tolist(), t)


def reference_unrestricted(w, arcs, m):
    """Unrestricted grid enumeration without the level table: f^2 of every coordinate total."""
    best_value, best_flat = -1.0, 0
    for a, sums in enumerate(arcs if m > 1 else arcs[None]):
        for _ in range(m - 1):
            sums = sums[..., None, :] + arcs
        totals = bounds._clamped(sums) @ w
        flat = int(np.argmax(totals))
        if float(totals.flat[flat]) > best_value:
            best_value, best_flat = float(totals.flat[flat]), a * totals.size + flat
    return best_value, best_flat


def check_level_table(w, m, step):
    steps = max(1, round(1.0 / step))
    levels = bounds._simplex_grid(w.size, steps)
    arcs = np.arcsin(np.sqrt(levels / float(steps)))
    # Every level has one arc, so a table indexed by level holds the bits of arcs.
    level_arc = np.zeros(steps + 1)
    level_arc[levels] = arcs
    assert level_arc[levels].tobytes() == arcs.tobytes()
    fresh = np.arcsin(np.sqrt(np.arange(steps + 1) / float(steps)))
    assert fresh[levels].tobytes() == arcs.tobytes()
    got = bounds._best_unrestricted(w, levels, arcs, m)
    assert repr(got) == repr(reference_unrestricted(w, arcs, m)), (w.tolist(), m, step)


@pytest.mark.parametrize(
    "n, m, step",
    [
        (n, m, step)
        for n in (1, 2, 3)
        for m in (1, 2, 3)
        for step in (0.05, 0.1, 0.25, 0.5, 1.0) + ((0.02,) if m <= 2 else ())
    ],
)
def test_level_table_matches_per_chunk_enumeration(n, m, step):
    # random priors at n = 3 are the criterion 06 ones, in the next test
    priors = [np.ones(n) / n, np.eye(n)[0]]
    if n == 2:
        priors.append(sample_random_prior(2, 42).weights)
    if n == 3:
        priors.append(new_prior([1.0, 1.0, 0.0]).weights)
    for w in priors:
        check_level_table(w, m, step)


def test_level_table_matches_on_criterion_06_priors():
    rng = np.random.Generator(np.random.PCG64(601))
    for index in range(5):
        p = sample_random_prior(3, int(rng.integers(0, 2**63)))
        check_level_table(p.weights, 3 if index % 2 == 0 else 2, 0.05)
