import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsearch import (
    InvalidInput,
    l1_distance,
    load_prior,
    new_prior,
    sample_random_prior,
    top_k_mass,
)

NAIVE = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0]


def test_uniform_normalization():
    p = new_prior([1, 1, 1, 1])
    assert p.weights.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert p.n == 4


def test_already_normalized_input_is_unchanged():
    p = new_prior(NAIVE)
    assert p.weights.tolist() == NAIVE


def test_single_support_normalization():
    assert new_prior([2, 0, 0, 0]).weights.tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("bad", [[], [1.0, -0.5], [0.0, 0.0], [float("nan"), 1.0]])
def test_new_prior_rejects_bad_input(bad):
    with pytest.raises(InvalidInput):
        new_prior(bad)


@pytest.mark.parametrize(
    "raw",
    [
        [1e308, 1e308],
        [1.7e308, 1.7e308, 1.7e308, 1e-300],
        np.geomspace(1e308, 1e-300),
        np.geomspace(1e308, 1e-300, 4000),
    ],
)
def test_new_prior_accepts_huge_finite_weights(raw):
    raw = np.asarray(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = new_prior(raw)
    assert abs(float(p.weights.sum()) - 1.0) <= 1e-12
    assert np.all(np.diff(p.weights) <= 0.0)  # input order and ranking kept
    assert float(p.weights[0]) == pytest.approx(1.0 / float(np.sum(raw / raw.max())), rel=1e-12)


@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_new_prior_divides_by_the_plain_sum(raw):
    w = np.asarray(raw, dtype=np.float64)
    assume(w.sum() > 0.0)
    assert new_prior(w).weights.tobytes() == (w / w.sum()).tobytes()


def test_new_prior_rejects_non_numeric():
    with pytest.raises(InvalidInput):
        new_prior(["a", "b"])


def test_weights_are_read_only():
    p = new_prior([1, 2, 3])
    with pytest.raises(ValueError):
        p.weights[0] = 0.5


def test_l1_examples():
    p = new_prior([0.6, 0.4])
    assert l1_distance(p, p) == 0.0
    assert l1_distance(new_prior([1, 0]), new_prior([0, 1])) == 2.0
    assert l1_distance(p, new_prior([0.5, 0.5])) == pytest.approx(0.2, abs=1e-15)


def test_l1_dimension_mismatch():
    with pytest.raises(InvalidInput):
        l1_distance(new_prior([1, 1]), new_prior([1, 1, 1]))


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_l1_symmetry_and_triangle(seed):
    a = sample_random_prior(6, seed)
    b = sample_random_prior(6, seed + 1)
    c = sample_random_prior(6, seed + 2)
    assert l1_distance(a, b) == l1_distance(b, a) >= 0.0
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


def test_sampler_is_deterministic():
    a = sample_random_prior(512, 7)
    b = sample_random_prior(512, 7)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.weights.tobytes() != sample_random_prior(512, 8).weights.tobytes()


def test_sampler_edge_cases():
    assert sample_random_prior(1, 123).weights.tolist() == [1.0]
    with pytest.raises(InvalidInput):
        sample_random_prior(0, 1)
    # normalization identity: mean = sum/n and the sum is 1 up to one rounding
    mean = float(sample_random_prior(512, 7).weights.mean())
    assert mean == pytest.approx(1.0 / 512.0, abs=1e-17)


@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40).filter(
        lambda ws: sum(ws) > 1e-9
    )
)
@settings(max_examples=60, deadline=None)
def test_normalization_invariant(raw):
    p = new_prior(raw)
    assert abs(float(p.weights.sum()) - 1.0) <= 1e-12
    assert float(p.weights.min()) >= 0.0


def test_top_k_mass_examples():
    naive = new_prior(NAIVE)
    assert top_k_mass(naive, 1) == 0.25
    assert top_k_mass(naive, 0) == 0.0
    assert top_k_mass(new_prior([0.5, 0.3, 0.2]), 2) == pytest.approx(0.8, abs=1e-15)


def test_top_k_mass_bounds_and_monotonicity():
    p = sample_random_prior(17, 99)
    masses = [top_k_mass(p, k) for k in range(p.n + 1)]
    assert masses[0] == 0.0
    assert masses[-1] == 1.0
    assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
    with pytest.raises(InvalidInput):
        top_k_mass(p, p.n + 1)
    with pytest.raises(InvalidInput):
        top_k_mass(p, -1)


def test_top_k_sorts_internally_without_touching_input():
    p = new_prior([0.1, 0.7, 0.2])
    assert top_k_mass(p, 1) == pytest.approx(0.7)
    assert p.weights.tolist() == pytest.approx([0.1, 0.7, 0.2])


def test_loader_normalizes(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text('{"weights": [2, 2]}')
    assert load_prior(path).weights.tolist() == [0.5, 0.5]


def test_loader_reads_json_dump_exactly(tmp_path):
    rng = np.random.default_rng(3)
    raw = rng.random(1000)
    raw[rng.random(1000) < 0.95] = 0.0
    path = tmp_path / "raw.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"weights": raw.tolist()}, fh)
    assert load_prior(path).weights.tolist() == new_prior(raw).weights.tolist()


@pytest.mark.parametrize(
    "text", ["not json", "[1, 2]", '{"nope": 1}', '{"weights": "x"}', '{"weights": []}']
)
def test_loader_rejects_malformed_files(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InvalidInput):
        load_prior(path)
