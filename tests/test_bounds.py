import contextlib
import functools
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsearch import (
    AmplitudePlan,
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
from qsearch import bounds, cli, optimizer
from qsearch.esp import cap

NAIVE = new_prior([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])


def test_f_clamped_shape():
    below = np.array([0.0, math.pi / 6.0, math.pi / 4.0, 1.5])
    assert bounds._clamped(below).tolist() == pytest.approx(np.sin(below) ** 2, abs=1e-15)
    assert bounds._clamped(np.array([math.pi / 2.0, 2.0, 50.0])).tolist() == [1.0, 1.0, 1.0]


def test_f_clamped_monotone():
    ys = bounds._clamped(np.linspace(0.0, 4.0, 200))
    assert np.all(np.diff(ys) >= -1e-15)


def test_exchange_map_keeps_equal_rows_and_saturates_past_half_pi():
    # Three equal rows at t = 1: items 0 and 1 pass pi/2 and map to the cap,
    # item 2 keeps its 0.2 and item 3 its 0.
    theta, q = bounds.exchange_map(np.tile([0.5, 0.3, 0.2, 0.0], (3, 1)))
    assert q.tolist() == pytest.approx([cap(1), cap(1), 0.2, 0.0], abs=1e-15)
    p = new_prior([4.0, 3.0, 2.0, 1.0])
    value = float(p.weights @ bounds._clamped(theta))
    assert value == pytest.approx(esp(p, AmplitudePlan(q=q, t=1)), abs=1e-15)


def test_report_validation():
    with pytest.raises(InvalidInput):
        BoundReport(bound_value=1.5, achiever=np.zeros(2), residual=0.0)


def test_duality_bound_on_saturating_prior():
    report = theorem_a2_bound(NAIVE, 1)
    assert report.bound_value == pytest.approx(1.0, abs=1e-9)
    assert abs(report.residual) <= 1e-9


def test_duality_bound_matches_uniform_optimum():
    p = new_prior(np.ones(8))
    report = theorem_a2_bound(p, 1)
    assert report.bound_value >= 0.78125 - 1e-9
    assert abs(report.residual) <= 1e-6
    assert float(np.sum(report.achiever)) <= 1.0 + 1e-9


def test_duality_bound_point_mass():
    p = new_prior([1.0, 0.0, 0.0])
    report = theorem_a2_bound(p, 1)
    assert report.bound_value == pytest.approx(1.0, abs=1e-12)
    # certainty on one item requires its amplitude to reach the saturation point
    assert float(report.achiever[0]) >= 0.25 - 1e-9


def test_duality_bound_zero_queries():
    report = theorem_a2_bound(NAIVE, 0)
    assert report.bound_value == pytest.approx(0.25, abs=1e-9)
    assert abs(report.residual) <= 1e-9


@pytest.mark.parametrize("seed, n, t", [(5, 5, 1), (6, 8, 2), (7, 6, 3)])
def test_duality_bound_certifies_optimizer(seed, n, t):
    p = sample_random_prior(n, seed)
    report = theorem_a2_bound(p, t)
    assert abs(report.residual) <= 1e-6


def test_duality_bound_residual_is_against_the_optimizer():
    p = sample_random_prior(6, 9)
    report = theorem_a2_bound(p, 1)
    own = esp(p, optimize(p, 1))
    assert report.residual == pytest.approx(report.bound_value - own, abs=1e-15)


def test_duality_bound_residual_sees_a_plan_past_the_cap(monkeypatch):
    # The bound is taken at the plan clipped to the cap, but the residual is
    # against the plan as solved: at t=1, q=0.5 reads sin(3 pi/4)^2 = 0.5.
    monkeypatch.setattr(optimizer, "optimize", lambda p, t: AmplitudePlan(q=[0.5, 0.0, 0.0], t=t))
    report = theorem_a2_bound(new_prior([1.0, 0.0, 0.0]), 1)
    assert report.bound_value == pytest.approx(1.0, abs=1e-15)
    assert report.residual == pytest.approx(0.5, abs=1e-15)
    assert report.achiever.tolist() == [0.5, 0.0, 0.0]


def test_duality_bound_limits():
    # One O(n) pass after the solve: no size cap, large inputs included.
    for p, t in ((new_prior(np.ones(9)), 4), (sample_random_prior(10**5, 0), 22)):
        assert -1e-15 <= theorem_a2_bound(p, t).residual <= 1e-12
    with pytest.raises(InvalidInput):
        theorem_a2_bound(new_prior(np.ones(4)), -1)


def test_duality_bound_rejects_bad_t_before_solving(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("solver ran on an invalid t")

    monkeypatch.setattr(optimizer, "optimize", must_not_run)
    with pytest.raises(InvalidInput):
        theorem_a2_bound(sample_random_prior(8, 3), 2.5)


def test_duality_bound_is_one_solve_on_the_crawl_prior(monkeypatch):
    # A multi-start projected ascent crawled here until its 5,000-step cap
    # and stopped 9.99e-10 below the solver's ESP; the dual bound is one
    # solve and one pass.
    solves = []
    solve = optimizer.optimize
    monkeypatch.setattr(optimizer, "optimize", lambda p, t: solves.append(t) or solve(p, t))
    report = theorem_a2_bound(new_prior(np.geomspace(1.0, 1e-12, 5)), 1)
    assert solves == [1]
    assert report.residual >= -1e-15


@given(st.integers(0, 6), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16), st.data())
@settings(max_examples=200, deadline=None)
def test_duality_bound_holds_at_any_point_of_the_box(t, raw, data):
    # D(q) bounds the optimum for every q in [0, cap]^n, feasible or not,
    # so a wrong plan can only loosen it.  Its sums hold terms of size
    # sum(q), up to n cap off the simplex, and round at that scale.
    assume(sum(raw) > 0.0)
    p = new_prior(raw)
    c = cap(t)
    fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=p.n, max_size=p.n))
    q = c * np.array(fractions)
    value = float(p.weights @ np.sin((2 * t + 1) * np.arcsin(np.sqrt(q))) ** 2)
    bound = value + bounds._duality_gap(p.weights, q, t)
    assert bound >= esp(p, optimize(p, t)) - 1e-15 * (1.0 + q.sum())


def test_duality_bound_at_zero_queries_next_to_a_full_item():
    # The slope formula reads 1.41 at the float below 1 when t=0, where the
    # true slope is 1; that tangent put the bound 0.14 below the optimum of 2/3.
    w = new_prior([0.5, 1.0]).weights
    q = np.array([np.nextafter(1.0, 0.0), 0.0])
    assert float(w @ q) + bounds._duality_gap(w, q, 0) >= 2.0 / 3.0 - 1e-15


def test_grid_search_two_items_saturates():
    p = new_prior([0.5, 0.5])
    report = lemma_a1_search(p, 2, grid_step=0.05)
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
    # The enumeration sums all g^m sequences of the g grid points, so every
    # cap runs first.
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


@functools.cache
def verify_bound_inputs(seeds):
    """The (prior, t) arguments `qsearch verify --seed S` passes the duality bound, S in seeds."""
    calls = []

    def record(*args):
        calls.append(args)
        return theorem_a2_bound(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "theorem_a2_bound", record)
        for seed in seeds:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", "--seed", str(seed)])
    return tuple(calls)


def test_verify_draws_water_filled_plans_from_five_items():
    # verify draws t with n cap(t) > 1, where the budget binds; at n <= 4
    # every t leaves it slack.
    for p, t in verify_bound_inputs((0, 1, 2)):
        if p.n >= 5:
            assert p.n * cap(t) > 1.0
            assert float(optimize(p, t).q.sum()) >= 1.0 - optimizer._TOL


def verify_grid_inputs(seeds):
    """The (prior, m) pairs `qsearch verify --seed S` passed the grid search when it ran one.

    Its check drew three priors at n = 3 from verify's fourth stream,
    PCG64([S, 3]), searched at m = 2, 3 and 2.
    """
    cases = []
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64([seed, 3]))
        cases += [(sample_random_prior(3, int(rng.integers(0, 2**63))), 2 + index % 2) for index in range(3)]
    return cases


def criterion_05_inputs():
    rng = np.random.Generator(np.random.PCG64(501))
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(1, 4))
        cases.append((sample_random_prior(n, int(rng.integers(0, 2**63))), t))
    return cases


def criterion_06_inputs():
    rng = np.random.Generator(np.random.PCG64(601))
    return [
        (sample_random_prior(3, int(rng.integers(0, 2**63))), 3 if index % 2 == 0 else 2, 0.05)
        for index in range(5)
    ]


def ceiling_weights():
    """Weights the ceiling must bound: random, tied and with zeros, as new_prior normalises them."""
    rng = np.random.Generator(np.random.PCG64(2201))
    weights = [new_prior(rng.random(n)).weights for n in (1, 2, 3) for _ in range(100)]
    fixed = ([1.0] * 3, [1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7], [1.0, 0.0])
    return weights + [new_prior(raw).weights for raw in fixed]


def test_ceiling_bounds_every_summation_order():
    # The grid sums totals of entries in [0, 1] with a matrix-vector product,
    # whose kernels sum rows in an order that can depend on the row's
    # position in its block; one BLAS dot per row (np.vecdot) is another
    # order.  All-ones rows, the largest possible, sit at every position
    # mod 8 of the (K, n) matrix.
    rng = np.random.Generator(np.random.PCG64(2202))
    for w in ceiling_weights():
        ceiling = bounds._ceiling(w)
        table = rng.random((64, w.size))
        table[rng.random(table.shape) < 0.3] = 1.0
        table[np.arange(0, 64, 9)] = 1.0
        for totals in (table @ w, np.vecdot(table, w), table.reshape(8, 8, w.size) @ w):
            assert float(totals.max()) <= ceiling, (w.tolist(), ceiling)


@contextlib.contextmanager
def chunk_counter():
    """Count the chunks bounds._best_sequence evaluates: each applies bounds._clamped once."""
    chunks = []
    clamped = bounds._clamped
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_clamped", lambda angles: chunks.append(None) or clamped(angles))
        yield chunks


def level_table_sequence(w, levels, arcs, m):
    """The grid's former search, without its stop: f^2 once per tuple of levels, gathered per chunk.

    It adds arcs in the same order as bounds._best_sequence but reaches
    each sequence's coordinates through a table indexed by level, so the
    two agree bit for bit only if both index the grid alike.
    """
    size = int(levels.max()) + 1
    level_arc = np.zeros(size)
    level_arc[levels] = arcs
    # the table holds the bits of arcs only if every level has one arc
    assert level_arc[levels].tobytes() == arcs.tobytes()
    table = level_arc
    for _ in range(m - 1):
        table = table[..., None] + level_arc
    table = bounds._clamped(table)
    if m == 1:
        chunks = [(table, levels)]
    else:
        rest = np.arange(levels.shape[1])
        for _ in range(m - 1):
            rest = rest[..., None, :] * size + levels
        table = table.reshape(size, -1)
        chunks = [(table[first], rest) for first in levels]
    best_value, best_flat = -1.0, 0
    for a, (block, index) in enumerate(chunks):
        totals = np.take(block, index) @ w
        flat = int(np.argmax(totals))
        if float(totals.flat[flat]) > best_value:
            best_value, best_flat = float(totals.flat[flat]), a * totals.size + flat
    return best_value, best_flat


def check_level_table(w, m, step):
    """Compare bounds._best_sequence, stopped at the ceiling, with the level table run to the end.

    The equal family's one-row search on reps * arcs is compared likewise,
    for reps = 1..3.
    """
    steps = max(1, round(1.0 / step))
    levels = bounds._simplex_grid(w.size, steps)
    arcs = np.arcsin(np.sqrt(levels / float(steps)))
    got = bounds._best_sequence(w, arcs, m)
    assert repr(got) == repr(level_table_sequence(w, levels, arcs, m)), (w.tolist(), m, step)
    for reps in (1, 2, 3):
        got = bounds._best_sequence(w, reps * arcs, 1)
        want = level_table_sequence(w, levels, reps * arcs, 1)
        assert repr(got) == repr(want), (w.tolist(), reps, step)


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
    for p, m, step in criterion_06_inputs():
        check_level_table(p.weights, m, step)


def verify_m3_prior(seed):
    """The prior `qsearch verify --seed S` passed its m=3 grid."""
    return verify_grid_inputs([seed])[1][0]


@pytest.mark.parametrize(
    "name, m, step, chunks",
    [
        ("thirds", 3, 0.1, 1),
        ("verify-0", 3, 0.05, 1),
        ("zero-weight", 2, 0.1, 1),
        ("verify-3", 3, 0.05, 231),
    ],
)
def test_stopped_enumeration_matches_the_unstopped_one(name, m, step, chunks, monkeypatch):
    # The enumeration stops once a total reaches bounds._ceiling(w).  Seed 3's
    # weights round to 1.0 in the product's order and to 1.0000000000000002
    # in another, so no total reaches the ceiling and all 231 chunks run.
    w = {
        "thirds": new_prior([1.0] * 3),
        "verify-0": verify_m3_prior(0),
        "zero-weight": new_prior([1.0, 1.0, 0.0]),
        "verify-3": verify_m3_prior(3),
    }[name].weights
    steps = round(1.0 / step)
    arcs = np.arcsin(np.sqrt(bounds._simplex_grid(w.size, steps) / float(steps)))
    with chunk_counter() as stopped_chunks:
        stopped = bounds._best_sequence(w, arcs, m)
    monkeypatch.setattr(bounds, "_ceiling", lambda w: math.inf)
    with chunk_counter() as all_chunks:
        unstopped = bounds._best_sequence(w, arcs, m)
    assert (len(stopped_chunks), len(all_chunks)) == (chunks, len(arcs))
    assert repr(stopped) == repr(unstopped)


def test_grid_search_stops_at_the_ceiling():
    # one chunk for the equal family's one-row search, one for the m = 3
    # search, which stops at its first
    with chunk_counter() as chunks:
        lemma_a1_search(verify_m3_prior(0), 3)
    assert len(chunks) == 2


def report_digest(reports):
    """sha256 over repr(bound_value), repr(residual) and achiever bytes, report by report."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr(report.bound_value).encode())
        digest.update(repr(report.residual).encode())
        digest.update(report.achiever.tobytes())
    return digest.hexdigest()


# report_digest of every report `verify --seed 0..2` and criteria 05 / 06
# make, one digest per bound.  A digest moves only with a CHANGES.md entry
# that explains the bits that moved it.
BOUND_DIGESTS = {
    "duality": "06d0ebf10d453709e0595006603560b5ed072cdc61d2cf0267265e33150cedc6",
    "grid": "cfb6915f7996920800758403f306a5d042ccf63dcae89d96dd079b3f28699df7",
}


def test_bound_reports_keep_their_bits():
    duality_cases = list(verify_bound_inputs((0, 1, 2))) + criterion_05_inputs()
    grid_cases = verify_grid_inputs((0, 1, 2)) + criterion_06_inputs()
    assert report_digest(theorem_a2_bound(*args) for args in duality_cases) == BOUND_DIGESTS["duality"]
    assert report_digest(lemma_a1_search(*args) for args in grid_cases) == BOUND_DIGESTS["grid"]


@pytest.mark.parametrize("n", range(1, 10))
def test_vecdot_is_one_dot_per_row(n):
    # np.vecdot over rows has the bits of `w @ row` on each: both call BLAS
    # ddot once per row, where a matrix-vector product, einsum or
    # (V * w).sum(1) sum in another order (OpenBLAS's ddot uses FMA).  No
    # code in src relies on it since the transfer refinement went; it stays
    # as a probe that tells OpenBLAS kernels apart, as the bit pins need.
    rng = np.random.Generator(np.random.PCG64(n))
    wide = rng.choice([-1.0, 1.0], (5000, 2 * n)) * 10.0 ** rng.uniform(-300.0, 5.0, (5000, 2 * n))
    w = rng.random(n) * 10.0 ** rng.uniform(-300.0, 5.0, n)
    layouts = {
        "contiguous": np.ascontiguousarray(wide[:, :n]),
        "row-strided": wide[:, :n],
        "strided": wide[:, ::2],
    }
    for layout, rows in layouts.items():
        dots = np.array([w @ row for row in rows])
        assert np.vecdot(rows, w).tobytes() == dots.tobytes(), (
            f"np.vecdot no longer has the bits of `w @ row` on {layout} rows at n={n}; "
            f"NumPy {np.__version__} or its BLAS changed how it sums"
        )
