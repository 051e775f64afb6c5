"""Independent brute-force certification of the optimal plans.

Two oracles, both deliberately ignorant of the water-filling solver:

* an upper bound on any t-query strategy, maximized by projected gradient
  ascent over the uncapped simplex with the success curve clamped at 1 —
  agreement with the optimizer's ESP certifies that the per-item cap does
  not reduce the attainable maximum.  All seeds ascend together as one
  (seeds x n) array, each row with its own line search and stopping rule,
  and the line search tries its step halvings in blocks;
* a grid search over per-step amplitude allocations, checking that letting
  every query use a different allocation never beats reusing one fixed
  allocation by more than grid slack.  f^2 is evaluated once per tuple of
  per-step grid levels, and every allocation sequence reads its coordinates
  from that table.  The winners are refined by pairwise mass transfers,
  each sweep's candidate transfers evaluated as one stack.  Both stop once
  a total reaches ``_ceiling(w)``, the largest float any summation order
  rounds sum(w) to.  Every f^2 lies in [0, 1] and every weight is >= 0, so
  each product rounds to at most its weight and each sum rounds
  monotonically: no total can exceed the ceiling, so nothing past it wins.

Objectives are weighted sums taken with ``np.vecdot``, which calls BLAS
ddot once per row and so gives each row the bits of ``w @ row``; a
matrix-vector product sums some rows in another order, which would make a
bound's bits depend on the batch it was evaluated in.

Desk-scale caps keep both exact-ish searches cheap: n <= 8 / t <= 3 for the
ascent, n <= 3 / m <= 3 / step >= 0.02 for the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ResourceLimit, check_int
# esp is no longer called here, but perfbench/tracing.py wraps qsearch.bounds.esp.
from .esp import cap, esp, marginal  # noqa: F401
from .prior import Prior

_HALF_PI = 0.5 * math.pi

#: Restart count for the projected ascent; enough to be reliably global at n <= 8.
ASCENT_RESTARTS = 32

_ASCENT_SEED = 0x0B5E55ED
_CONVERGENCE_TOL = 1e-10
_MAX_ASCENT_STEPS = 5000
#: Step halvings the ascent tries together, as block edges: 0 | 1 | 2 | 3 | 4-7 | 8-59.
#: Most steps are accepted at two halvings; a row that fails them all runs to 60.
_HALVING_BLOCKS = (0, 1, 2, 3, 4, 8, 60)


@dataclass(frozen=True)
class BoundReport:
    """Certified value, the assignment attaining it, and a residual.

    ``residual`` is the gap to the reference being checked: bound minus the
    optimizer's ESP for the ascent bound, best-unrestricted minus best-equal
    for the grid search.
    """

    bound_value: float
    achiever: np.ndarray
    residual: float

    def __post_init__(self):
        if not -1e-9 <= self.bound_value <= 1.0 + 1e-9:
            raise InvalidInput(f"bound {self.bound_value!r} outside [0, 1]")


def _clamped(angles: np.ndarray) -> np.ndarray:
    """f(angle)^2 elementwise: sin(angle)^2 below pi/2, exactly 1 from there on."""
    vals = np.sin(np.minimum(angles, _HALF_PI)) ** 2
    return np.where(angles >= _HALF_PI, 1.0, vals)


def _objective(w: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    """sum_i p_i f((2t+1) arcsin sqrt(r_i))^2 with the clamp applied, per row of r.

    ``np.vecdot`` takes one BLAS ddot per row, the bits of ``w @ row``: a
    matrix-vector product sums some rows in another order, so the bound's
    bits would depend on the batch.
    """
    return np.vecdot(_clamped(k * np.arcsin(np.sqrt(np.clip(r, 0.0, 1.0)))), w)


def _project(r: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto {r >= 0, sum r <= 1}."""
    r = np.minimum(r, 1.0)
    clipped = np.maximum(r, 0.0)
    inside = clipped.sum(axis=1) <= 1.0
    if inside.all():
        return clipped
    # sort-based simplex projection (Duchi et al., ICML 2008; sum == 1 once
    # the budget binds), with rho the last rank whose shifted entry stays positive
    u = np.sort(r, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ranks = np.arange(1, r.shape[1] + 1)
    rho = r.shape[1] - 1 - np.argmax((u - css / ranks > 0.0)[:, ::-1], axis=1)
    shift = css[np.arange(r.shape[0]), rho] / (rho + 1.0)
    return np.where(inside[:, None], clipped, np.maximum(r - shift[:, None], 0.0))


def _ascend(w: np.ndarray, r0: np.ndarray, t: int):
    """Backtracking projected ascent from every row of r0 at once: (values, rows).

    A row stops when its full step's projection moves it less than
    _CONVERGENCE_TOL, when 60 halvings of its step gain nothing, or after
    _MAX_ASCENT_STEPS steps.  Each block of _HALVING_BLOCKS projects and
    evaluates its halvings of every pending row as one stack, and a row takes
    its first improving halving, as trying them one at a time would.
    """
    k = 2 * t + 1
    c = cap(t)
    r = _project(np.asarray(r0, dtype=np.float64))
    n = r.shape[1]
    value = _objective(w, r, k)
    live = np.arange(r.shape[0])
    for _ in range(_MAX_ASCENT_STEPS):
        rows = r[live]
        # No gain from pushing a coordinate past saturation.
        grad = np.where(rows < c, w * marginal(rows, t), 0.0)
        # The full step's projection is both the convergence test and the first candidate.
        candidate = _project(rows + grad)
        d = candidate - rows
        moving = ~(np.sqrt(np.vecdot(d, d)) < _CONVERGENCE_TOL)
        live, rows, grad = live[moving], rows[moving], grad[moving]
        trial = candidate[moving][None]
        # Rows still searching for an ascent step, as indices into live.
        pending = np.arange(live.size)
        for lo, hi in zip(_HALVING_BLOCKS, _HALVING_BLOCKS[1:]):
            if not pending.size:
                break
            if lo:
                scales = np.array([0.5**h for h in range(lo, hi)])[:, None, None]
                trial = _project((rows[pending] + scales * grad[pending]).reshape(-1, n))
                trial = trial.reshape(hi - lo, pending.size, n)
            trial_value = _objective(w, trial.reshape(-1, n), k).reshape(trial.shape[:2])
            up = trial_value > value[live[pending]]
            hit = np.flatnonzero(up.any(axis=0))
            first = up.argmax(axis=0)[hit]
            accepted = live[pending[hit]]
            r[accepted] = trial[first, hit]
            value[accepted] = trial_value[first, hit]
            pending = np.delete(pending, hit)
        # a row whose 60 halvings all failed is done
        live = np.delete(live, pending)
        if not live.size:
            break
    return value.tolist(), r


def theorem_a2_bound(p: Prior, t: int) -> BoundReport:
    """Best uncapped success probability over the simplex, by projected ascent.

    Maximizes sum_i p_i f((2t+1) arcsin sqrt(r_i))^2 over r >= 0,
    sum(r) <= 1 with f clamped at 1 — no per-item cap, so the value upper
    bounds every t-query strategy.  Seeds: the uniform point, all one- and
    two-coordinate simplex vertices/midpoints, and ASCENT_RESTARTS random
    interior points from a fixed stream; the best ascent wins, with exact
    ties broken toward the lexicographically smallest achiever.

    The residual is measured against the water-filling optimizer's ESP, which
    this bound exists to cross-check; the maximization itself never touches it.
    """
    check_int(t, "t")
    if p.n > 8 or t > 3:
        raise ResourceLimit(f"ascent bound capped at n <= 8, t <= 3; got n={p.n}, t={t}")
    w = p.weights
    n = p.n

    seeds = [np.full(n, 1.0 / n)]
    for i in range(n):
        vertex = np.zeros(n)
        vertex[i] = 1.0
        seeds.append(vertex)
        for j in range(i + 1, n):
            midpoint = np.zeros(n)
            midpoint[i] = midpoint[j] = 0.5
            seeds.append(midpoint)
    rng = np.random.Generator(np.random.PCG64(_ASCENT_SEED))
    for _ in range(ASCENT_RESTARTS):
        raw = rng.random(n)
        seeds.append(raw / float(raw.sum()) * float(rng.random()))

    best_value = -1.0
    best_r = None
    for value, r in zip(*_ascend(w, np.asarray(seeds), t)):
        if value > best_value or (
            value == best_value and tuple(r) < tuple(best_r)
        ):
            best_value, best_r = value, r

    # Looked up at call time, so a wrapper on qsearch.optimizer.optimize sees this solve.
    from .optimizer import optimize

    return BoundReport(
        bound_value=min(1.0, best_value),
        achiever=best_r,
        residual=best_value - optimize(p, t).meta["esp"],
    )


def _simplex_grid(n: int, steps: int) -> np.ndarray:
    """All length-n compositions of ``steps`` parts, as integer levels."""
    return np.asarray(
        [
            np.bincount(np.asarray(combo), minlength=n)
            for combo in itertools.combinations_with_replacement(range(n), steps)
        ]
    )


def _ceiling(w: np.ndarray) -> float:
    """Largest float any summation order can round w_1 + ... + w_n to, for n <= 3.

    Each order of three terms is (w_a + w_b) + w_c; zeros pad n < 3, where
    every order gives sum(w).  A weighted total of entries in [0, 1] with
    weights >= 0 never exceeds this: each product w_x T_x rounds to at most
    w_x, and each sum, FMA included, rounds monotonically.
    """
    a, b, c = w.tolist() + [0.0] * (3 - w.size)
    return max((a + b) + c, (a + c) + b, (b + c) + a)


def _best_unrestricted(w: np.ndarray, levels: np.ndarray, arcs: np.ndarray, m: int):
    """Best sequence of m grid points, as (value, flat index into the (g,)*m product).

    f^2 is evaluated once per tuple of levels, on a (steps + 1,)*m table of
    the steps' arcs added in order; each chunk (one per first step, or all
    grid points at m = 1) gathers its coordinates from it.  Totals are one
    matrix-vector product per chunk and the first of equal totals wins, so
    among totals tied in exact arithmetic the achiever follows the product's
    rounding.  A per-row dot product would pick another achiever; the product
    stays so that the reported bits stay.

    The chunks stop once the best total reaches ``_ceiling(w)``: no later
    total can exceed it, and only a strictly greater total replaces the
    winner, so the result is the full enumeration's, bit for bit.
    """
    size = int(levels.max()) + 1
    level_arc = np.zeros(size)
    level_arc[levels] = arcs
    table = level_arc
    for _ in range(m - 1):
        table = table[..., None] + level_arc
    table = _clamped(table)
    if m == 1:
        chunks = [(table, levels)]
    else:
        # flat offset of (coordinate, last m - 1 levels) within a first step's block
        rest = np.arange(levels.shape[1])
        for _ in range(m - 1):
            rest = rest[..., None, :] * size + levels
        table = table.reshape(size, -1)
        chunks = ((table[first], rest) for first in levels)
    ceiling = _ceiling(w)
    best_value, best_flat = -1.0, 0
    for a, (block, index) in enumerate(chunks):
        totals = np.take(block, index) @ w
        flat = int(np.argmax(totals))
        if float(totals.flat[flat]) > best_value:
            best_value, best_flat = float(totals.flat[flat]), a * totals.size + flat
        if best_value >= ceiling:
            break
    return best_value, best_flat


def _alloc_objective(w: np.ndarray, allocs: np.ndarray) -> np.ndarray:
    """Value of each allocation in a (K, m, n) stack: one simplex allocation per query step."""
    angles = np.arcsin(np.sqrt(np.clip(allocs, 0.0, 1.0))).sum(axis=1)
    return np.vecdot(_clamped(angles), w)


def _refine_transfers(w: np.ndarray, alloc: np.ndarray, step0: float, tied: bool):
    """Coordinate ascent by pairwise mass transfers, shrinking the step.

    A sweep tries every transfer (row, i -> j) in order and takes each one
    that improves the value.  The transfers still ahead in a sweep are built
    from the current allocation and evaluated as one stack; the first
    improving one is taken and the scan resumes after it, from the new
    allocation, so the order of a one-at-a-time scan is kept.

    ``tied`` refines within the equal-allocation family: the same transfer is
    applied to every row so the rows stay identical, and its amount is read
    from row 0.
    """
    alloc = alloc.copy()
    m, n = alloc.shape
    # every transfer (row, i -> j) in scan order, and the rows each one moves
    row, i, j = np.array(
        [(r, a, b) for r in range(1 if tied else m) for a in range(n) for b in range(n) if a != b],
        dtype=np.intp,
    ).reshape(-1, 3).T
    moves = np.broadcast_to(np.arange(m), (row.size, m)) if tied else row[:, None]
    value = float(_alloc_objective(w, alloc[None])[0])
    # every candidate is at most the ceiling, so none can beat value + 1e-15
    if value + 1e-15 >= _ceiling(w):
        return value, alloc
    delta = step0
    sweeps = 0
    while delta > 1e-10 and sweeps < 500:
        sweeps += 1
        improved = False
        start = 0
        while start < row.size:
            amount = np.minimum(delta, alloc[row[start:], i[start:]])
            ahead = np.flatnonzero(amount > 0.0)
            if not ahead.size:
                break
            amount = amount[ahead, None]
            ahead += start
            cand = np.broadcast_to(alloc, (ahead.size, m, n)).copy()
            stack = np.arange(ahead.size)[:, None]
            cand[stack, moves[ahead], i[ahead, None]] -= amount
            cand[stack, moves[ahead], j[ahead, None]] += amount
            values = _alloc_objective(w, cand)
            up = np.flatnonzero(values > value + 1e-15)
            if not up.size:
                break
            alloc, value = cand[up[0]], float(values[up[0]])
            improved = True
            start = ahead[up[0]] + 1
        if not improved:
            delta *= 0.5
    return value, alloc


def lemma_a1_search(p: Prior, m: int, grid_step: float = 0.05) -> BoundReport:
    """Grid check that per-step allocations gain nothing over a fixed one.

    Enumerates the combinations of m per-step simplex allocations on a grid
    of the requested resolution, evaluates
    sum_x p_x f(sum_t arcsin sqrt(u_{t,x}))^2, and locally refines both the
    unrestricted winner and the equal-allocation winner by pairwise-transfer
    ascent.  The refined equal solution also seeds the unrestricted
    refinement, so the reported gap (residual field) is never negative.

    The enumeration ends, and a refinement returns its start, once a total
    reaches ``_ceiling(w)``, the largest value any summation order gives
    the weights; the result is the exhaustive search's, bit for bit.
    """
    check_int(m, "m", 1)
    if not 0.0 < grid_step <= 1.0:
        raise InvalidInput(f"grid_step must lie in (0, 1], got {grid_step!r}")
    if p.n > 3 or m > 3:
        raise ResourceLimit(f"grid search capped at n <= 3, m <= 3; got n={p.n}, m={m}")
    if grid_step < 0.02:
        raise ResourceLimit(f"grid_step below the 0.02 floor: {grid_step!r}")
    w = p.weights
    steps = max(1, round(1.0 / grid_step))
    levels = _simplex_grid(p.n, steps)
    grid = levels / float(steps)
    arcs = np.arcsin(np.sqrt(grid))  # (g, n)
    g = grid.shape[0]
    best_value, best_flat = _best_unrestricted(w, levels, arcs, m)

    # equal-allocation restriction: the diagonal of the same product
    equal_totals = _clamped(m * arcs) @ w
    equal_best = int(np.argmax(equal_totals))

    equal_alloc = np.tile(grid[equal_best], (m, 1))
    eq_value, eq_alloc = _refine_transfers(w, equal_alloc, grid_step, tied=True)

    raw_alloc = grid[list(np.unravel_index(best_flat, (g,) * m))]
    un_value, un_alloc = _refine_transfers(w, raw_alloc, grid_step, tied=False)
    # the refined equal point is a valid unrestricted candidate as well
    alt_value, alt_alloc = _refine_transfers(w, eq_alloc, grid_step, tied=False)
    if alt_value > un_value:
        un_value, un_alloc = alt_value, alt_alloc

    return BoundReport(
        bound_value=min(1.0, un_value),
        achiever=un_alloc,
        residual=un_value - eq_value,
    )
