"""Independent brute-force certification of the optimal plans.

Two oracles, both deliberately ignorant of the water-filling solver:

* an upper bound on any t-query strategy, maximized by projected gradient
  ascent over the uncapped simplex with the success curve clamped at 1 —
  agreement with the optimizer's ESP certifies that the per-item cap does
  not reduce the attainable maximum.  All seeds ascend together as one
  (seeds x n) array, each row with its own line search and stopping rule;
* an exhaustive grid search over per-step amplitude allocations, checking
  that letting every query use a different allocation never beats reusing
  one fixed allocation by more than grid slack.  f^2 is evaluated once per
  tuple of per-step grid levels, and every allocation sequence reads its
  coordinates from that table.

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

__all__ = ["BoundReport", "theorem_a2_bound", "lemma_a1_search"]

_HALF_PI = 0.5 * math.pi

#: Restart count for the projected ascent; enough to be reliably global at n <= 8.
ASCENT_RESTARTS = 32

_ASCENT_SEED = 0x0B5E55ED
_CONVERGENCE_TOL = 1e-10
_MAX_ASCENT_STEPS = 5000


@dataclass(frozen=True)
class BoundReport:
    """Certified value, the assignment attaining it, and a residual.

    ``residual`` is the gap to the reference being checked: bound minus the
    optimizer's ESP for the ascent bound, best-unrestricted minus best-equal
    for the grid search.
    """

    bound_value: float
    achiever: np.ndarray
    method: str
    residual: float

    def __post_init__(self):
        if self.method not in ("projected-ascent", "grid"):
            raise InvalidInput(f"unknown bound method {self.method!r}")
        if not -1e-9 <= self.bound_value <= 1.0 + 1e-9:
            raise InvalidInput(f"bound {self.bound_value!r} outside [0, 1]")


def _clamped(angles: np.ndarray) -> np.ndarray:
    """f(angle)^2 elementwise: sin(angle)^2 below pi/2, exactly 1 from there on."""
    vals = np.sin(np.minimum(angles, _HALF_PI)) ** 2
    return np.where(angles >= _HALF_PI, 1.0, vals)


def _objective(w: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    """sum_i p_i f((2t+1) arcsin sqrt(r_i))^2 with the clamp applied, per row of r.

    One ``w @ row`` dot product per row: a matrix-vector product sums some
    rows in another order, so the bound's bits would depend on the batch.
    """
    vals = _clamped(k * np.arcsin(np.sqrt(np.clip(r, 0.0, 1.0))))
    return np.array([w @ row for row in vals])


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
    _MAX_ASCENT_STEPS steps.
    """
    k = 2 * t + 1
    c = cap(t)
    r = _project(np.asarray(r0, dtype=np.float64))
    value = _objective(w, r, k)
    live = np.arange(r.shape[0])
    for _ in range(_MAX_ASCENT_STEPS):
        rows = r[live]
        # No gain from pushing a coordinate past saturation.
        grad = np.where(rows < c, w * marginal(rows, t), 0.0)
        # The full step's projection is both the convergence test and the first candidate.
        candidate = _project(rows + grad)
        moving = ~np.array(
            [float(np.linalg.norm(d)) < _CONVERGENCE_TOL for d in candidate - rows], dtype=bool
        )
        live, rows, grad, candidate = live[moving], rows[moving], grad[moving], candidate[moving]
        # Rows still searching for an ascent step, as indices into live.
        pending = np.arange(live.size)
        for halvings in range(60):
            if not pending.size:
                break
            if halvings:
                candidate[pending] = _project(rows[pending] + 0.5**halvings * grad[pending])
            cand_value = _objective(w, candidate[pending], k)
            up = cand_value > value[live[pending]]
            accepted = pending[up]
            r[live[accepted]] = candidate[accepted]
            value[live[accepted]] = cand_value[up]
            pending = pending[~up]
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
        method="projected-ascent",
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


def _best_unrestricted(w: np.ndarray, levels: np.ndarray, arcs: np.ndarray, m: int):
    """Best sequence of m grid points, as (value, flat index into the (g,)*m product).

    f^2 is evaluated once per tuple of levels, on a (steps + 1,)*m table of
    the steps' arcs added in order; each chunk (one per first step, or all
    grid points at m = 1) gathers its coordinates from it.  Totals are one
    matrix-vector product per chunk and the first of equal totals wins, so
    among totals tied in exact arithmetic the achiever follows the product's
    rounding.  A per-row dot product would pick another achiever; the product
    stays so that the reported bits stay.
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
    best_value, best_flat = -1.0, 0
    for a, (block, index) in enumerate(chunks):
        totals = np.take(block, index) @ w
        flat = int(np.argmax(totals))
        if float(totals.flat[flat]) > best_value:
            best_value, best_flat = float(totals.flat[flat]), a * totals.size + flat
    return best_value, best_flat


def _alloc_objective(w: np.ndarray, alloc: np.ndarray) -> float:
    """alloc has shape (m, n): one simplex allocation per query step."""
    angles = np.arcsin(np.sqrt(np.clip(alloc, 0.0, 1.0))).sum(axis=0)
    return float(w @ _clamped(angles))


def _refine_transfers(w: np.ndarray, alloc: np.ndarray, step0: float, tied: bool):
    """Coordinate ascent by pairwise mass transfers, shrinking the step.

    ``tied`` refines within the equal-allocation family: the same transfer is
    applied to every row so the rows stay identical, and its amount is read
    from row 0.
    """
    alloc = alloc.copy()
    m, n = alloc.shape
    rows = [slice(None)] if tied else [slice(r, r + 1) for r in range(m)]
    value = _alloc_objective(w, alloc)
    delta = step0
    sweeps = 0
    while delta > 1e-10 and sweeps < 500:
        sweeps += 1
        improved = False
        for row in rows:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    amount = min(delta, float(alloc[row, i][0]))
                    if amount <= 0.0:
                        continue
                    moved = alloc.copy()
                    moved[row, i] -= amount
                    moved[row, j] += amount
                    cand = _alloc_objective(w, moved)
                    if cand > value + 1e-15:
                        alloc, value = moved, cand
                        improved = True
        if not improved:
            delta *= 0.5
    return value, alloc


def lemma_a1_search(p: Prior, m: int, grid_step: float = 0.05) -> BoundReport:
    """Exhaustive check that per-step allocations gain nothing over a fixed one.

    Enumerates every combination of m per-step simplex allocations on a grid
    of the requested resolution, evaluates
    sum_x p_x f(sum_t arcsin sqrt(u_{t,x}))^2, and locally refines both the
    unrestricted winner and the equal-allocation winner by pairwise-transfer
    ascent.  The refined equal solution also seeds the unrestricted
    refinement, so the reported gap (residual field) is never negative.
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
        method="grid",
        residual=un_value - eq_value,
    )
