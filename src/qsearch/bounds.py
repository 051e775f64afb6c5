"""Independent brute-force certification of the optimal plans.

Two oracles, both deliberately ignorant of the water-filling solver:

* an upper bound on any t-query strategy, maximized by projected gradient
  ascent over the uncapped simplex with the success curve clamped at 1 —
  agreement with the optimizer's ESP certifies that the per-item cap does
  not reduce the attainable maximum;
* an exhaustive grid search over per-step amplitude allocations, checking
  that letting every query use a different allocation never beats reusing
  one fixed allocation by more than grid slack.

Desk-scale caps keep both exact-ish searches cheap: n <= 8 / t <= 3 for the
ascent, n <= 3 / m <= 3 / step >= 0.02 for the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ResourceLimit, check_int
from .esp import cap, esp, marginal
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


def _objective(w: np.ndarray, r: np.ndarray, k: int) -> float:
    """sum_i p_i f((2t+1) arcsin sqrt(r_i))^2 with the clamp applied."""
    angles = k * np.arcsin(np.sqrt(np.clip(r, 0.0, 1.0)))
    return float(w @ _clamped(angles))


def _project(r: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {r >= 0, sum r <= 1}."""
    r = np.minimum(r, 1.0)
    clipped = np.maximum(r, 0.0)
    if float(clipped.sum()) <= 1.0:
        return clipped
    # sort-based simplex projection (sum == 1 once the budget binds)
    u = np.sort(r)[::-1]
    css = np.cumsum(u) - 1.0
    ranks = np.arange(1, r.size + 1)
    rho = np.nonzero(u - css / ranks > 0.0)[0][-1]
    shift = css[rho] / float(rho + 1)
    return np.maximum(r - shift, 0.0)


def _ascend(w: np.ndarray, r0: np.ndarray, t: int):
    k = 2 * t + 1
    c = cap(t)
    r = _project(np.asarray(r0, dtype=np.float64))
    value = _objective(w, r, k)
    for _ in range(_MAX_ASCENT_STEPS):
        # No gain from pushing a coordinate past saturation.
        grad = np.where(r < c, w * marginal(r, t), 0.0)
        # The full step's projection is both the convergence test and the first candidate.
        candidate = _project(r + grad)
        if float(np.linalg.norm(candidate - r)) < _CONVERGENCE_TOL:
            break
        for halvings in range(60):
            if halvings:
                candidate = _project(r + 0.5**halvings * grad)
            cand_value = _objective(w, candidate, k)
            if cand_value > value:
                r, value = candidate, cand_value
                break
        else:
            break
    return value, r


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
    for seed in seeds:
        value, r = _ascend(w, seed, t)
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
        residual=best_value - esp(p, optimize(p, t)),
    )


def _simplex_grid(n: int, steps: int) -> np.ndarray:
    """All length-n compositions of ``steps`` parts, scaled to sum to 1."""
    points = []
    for combo in itertools.combinations_with_replacement(range(n), steps):
        counts = np.bincount(np.asarray(combo), minlength=n)
        points.append(counts / float(steps))
    return np.asarray(points)


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
    n = p.n
    steps = max(1, round(1.0 / grid_step))
    grid = _simplex_grid(n, steps)
    arcs = np.arcsin(np.sqrt(grid))  # (g, n)
    g = grid.shape[0]

    # Unrestricted enumeration over the m-fold product, one chunk per first
    # step so the broadcast temporaries stay small.  Steps are added in order
    # and the first of equal totals wins.  At m = 1 the one chunk holds every
    # grid point: a row-by-row dot product rounds differently from the
    # matrix-vector product, and near-ties would pick another achiever.
    best_value, best_flat = -1.0, 0
    for a, sums in enumerate(arcs if m > 1 else arcs[None]):
        for _ in range(m - 1):
            sums = sums[..., None, :] + arcs
        totals = _clamped(sums) @ w
        flat = int(np.argmax(totals))
        if float(totals.flat[flat]) > best_value:
            best_value, best_flat = float(totals.flat[flat]), a * totals.size + flat

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
