"""Independent certification of the optimal plans.

Two checks, both ignorant of how the water-filling solver works:

* an upper bound on any t-query strategy, by weak duality (Boyd and
  Vandenberghe, Convex Optimization, section 5.2) over the uncapped simplex
  with the success curve clamped at 1.  It is taken at the solver's own plan
  q, clipped into [0, cap], and at the multiplier that makes it smallest, one
  O(n) pass; agreement with the plan's ESP certifies both the plan and that
  the per-item cap does not reduce the attainable maximum.  The bound holds
  wherever q and the multiplier come from: a wrong solver only makes it
  looser;
* a grid search over per-step amplitude allocations, checking that letting
  every query use a different allocation never beats reusing one fixed
  allocation by more than grid slack.  One search serves m allocations and
  one allocation used m times.  f^2 is evaluated once per tuple of per-step
  grid levels, and every allocation sequence reads its coordinates from
  that table.  The winners are refined by pairwise mass transfers, each
  sweep's candidate transfers evaluated as one stack.  Both stop once
  a total reaches ``_ceiling(w)``, the largest float any summation order
  rounds sum(w) to.  Every f^2 lies in [0, 1] and every weight is >= 0, so
  each product rounds to at most its weight and each sum rounds
  monotonically: no total can exceed the ceiling, so nothing past it wins.

The grid's refinement sums its objectives with ``np.vecdot``, which calls
BLAS ddot once per row and so gives each row the bits of ``w @ row``; a
matrix-vector product sums some rows in another order, which would make its
values depend on the batch they were evaluated in.

Desk-scale caps keep the grid cheap: n <= 3 / m <= 3 / step >= 0.02.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ResourceLimit, check_int
from .esp import AmplitudePlan, cap, esp, marginal
from .prior import Prior

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class BoundReport:
    """Certified value, the assignment attaining it, and a residual.

    ``residual`` is the gap to the reference being checked: bound minus the
    ESP of the optimizer's plan for the duality bound, best-unrestricted
    minus best-equal for the grid search.
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


def _duality_gap(w: np.ndarray, q: np.ndarray, t: int) -> float:
    """Smallest weak-duality bound on the uncapped optimum, minus the ESP of q.

    q must lie in [0, cap(t)].  With a_i = w_i g'(q_i) and d_i = a_i - lam,
    for every lam >= 0

        D(lam) = ESP(q) + lam (1 - sum(q)) + sum_i max(-d_i q_i, d_i (cap - q_i))

    bounds sum_i w_i f(r_i)^2 over r >= 0, sum(r) <= 1, f clamped at 1: each
    w_i g(r) - lam r is concave on [0, cap] and below its tangent at q_i, and
    past the cap f^2 stays 1 while -lam r falls.  D is convex and piecewise
    linear in lam with slope 1 - cap #{a_i > lam}, so it is smallest at the
    (floor(1/cap) + 1)-th largest a_i, or at 0 when there are no more a_i
    than floor(1/cap).
    """
    c = cap(t)
    a = w * marginal(q, t)
    j = a.size - math.floor(1.0 / c)
    lam = max(float(np.partition(a, j - 1)[j - 1]), 0.0) if j > 0 else 0.0
    d = a - lam
    return lam * (1.0 - float(q.sum())) + float(np.maximum(-d * q, d * (c - q)).sum())


def theorem_a2_bound(p: Prior, t: int) -> BoundReport:
    """Upper bound on the uncapped success probability, by weak duality at the solver's plan.

    Bounds sum_i p_i f((2t+1) arcsin sqrt(r_i))^2 over r >= 0, sum(r) <= 1
    with f clamped at 1 -- no per-item cap, so the value upper bounds every
    t-query strategy.  The bound is taken at the water-filling optimizer's
    plan clipped into [0, cap(t)], where ``_duality_gap`` holds whatever the
    solver returned.  The solver's plan is the achiever, and the residual is
    the bound minus that plan's own ESP: >= 0 up to rounding, and as large
    as what a wrong plan loses, a plan past the cap included.
    """
    check_int(t, "t")
    # Looked up at call time, so a wrapper on qsearch.optimizer.optimize sees this solve.
    from .optimizer import optimize

    plan = optimize(p, t)
    q = np.clip(plan.q, 0.0, cap(t))
    bound = esp(p, AmplitudePlan(q=q, t=t)) + _duality_gap(p.weights, q, t)
    return BoundReport(bound_value=min(1.0, bound), achiever=plan.q, residual=bound - esp(p, plan))


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


def _best_sequence(w: np.ndarray, levels: np.ndarray, arcs: np.ndarray, m: int):
    """Best sequence of m grid points, as (value, flat index into the (g,)*m product).

    f^2 is evaluated once per tuple of levels, on a (steps + 1,)*m table of
    the steps' arcs added in order; each chunk (one per first step, or all
    grid points at m = 1) gathers its coordinates from it.  The one chunk at
    m = 1 is also the equal family's product: passed r * arcs for one row
    used r times, its gather holds the bits of ``_clamped(r * arcs)``, as
    each level has one arc.  Totals are one matrix-vector product per chunk
    and the first of equal totals wins, so among totals tied in exact
    arithmetic the achiever follows the product's rounding.  A per-row dot
    product would pick another achiever; the product stays so that the
    reported bits stay.

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


def _alloc_objective(w: np.ndarray, allocs: np.ndarray, reps: int) -> np.ndarray:
    """Value of each allocation in a (K, rows, n) stack, every row used for ``reps`` query steps."""
    angles = reps * np.arcsin(np.sqrt(np.clip(allocs, 0.0, 1.0))).sum(axis=1)
    return np.vecdot(_clamped(angles), w)


def _refine_transfers(w: np.ndarray, alloc: np.ndarray, step0: float, reps: int):
    """Coordinate ascent by pairwise mass transfers, shrinking the step.

    A sweep tries every transfer (row, i -> j) in order and takes each one
    that improves the value, every row used for ``reps`` steps.  The
    transfers still ahead in a sweep are built from the current allocation
    and evaluated as one stack; the first improving one is taken and the
    scan resumes after it, from the new allocation, so the order of a
    one-at-a-time scan is kept.

    One allocation used m times is one row with reps = m, which has the
    bits of m identical rows moved together: their angles added in order
    are a + a, exact, at m = 2 and (a + a) + a, the one rounding of 3a, at
    m = 3, as is 3 * a.  The grid search takes m <= 3.
    """
    alloc = alloc.copy()
    rows, n = alloc.shape
    # every transfer (row, i -> j) in scan order
    row, i, j = np.array(
        [(r, a, b) for r in range(rows) for a in range(n) for b in range(n) if a != b],
        dtype=np.intp,
    ).reshape(-1, 3).T
    value = float(_alloc_objective(w, alloc[None], reps)[0])
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
            amount = amount[ahead]
            ahead += start
            cand = np.broadcast_to(alloc, (ahead.size, rows, n)).copy()
            stack = np.arange(ahead.size)
            cand[stack, row[ahead], i[ahead]] -= amount
            cand[stack, row[ahead], j[ahead]] += amount
            values = _alloc_objective(w, cand, reps)
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

    Compares two families of simplex allocations on a grid of the requested
    resolution by sum_x p_x f(sum_t arcsin sqrt(u_{t,x}))^2: m allocations,
    one per query step, and one allocation used m times.  Both go through
    one search, enumeration then pairwise-transfer ascent, run on m rows
    used once and on one row used m times.  The refined equal solution, its
    row at every step, also seeds a refinement of the m allocations, so the
    reported gap (residual field) is never negative.

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

    def search(rows, reps):
        flat = _best_sequence(w, levels, reps * arcs, rows)[1]
        start = grid[list(np.unravel_index(flat, (grid.shape[0],) * rows))]
        return _refine_transfers(w, start, grid_step, reps)

    eq_value, eq_alloc = search(1, m)
    un_value, un_alloc = search(m, 1)
    # the refined equal point, its row at every step, is an unrestricted candidate as well
    alt_value, alt_alloc = _refine_transfers(w, np.repeat(eq_alloc, m, axis=0), grid_step, 1)
    if alt_value > un_value:
        un_value, un_alloc = alt_value, alt_alloc

    return BoundReport(
        bound_value=min(1.0, un_value),
        achiever=un_alloc,
        residual=un_value - eq_value,
    )
