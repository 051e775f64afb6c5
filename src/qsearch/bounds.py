"""Independent certification of the optimal plans.

Three checks, each ignorant of how the water-filling solver works:

* an upper bound on any t-query strategy, by weak duality (Boyd and
  Vandenberghe, Convex Optimization, section 5.2) over the uncapped simplex
  with the success curve clamped at 1.  It is taken at the solver's own plan
  q, clipped into [0, cap], and at the multiplier that makes it smallest, one
  O(n) pass; agreement with the plan's ESP certifies both the plan and that
  the per-item cap does not reduce the attainable maximum.  The bound holds
  wherever q and the multiplier come from: a wrong solver only makes it
  looser;
* Lemma A1's exchange map, O(m n) at every n and m: m per-step allocations
  to one allocation used m times, of the same value and no more budget, and
  at m = 2t+1 under cap(t), so a plan of the solver's problem;
* a grid search over per-step amplitude allocations, checking that letting
  every query use a different allocation never beats reusing one fixed
  allocation by more than grid slack.  One direct enumeration serves m
  allocations and one allocation used m times: each sequence's arcs are
  added step by step and f^2 taken of the totals.  It stops once a total
  reaches ``_ceiling(w)``, the largest float any summation order rounds
  sum(w) to.  Every f^2 lies in [0, 1] and every weight is >= 0, so each
  product rounds to at most its weight and each sum rounds monotonically:
  no total can exceed the ceiling, so nothing past it wins.  The grid is
  capped at n <= 3 / m <= 3 / step >= 0.02.
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


def exchange_map(u: np.ndarray):
    """Per-step allocations u, (m, n), to the totals Theta_x = sum_t arcsin sqrt(u_{t,x}) and q.

    q_x = sin^2(min(Theta_x, pi/2) / m) used at all m steps reaches the same
    clamped angle, m arcsin sqrt(q_x) = min(Theta_x, pi/2): at m = 2t+1,
    sum_x p_x f(Theta_x)^2 = ESP(p, (q, t)) and q <= cap(t).  With rows on the
    simplex sum(q) <= 1: sin^2 a + sin^2 b = 1 - cos(a+b) cos(a-b) >=
    2 sin^2((a+b)/2) for a + b <= pi/2, so equal angles never spend more, and
    lowering a total past pi/2 to pi/2 spends less.
    """
    theta = np.arcsin(np.sqrt(u)).sum(axis=0)
    return theta, np.sin(np.minimum(theta, _HALF_PI) / u.shape[0]) ** 2


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


def _best_sequence(w: np.ndarray, arcs: np.ndarray, m: int):
    """Best sequence of m grid points, as (value, flat index into the (g,)*m product).

    One chunk per first step (or the whole grid at m = 1): the steps' arcs
    are added in order, f^2 taken by ``_clamped`` and the totals summed by
    one matrix-vector product with w.  The first strictly greater total
    wins, so among totals tied in exact arithmetic the achiever follows the
    product's rounding.  Passed r * arcs at m = 1 for one row used r times,
    the one chunk is ``_clamped(r * arcs) @ w``, the equal family's product.

    The chunks stop once the best total reaches ``_ceiling(w)``: no later
    total can exceed it, and only a strictly greater total replaces the
    winner, so the result is the full enumeration's, bit for bit.
    """
    ceiling = _ceiling(w)
    best_value, best_flat = -1.0, 0
    for a, sums in enumerate(arcs if m > 1 else arcs[None]):
        for _ in range(m - 1):
            sums = sums[..., None, :] + arcs
        totals = _clamped(sums) @ w
        flat = int(np.argmax(totals))
        if float(totals.flat[flat]) > best_value:
            best_value, best_flat = float(totals.flat[flat]), a * totals.size + flat
        if best_value >= ceiling:
            break
    return best_value, best_flat


def lemma_a1_search(p: Prior, m: int, grid_step: float = 0.05) -> BoundReport:
    """Grid check that per-step allocations gain nothing over a fixed one.

    Compares two families of simplex allocations on a grid of the requested
    resolution by sum_x p_x f(sum_t arcsin sqrt(u_{t,x}))^2: m allocations,
    one per query step, and one allocation used m times.  Both go through
    one enumeration, ``_best_sequence``, run on m rows used once and on one
    row used m times.  The first family holds every row of the second used
    at each step, so the reported gap (residual field) is >= 0 up to the
    rounding of the product that sums each family's totals.

    The enumeration ends once a total reaches ``_ceiling(w)``, the largest
    value any summation order gives the weights; the result is the
    exhaustive search's, bit for bit.  A prior whose totals never reach it
    pays for all g^m sequences of the g grid points.  Measured on 2 cores
    (NumPy 2.4, OpenBLAS 0.3.31): one such n = 3 prior takes 0.9 s at m = 3
    and step 0.05, and 176 s at the caps, m = 3 and step 0.02; 400 random
    n = 3 priors at m = 2, 3 and step 0.05 average 44 ms a call.  A table
    of f^2 per tuple of grid levels made these 0.1 s, 33 s and 6 ms; no
    command runs the grid, so the table was dropped for its code.
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
    grid = _simplex_grid(p.n, steps) / float(steps)
    arcs = np.arcsin(np.sqrt(grid))  # (g, n)
    eq_value = _best_sequence(w, m * arcs, 1)[0]
    un_value, flat = _best_sequence(w, arcs, m)
    achiever = grid[list(np.unravel_index(flat, (grid.shape[0],) * m))]
    return BoundReport(
        bound_value=min(1.0, un_value),
        achiever=achiever,
        residual=un_value - eq_value,
    )
