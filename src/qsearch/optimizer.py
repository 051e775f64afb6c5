"""Optimal amplitude plans by concave water-filling.

For a fixed budget t the objective sum_i p_i g(q_i) with
g(q) = sin^2((2t+1) arcsin sqrt(q)) is separable and strictly concave on the
box 0 <= q_i <= cap(t), the point at which one item's success probability
saturates at 1 (g, its slope g', its face values and cap are defined in
:mod:`qsearch.esp`).  The optimum therefore has water-filling structure:
every coordinate strictly inside the box equalizes its marginal gain
p_i g'(q_i) at a common multiplier, coordinates at 0 have marginal below it,
coordinates at the cap above it.

One skeleton, :func:`_solve`, pins zero weights, saturates every item when
the caps fit the budget, hands a binding budget to a fill, reports a fill
that missed its tolerance and certifies the result.  Two fills plug into it.
:func:`waterfill` runs a predictor and then a finisher.  The predictor is
Newton on the KKT system in (q, lam) together, restricted to the active set
(the primal-dual active-set method: Hintermueller, Ito and Kunisch, SIAM J.
Optim. 13(3), 2002): one g'/g'' evaluation per step, a diagonal system with
one border row, a fixed step cap.  The finisher is safeguarded Newton twice
over, on the multiplier outside and per coordinate inside for each
multiplier; it takes the predictor's (q, lam) as its warm start, or starts
afresh when the predictor gives up.  Each finisher loop keeps the monotone
bracket that a bisection would, and bisects only when a Newton step leaves
it (the standard treatment of water-filling: Palomar and Fonollosa, IEEE
Trans. Signal Processing 53(2), 2005; Boyd and Vandenberghe, Convex
Optimization, 5.5.3), so the finisher alone decides convergence.  The t = 1
closed form bisects instead, as an independent cross-check.  Both fills take
(weights, t), start from one bracket, :func:`_bracket`, fall back on one
:func:`_midpoint`, report the same multiplier lam >= 0 and stop by one rule:
in the window 1 - _TOL <= sum(q) <= 1, or at lam_hi once no float lies
inside the bracket.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInput, NumericalFailure, check_int, check_json_numbers
from .esp import AmplitudePlan, cap, esp, marginal, slope, slope_and_curvature
from .prior import Prior

__all__ = [
    "cap",
    "optimize",
    "optimize_t1_closed_form",
    "kkt_residual",
    "plan_to_json",
    "save_plan",
    "load_plan",
    "kernel_backend",
]

# Coordinates within these distances of the box faces are classified as
# bound-active when checking the KKT conditions.
_FACE_TOL = 1e-11

# Both multiplier searches: the accepted window 1 - _TOL <= sum(q) <= 1 and
# the iteration cap.
_TOL = 1e-14
_MAX_ITER = 200

# The joint Newton predictor's step cap, and the largest coordinate step,
# relative to cap(t), at which it hands its plan to the finisher.
_PREDICT_STEPS = 15
_PREDICT_TOL = 1e-7


def kernel_backend() -> str:
    """Name of the water-fill implementation; there is only the NumPy one."""
    return "python"


def _newton_coords(p, lam, k, cap, curv0, q, curv):
    """Set each q_i to the root of p_i g'(q_i) = lam in [0, cap], in place.

    g' falls strictly from g'(0+) = k^2 to g'(cap) = 0, so items with
    p_i k^2 <= lam sit at 0 and every other item has one root inside (0, cap).
    Each root is found by Newton in q inside its own bracket [lo, hi], which
    the sign of p_i g'(q_i) - lam narrows at every step; a step that leaves the
    bracket is replaced by the bracket's midpoint.  A coordinate stops when
    the raw Newton step or its bracket is at most cap * 2**-52.  It then takes
    that last step only if the step stays inside the bracket: below that
    resolution g' is noise, and a bisection would only move it off the root.
    Only coordinates that have not stopped are iterated.

    On entry q holds the warm start, the previous multiplier's coordinates;
    an item coming off 0 starts at the Newton step from 0, where g' = k^2 and
    g'' = curv0.  On return curv holds p_i g''(q_i) where q_i > 0 and -inf
    where q_i = 0, so that sum(1 / curv) is dS/dlam for S = sum(q).
    """
    res = cap * 2.0**-52
    active = p * (k * k) > lam
    q[~active] = 0.0
    curv[~active] = -np.inf
    idx = np.flatnonzero(active)
    w = p[idx]
    x = q[idx]
    fresh = x == 0.0
    x[fresh] = np.maximum((lam / w[fresh] - k * k) / curv0, res)
    lo = np.zeros(idx.size)
    hi = np.full(idx.size, cap)
    while idx.size:
        g1, g2 = slope_and_curvature(x, k)
        f = w * g1 - lam
        c = w * g2
        rising = f > 0.0
        np.copyto(lo, x, where=rising)
        np.copyto(hi, x, where=~rising)
        step = f / c
        done = (np.abs(step) <= res) | (hi - lo <= res)
        x_new = x - step
        outside = ~((x_new > lo) & (x_new < hi))
        if done.any():
            q[idx[done]] = np.where(outside[done], x[done], x_new[done])
            curv[idx[done]] = c[done]
            keep = ~done
            idx, w, x_new, lo, hi = idx[keep], w[keep], x_new[keep], lo[keep], hi[keep]
            outside = outside[keep]
        x = x_new
        x[outside] = 0.5 * (lo[outside] + hi[outside])


def _first_level(p, k, curv0):
    """A first multiplier from g' linearised at 0, g'(q) ~ k^2 + curv0 q.

    The line never reaches the cap.  With the m largest weights p_(1..m)
    active it gives sum(q) = 1 at lam_m = (m k^2 + curv0) / sum_{i<=m} 1/p_(i),
    and the water level is the last lam_m > 0 that keeps its m-th item
    active (lam_m < p_(m) k^2).  Returns inf when no m qualifies.
    """
    desc = -np.sort(-p)
    # Weights near 1e-308 overflow the sum of 1/p; the level there is 0 and never fits.
    with np.errstate(over="ignore"):
        levels = (np.arange(1, p.size + 1) * (k * k) + curv0) / np.cumsum(1.0 / desc)
    fits = np.flatnonzero((levels > 0.0) & (levels < desc * (k * k)))
    return float(levels[fits[-1]]) if fits.size else math.inf


def _bracket(w, t):
    """The multiplier bracket (lam_lo, lam_hi) that both fills start from.

    At lam_hi = k^2 max(w) every item sits at 0, so S(lam_hi) = 0.  Every
    q_i(lam) >= q0 = (1/n + cap) / 2 once lam <= min(w) g'(q0), and n q0 > 1
    when the budget binds, so S(lam_lo) > 1 (lam_lo is floored at the
    smallest float to stay positive).
    """
    k = 2 * t + 1
    q0 = 0.5 * (1.0 / w.size + cap(t))
    return max(float(w.min()) * float(slope(q0, k)), math.ulp(0.0)), float(w.max()) * k * k


def _midpoint(lam_lo, lam_hi):
    """A multiplier strictly inside a bracket that holds at least one float.

    Geometric while lam_hi > 2 lam_lo, so a bracket spanning decades shrinks
    by decades; then arithmetic, as a geometric mean can round onto an end.
    """
    if lam_hi > 2.0 * lam_lo:
        return math.sqrt(lam_lo) * math.sqrt(lam_hi)
    return 0.5 * (lam_lo + lam_hi)


def _predict(p, lam, k, cap, lam_lo, lam_hi, q, steps):
    """Joint Newton on p_i g'(q_i) = lam and sum(q) = 1 - _TOL/2, q set in place.

    Each step linearises the system at (q, lam) on the active set p_i k^2 > lam
    (the other items sit at 0).  With f_i = p_i g'(q_i) - lam and
    c_i = p_i g''(q_i) < 0 the system is diagonal plus one border row:

        dlam = (target - sum(q) + sum(f_i / c_i)) / sum(1 / c_i),
        dq_i = (dlam - f_i) / c_i,

    with q clipped to [0, cap]; one g'/g'' evaluation per step.  A multiplier
    that leaves the bracket goes instead to :func:`_midpoint` of the current
    multiplier and the end it crossed.  The coordinates start, and restart
    after such a jump, where the chord of g' from (0, k^2) to (cap, 0) meets
    lam / p_i: the chord is exact on both faces and holds across the decades
    a jump can span, where a tangent taken at the last multiplier does not.
    Returns (lam, steps taken) once a Newton step moves no coordinate by more
    than _PREDICT_TOL cap, or (None, steps taken) when ``steps`` steps do not
    get there.
    """
    target = 1.0 - 0.5 * _TOL
    top = p * (k * k)  # p_i g'(0+): item i is active while lam is below it
    chord = True
    step = 0
    for step in range(1, steps + 1):
        active = top > lam
        if chord:
            q[:] = cap * np.maximum(1.0 - lam / top, 0.0)
        else:
            q[~active] = 0.0
        idx = np.flatnonzero(active)
        x = q[idx]
        w = p[idx]
        g1, g2 = slope_and_curvature(x, k)
        f = w * g1 - lam
        with np.errstate(over="ignore", invalid="ignore"):
            r = 1.0 / (w * g2)
            d_lam = (target - float(x.sum()) + float(f @ r)) / float(r.sum())
        if not math.isfinite(d_lam):
            break
        chord = not lam_lo < lam + d_lam < lam_hi
        if chord:
            lam = _midpoint(lam_lo, lam) if d_lam < 0.0 else _midpoint(lam, lam_hi)
            continue
        dq = (d_lam - f) * r
        q[idx] = np.clip(x + dq, 0.0, cap)
        lam += d_lam
        if float(np.abs(dq).max()) <= _PREDICT_TOL * cap:
            return lam, step
    return None, step


def waterfill(p, t):
    """Budget-binding water-fill over strictly positive weights at budget t >= 1.

    Returns (q, lam, iterations, converged) with p_i g'(q_i) = lam >= 0 on
    every coordinate inside (0, cap); the caller guarantees len(p) cap(t) > 1.
    Both stages start from :func:`_first_level`, or from the bracket's
    :func:`_midpoint` when no linearised level fits.

    The predictor, :func:`_predict`, runs at most _PREDICT_STEPS joint Newton
    steps.  If it converges, its (q, lam) is the finisher's warm start;
    otherwise the finisher starts from q = 0 as if the predictor had not run.
    _MAX_ITER bounds predictor steps and finisher iterations together, and
    ``iterations`` counts both.

    The finisher keeps the bracket from :func:`_bracket`, with
    S(lam_lo) > 1 >= S(lam_hi) for the non-increasing S(lam) = sum(q(lam)).
    Each iteration solves every coordinate at lam (:func:`_newton_coords`),
    then takes a Newton step on S = 1 - _TOL/2, the middle of the accepted
    window 1 - _TOL <= S <= 1, with dS/dlam = sum(1 / (p_i g''(q_i))) over
    the coordinates inside (0, cap); aimed at 1 itself it would approach from
    the infeasible side.  A step that leaves the bracket goes to
    :func:`_midpoint`.  The loop also stops, with converged=True, once no
    float lies strictly between lam_lo and lam_hi, and returns the plan at
    lam_hi: its sum(q) <= 1 may then sit just below the window (tied weights
    round alike).  Out of iterations, it returns that plan with
    converged=False.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    k = float(2 * t + 1)
    c = cap(t)
    curv0 = float(slope_and_curvature(np.zeros(1), k)[1][0])
    lam_lo, lam_hi = _bracket(p, t)
    start = _first_level(p, k, curv0)
    if not lam_lo < start < lam_hi:
        start = _midpoint(lam_lo, lam_hi)
    target = 1.0 - 0.5 * _TOL
    q = np.zeros_like(p)
    lam, used = _predict(p, start, k, c, lam_lo, lam_hi, q, min(_PREDICT_STEPS, _MAX_ITER))
    if lam is None:
        lam = start
        q[:] = 0.0
    q_hi = np.zeros_like(p)  # the plan at lam_hi, where every item sits at 0
    curv = np.empty_like(p)
    converged = False
    iterations = used
    for iterations in range(used + 1, _MAX_ITER + 1):
        if math.nextafter(lam_lo, lam_hi) >= lam_hi:
            converged = True
            break
        if not lam_lo < lam < lam_hi:
            lam = _midpoint(lam_lo, lam_hi)
        _newton_coords(p, lam, k, c, curv0, q, curv)
        total = float(q.sum())
        if 1.0 - _TOL <= total <= 1.0:
            return q, lam, iterations, True
        if total > 1.0:
            lam_lo = lam
        else:
            lam_hi = lam
            np.copyto(q_hi, q)
        # The Newton step is taken in log(lam), with dS/dlog(lam) = lam dS/dlam:
        # it then spans decades of lam when the weights do, where a step in lam
        # itself lands on the far side of the bracket.  exp overflows past 709,
        # and a step that long leaves the bracket anyway.  A step below lam's
        # resolution moves lam to the neighbouring float instead, unless
        # dS/dlam overflowed (weights near 1e-308), which leaves no step at all.
        with np.errstate(over="ignore"):
            d_total = float(np.sum(1.0 / curv))
        step = lam * math.expm1(min((target - total) / d_total / lam, 700.0))
        if lam + step == lam and d_total > -math.inf:
            step = math.nextafter(lam, lam_hi if total > 1.0 else lam_lo) - lam
        lam += step
    return q_hi, lam_hi, iterations, converged


def _solve(p: Prior, t: int, fill) -> AmplitudePlan:
    """The certified plan for a budget t >= 1, with ``fill`` solving the support.

    Zero-weight items are pinned to q = 0 (amplitude there is wasted and only
    degrades the KKT system).  If the caps of the remaining items fit inside
    the unit budget the multiplier is 0 and every supported item saturates.
    Otherwise the budget binds and ``fill(weights[support], t)`` returns
    (q, lam, iterations, converged); a solve that missed its tolerance raises
    NumericalFailure with the iteration count, the multiplier and the last
    |sum(q) - 1|.
    """
    w = p.weights
    support = w > 0.0
    c = cap(t)
    q = np.zeros(p.n)
    if int(support.sum()) * c <= 1.0:
        q[support] = c
        return _certified(p, q, t)
    q_pos, lam, iterations, converged = fill(w[support], t)
    if not converged:
        gap = abs(float(np.sum(q_pos)) - 1.0)
        raise NumericalFailure(
            f"water-fill stopped after {iterations} iterations at lam = {lam!r} "
            f"with |sum(q)-1| = {gap:.3e} (tol {_TOL:g})"
        )
    q[support] = q_pos
    return _certified(p, q, t)


def optimize(p: Prior, t: int) -> AmplitudePlan:
    """Amplitude plan maximizing the expected success probability.

    t = 0 degenerates to a single classical guess: all amplitude on the
    (first) most likely item.  Every t >= 1 goes through :func:`_solve` with
    the water-fill as the solver for a binding budget.
    """
    check_int(t, "t")
    if t == 0:
        q = np.zeros(p.n)
        q[int(np.argmax(p.weights))] = 1.0
        return _certified(p, q, 0)
    return _solve(p, t, waterfill)


def optimize_t1_closed_form(p: Prior) -> AmplitudePlan:
    """Single-query optimum through the explicit multiplier formula.

    At t = 1, g'(q) = 48 q^2 - 48 q + 9, so p_i g'(q_i) = lam >= 0 inverts to
    q_i = max(0, 1/2 - sqrt(1/16 + lam / (48 p_i))): cap(1) = 1/4 at lam = 0
    and 0 from lam = 9 p_i on.  The fill keeps :func:`waterfill`'s contract
    (its bracket from :func:`_bracket`, its lam and its stopping rule) but
    bisects at :func:`_midpoint`.  The pinning, the slack case (at most four
    supported items, where the success probability reaches 1 outright) and
    the failure report are :func:`_solve`'s.  Agrees with :func:`optimize` at
    t = 1 to solver tolerance; kept as an independent route for cross-checking.
    """

    def fill(w, t):
        def coords(lam):
            return np.maximum(0.5 - np.sqrt(1.0 / 16.0 + lam / (48.0 * w)), 0.0)

        lam_lo, lam_hi = _bracket(w, t)
        converged = False
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            if math.nextafter(lam_lo, lam_hi) >= lam_hi:
                converged = True
                break
            lam = _midpoint(lam_lo, lam_hi)
            q = coords(lam)
            total = float(q.sum())
            if 1.0 - _TOL <= total <= 1.0:
                return q, lam, iterations, True
            if total > 1.0:
                lam_lo = lam
            else:
                lam_hi = lam
        return coords(lam_hi), lam_hi, iterations, converged

    return _solve(p, 1, fill)


def kkt_residual(p: Prior, plan: AmplitudePlan) -> float:
    """Worst-case violation of the water-filling optimality conditions.

    Recovers the multiplier as the median marginal over strictly interior
    coordinates (falling back to the largest marginal over q = 0 coordinates,
    then to 0 when the budget is slack), then reports the largest of:
    |marginal - lam| on interior coordinates, max(0, marginal - lam) on
    zero coordinates, max(0, lam - marginal) on capped coordinates.  Each
    branch is one-sided exactly where the KKT system is, so a coordinate
    sitting on a face never produces a spurious residual.
    """
    if p.n != plan.n:
        raise InvalidInput(f"dimension mismatch: prior {p.n} vs plan {plan.n}")
    c = cap(plan.t)
    q = plan.q
    marg = p.weights * marginal(q, plan.t)

    at_zero = q <= _FACE_TOL
    at_cap = q >= c - _FACE_TOL
    interior = ~(at_zero | at_cap)

    if np.any(interior):
        lam = float(np.median(marg[interior]))
    elif np.any(at_zero):
        lam = max(0.0, float(marg[at_zero].max()))
    else:
        lam = 0.0

    residual = 0.0
    if np.any(interior):
        residual = float(np.abs(marg[interior] - lam).max())
    if np.any(at_zero):
        residual = max(residual, float((marg[at_zero] - lam).max()), 0.0)
    if np.any(at_cap):
        residual = max(residual, float((lam - marg[at_cap]).max()), 0.0)
    return residual


def _certified(p: Prior, q: np.ndarray, t: int) -> AmplitudePlan:
    """The plan (q, t) with its ESP and KKT residual under p in ``meta``."""
    meta = {}
    plan = AmplitudePlan(q=q, t=t, meta=meta)
    meta["esp"] = esp(p, plan)
    meta["kkt_residual"] = kkt_residual(p, plan)
    return plan


def plan_to_json(p: Prior, plan: AmplitudePlan, certificate=None) -> str:
    """Serialize a plan with its ESP and KKT residual under the given prior.

    ``certificate``, when given, is that pair already computed under ``p``
    (the ``meta`` of a plan that :func:`optimize` solved for ``p``); it is
    written as it is.  Without one, :func:`_certified` builds it.
    """
    if certificate is None:
        certificate = _certified(p, plan.q, plan.t).meta
    payload = {
        "t": plan.t,
        "q": plan.q.tolist(),
        "esp": certificate["esp"],
        "kkt_residual": certificate["kkt_residual"],
    }
    return json.dumps(payload)


def save_plan(p: Prior, plan: AmplitudePlan, path, certificate=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan_to_json(p, plan, certificate) + "\n")


def load_plan(path) -> AmplitudePlan:
    """Read back a plan written by :func:`save_plan` (diagnostics go to meta)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc
    try:
        check_json_numbers(data["q"], f"{path}: 'q'")
        q = np.asarray(data["q"], dtype=np.float64)
        t = data["t"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"{path}: not a plan file ({exc})") from exc
    meta = {k: data[k] for k in ("esp", "kkt_residual") if k in data}
    check_json_numbers(list(meta.values()), f"{path}: 'esp' and 'kkt_residual'")
    return AmplitudePlan(q=q, t=t, meta=meta)
