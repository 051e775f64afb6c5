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
that missed its tolerance and certifies the result.  Two fills plug into it:
:func:`waterfill`, two nested monotone bisections (outer on the multiplier,
inner per coordinate) that need no line search or step-size tuning, and the
t = 1 closed form's single bisection, kept as an independent cross-check.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInput, NumericalFailure, check_int, check_json_numbers
from .esp import AmplitudePlan, cap, esp, marginal, slope
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

# Inner bisection depth.  cap / 2**54 is below one ulp of any q in (0, 1/4],
# so each coordinate is resolved to full double precision.
_INNER_ITERS = 54

# Outer bisections (water-fill and closed form): relative tolerance on the
# multiplier bracket and on |sum(q) - 1|, and the iteration cap.
_TOL = 1e-12
_MAX_ITER = 200


def kernel_backend() -> str:
    """Name of the water-fill implementation; there is only the NumPy one."""
    return "python"


def _coords_for_lambda(p, lam, k, cap):
    """Per-item inner solve: q_i with p_i * g'(q_i) = lam, clipped to [0, cap].

    g' (:func:`qsearch.esp.slope`) is strictly decreasing on (0, cap) from
    g'(0+) = k^2 down to g'(cap-) = 0, so a plain bisection per coordinate is
    monotone and exact to the iteration depth.
    """
    q = np.zeros_like(p)
    active = p * (k * k) > lam
    if not np.any(active):
        return q
    pa = p[active]
    lo = np.zeros(pa.size)
    hi = np.full(pa.size, cap)
    for _ in range(_INNER_ITERS):
        mid = 0.5 * (lo + hi)
        take = slope(mid, k, pa) > lam
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    q[active] = 0.5 * (lo + hi)
    return q


def waterfill(p, k, cap, tol, max_iter):
    """Budget-binding water-fill over strictly positive weights.

    Arguments:
        p: 1-D float64 array of strictly positive weights (need not sum to 1).
        k: 2t + 1 for query budget t >= 1.
        cap: per-coordinate upper bound sin^2(pi / (2k)).
        tol: relative tolerance on the multiplier bracket; a midpoint with
            1 - tol <= sum(q) <= 1 is accepted early.
        max_iter: outer bisection iteration cap.

    Returns (q, lam, iterations, converged).  Caller guarantees
    len(p) * cap > 1, i.e. the budget constraint is active, so the multiplier
    lam lies in (0, k^2 * max(p)).  sum(q(lam)) is non-increasing in lam; the
    returned bracket endpoint is the one with sum(q) <= 1 so the result is
    always feasible.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    lam_hi = float(p.max()) * k * k
    lam_lo = 0.0
    scale = lam_hi
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if lam_hi - lam_lo <= tol * scale:
            converged = True
            break
        lam = 0.5 * (lam_lo + lam_hi)
        q = _coords_for_lambda(p, lam, k, cap)
        total = float(q.sum())
        # Accept only from the feasible side so sum(q) <= 1 always holds.
        if 1.0 - tol <= total <= 1.0:
            return q, lam, iterations, True
        if total > 1.0:
            lam_lo = lam
        else:
            lam_hi = lam
    q = _coords_for_lambda(p, lam_hi, k, cap)
    return q, lam_hi, iterations, converged


def _solve(p: Prior, t: int, fill) -> AmplitudePlan:
    """The certified plan for a budget t >= 1, with ``fill`` solving the support.

    Zero-weight items are pinned to q = 0 (amplitude there is wasted and only
    degrades the KKT system).  If the caps of the remaining items fit inside
    the unit budget the multiplier is 0 and every supported item saturates.
    Otherwise the budget binds and ``fill(weights[support])`` returns
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
    q_pos, lam, iterations, converged = fill(w[support])
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
    # waterfill is looked up at call time, so a wrapper on the module attribute sees it.
    return _solve(p, t, lambda ws: waterfill(ws, float(2 * t + 1), cap(t), _TOL, _MAX_ITER))


def optimize_t1_closed_form(p: Prior) -> AmplitudePlan:
    """Single-query optimum through the explicit multiplier formula.

    At t = 1 the stationarity condition p_i (48 q_i^2 - 48 q_i + 9) = -lam
    inverts in closed form to q_i = 1/2 - sqrt(1/16 - lam/(48 p_i)), so only
    one bisection (over lam <= 0) is needed to hit sum(q) = 1.  The pinning,
    the slack case (at most four supported items, where the success
    probability reaches 1 outright) and the failure report are
    :func:`_solve`'s, shared with :func:`optimize`.  Agrees with
    :func:`optimize` at t = 1 to solver tolerance; kept as an independent
    route for cross-checking.
    """

    def fill(ws: np.ndarray):
        def coords(lam: float) -> np.ndarray:
            radicand = 1.0 / 16.0 - lam / (48.0 * ws)
            qs = 0.5 - np.sqrt(np.maximum(radicand, 0.0))
            return np.clip(qs, 0.0, 0.25)

        # sum(q(lam)) grows monotonically from 0 at lam = -9 max(p) (every
        # coordinate clamped to 0) to 0.25 * support > 1 at lam = 0.
        lam_lo = -9.0 * float(ws.max())
        lam_hi = 0.0
        scale = -lam_lo
        converged = False
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            if lam_hi - lam_lo <= _TOL * scale:
                converged = True
                break
            lam = 0.5 * (lam_lo + lam_hi)
            total = float(coords(lam).sum())
            # Accept only from the feasible side so sum(q) <= 1 always holds.
            if 1.0 - _TOL <= total <= 1.0:
                lam_lo = lam
                converged = True
                break
            if total > 1.0:
                lam_hi = lam
            else:
                lam_lo = lam
        # The lam_lo endpoint has sum(q) <= 1, keeping the plan feasible.
        return coords(lam_lo), lam_lo, iterations, converged

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
    plan = AmplitudePlan(q=q, t=t)
    meta = {"esp": esp(p, plan), "kkt_residual": kkt_residual(p, plan)}
    return AmplitudePlan(q=plan.q, t=t, meta=meta)


def plan_to_json(p: Prior, plan: AmplitudePlan) -> str:
    """Serialize a plan with its ESP and KKT residual under the given prior."""
    payload = {
        "t": plan.t,
        "q": [float(x) for x in plan.q],
        "esp": esp(p, plan),
        "kkt_residual": kkt_residual(p, plan),
    }
    return json.dumps(payload)


def save_plan(p: Prior, plan: AmplitudePlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan_to_json(p, plan) + "\n")


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
