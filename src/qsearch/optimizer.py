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
:func:`waterfill` is one safeguarded loop of Newton steps on the KKT system
in (q, lam) together, restricted to the active set (the primal-dual
active-set method: Hintermueller, Ito and Kunisch, SIAM J. Optim. 13(3),
2002): one g'/g'' evaluation per iteration, a diagonal system with one
border row.  It keeps the monotone multiplier bracket that a bisection
would, moves it only by a sum it has solved, and leaves the Newton step
for a midpoint only when the step leaves the bracket (the standard
treatment of water-filling: Palomar and Fonollosa, IEEE Trans. Signal
Processing 53(2), 2005; Boyd and Vandenberghe, Convex Optimization, 5.5.3).
The t = 1 closed form bisects instead, as an independent cross-check.  Both
fills take (weights, t), start from one bracket, :func:`_bracket`, fall
back on one :func:`_midpoint`, report the same multiplier lam >= 0 and stop
by one rule: in the window 1 - _TOL <= sum(q) <= 1, or at lam_hi once no
float lies inside the bracket.
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

# The water-fill calls a sum solved once no fixed-multiplier Newton step
# exceeds cap(t) 2**-52, or once the largest is below _SOLVED_TOL cap(t) and
# stops halving: g' is then evaluated to its noise and a further step only
# moves q by that noise.
_SOLVED_TOL = 1e-7


def kernel_backend() -> str:
    """Name of the water-fill implementation; there is only the NumPy one."""
    return "python"


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


def _chord_level(top, cap):
    """The multiplier at which the chord of g' spends the budget.

    The chord from (0, k^2) to (cap, 0) puts item i at
    q_i = cap (1 - lam / top_i) while lam < top_i = p_i k^2, and at 0 after.
    With the m largest tops active the sum is the line cap (m - lam H_m),
    H_m = sum_{i<=m} 1 / top_(i), which lies below the sum everywhere and
    meets it where exactly those m are active.  The sum falls as lam rises,
    so it is 1 at the largest root (m - 1/cap) / H_m of these lines.
    """
    m = np.arange(1, top.size + 1)
    return float(np.max((m - 1.0 / cap) / np.cumsum(np.sort(1.0 / top))))


def waterfill(p, t):
    """Budget-binding water-fill over strictly positive weights at budget t >= 1.

    Returns (q, lam, iterations, converged) with p_i g'(q_i) = lam >= 0 on
    every coordinate inside (0, cap); the caller guarantees len(p) cap(t) > 1.

    Each iteration linearises the KKT system p_i g'(q_i) = lam,
    sum(q) = 1 - _TOL/2 at (q, lam) on the active set p_i k^2 > lam (the
    other items sit at 0), with one g'/g'' evaluation.  With
    f_i = p_i g'(q_i) - lam and c_i = p_i g''(q_i) < 0 the system is diagonal
    plus one border row:

        dlam = (1 - _TOL/2 - sum(q) + sum(f_i / c_i)) / sum(1 / c_i),
        dq_i = (dlam - f_i) / c_i,

    with q clipped to [0, cap].  The target is the middle of the accepted
    window 1 - _TOL <= sum(q) <= 1; aimed at 1 itself the iteration would
    approach from the infeasible side.

    The loop keeps the bracket from :func:`_bracket`, with
    S(lam_lo) > 1 >= S(lam_hi) for the non-increasing S(lam) = sum(q(lam)).
    Only a solved sum moves it (see _SOLVED_TOL): then the plan after its
    last fixed-lam step q - f/c, or else q itself, is returned if it sums
    into the window; otherwise the sum of q moves one end of the bracket to
    lam, and a Newton step that would not move lam toward the window (below
    lam's resolution, or back across that end) moves it to the neighbouring
    float instead.  A step that leaves the bracket goes to the
    :func:`_midpoint` of lam and the end it crossed.  There, and at the start
    (:func:`_chord_level`, or the bracket's midpoint when that falls
    outside), the coordinates take the chord of g' from (0, k^2) to (cap, 0)
    at lam / p_i: it is exact on both faces and holds across the decades a
    jump can span, where a tangent taken at the last multiplier does not.

    The loop also stops, with converged=True, once no float lies strictly
    between lam_lo and lam_hi, and returns the plan at lam_hi: its
    sum(q) <= 1 may then sit just below the window (tied weights round
    alike).  Out of iterations, it returns that plan with converged=False.
    The weights are first scaled by a power of two that centres their
    exponents, which is exact and keeps every sum of 1/c_i and every
    multiplier in range for weights from 5e-324 to 1; the shift is even, so
    the square roots in :func:`_midpoint` scale exactly too.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    shift = -2 * ((math.frexp(float(p.max()))[1] + math.frexp(float(p.min()))[1]) // 4)
    w = np.ldexp(p, shift)
    k = float(2 * t + 1)
    c = cap(t)
    res = c * 2.0**-52
    target = 1.0 - 0.5 * _TOL
    top = w * (k * k)  # w_i g'(0+): item i is active while lam is below it
    lam_lo, lam_hi = _bracket(w, t)
    lam = _chord_level(top, c)
    chord = True
    q_hi = np.zeros_like(w)  # the plan at lam_hi, where every item sits at 0
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if math.nextafter(lam_lo, lam_hi) >= lam_hi:
            converged = True
            break
        if not lam_lo < lam < lam_hi:
            lam = _midpoint(lam_lo, lam_hi)
            chord = True
        if chord:
            idx = np.flatnonzero(top > lam)
            q = np.zeros_like(w)
            q[idx] = c * (1.0 - lam / top[idx])
            chord = False
            prev = math.inf
        else:
            q[idx[top[idx] <= lam]] = 0.0  # only the items that left the active set
            idx = np.flatnonzero(top > lam)
        x = q[idx]
        wi = w[idx]
        g1, g2 = slope_and_curvature(x, k)
        f = wi * g1 - lam
        r = 1.0 / (wi * g2)
        step = f * r
        err = float(np.abs(step).max())
        solved = err <= res or (err <= _SOLVED_TOL * c and err > 0.5 * prev)
        prev = err
        if solved:
            for plan in (np.clip(x - step, 0.0, c), x):
                q[idx] = plan
                total = float(q.sum())
                if 1.0 - _TOL <= total <= 1.0:
                    return q, math.ldexp(lam, -shift), iterations, True
            if total > 1.0:
                lam_lo = lam
            else:
                lam_hi = lam
                np.copyto(q_hi, q)
        d_lam = (target - float(x.sum()) + float(f @ r)) / float(r.sum())
        # A step that would not move lam toward the window from a solved sum
        # (below lam's resolution, or back across the end just set) is
        # replaced by the step to the neighbouring float.
        if solved and (lam + d_lam - lam) * (total - 1.0) <= 0.0:
            d_lam = math.nextafter(lam, lam_hi if total > 1.0 else lam_lo) - lam
        if not lam_lo < lam + d_lam < lam_hi:
            lam = _midpoint(lam_lo, lam) if d_lam < 0.0 else _midpoint(lam, lam_hi)
            chord = True
            continue
        q[idx] = np.clip(x + (d_lam - f) * r, 0.0, c)
        lam += d_lam
    return q_hi, math.ldexp(lam_hi, -shift), iterations, converged


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
