"""Expected success probability (ESP) of amplitude-amplified search.

Running t oracle queries against an initial state whose squared amplitude on
item i is q_i finds the solution x with probability sin^2((2t+1) arcsin sqrt(q_x)).
Averaging over a prior p gives the objective everything here evaluates:

    ESP_t(p, q) = sum_i p_i g(q_i),   g(q) = sin^2((2t+1) arcsin sqrt(q))

g rises from 0 to 1 on [0, cap(t)], cap(t) = sin^2(pi/(2(2t+1))), with
slope g'(q) = k sin(2k arcsin sqrt q) / (2 sqrt(q(1-q))), k = 2t+1.  The
curve, its slope, its curvature g'' (with the slope, slope_and_curvature),
the slope on the faces of [0, cap] (marginal) and the cap are defined here
once; the optimizer and the bounds use them from here.
Besides the objective itself this module holds the two non-optimal
baselines (best-M ranking search and the quadratic-speedup construction)
that the optimal plan is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidInput, check_int
from .prior import Prior

#: Feasibility slack on sum(q); everything downstream treats plans as exact.
PLAN_SUM_TOL = 1e-12

#: The compare CSV's methods, in its row order within each t.
METHODS = ("classical", "grover-uniform", "ranking", "optimal")

#: Smaller-M wins on ranking ties; float noise within this counts as a tie.
_RANKING_TIE_TOL = 1e-12

#: The smallest normal float; slope_and_curvature lifts q = 0 to it.
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class AmplitudePlan:
    """Initial squared amplitudes q (sum <= 1) plus a query budget t.

    Leftover mass 1 - sum(q) sits on an off-items sink component; the
    simulator realizes it explicitly.  ``meta`` carries solver diagnostics
    (ESP, KKT residual) and never participates in equality.
    """

    q: np.ndarray
    t: int
    meta: Mapping[str, float] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 1 or q.size < 1:
            raise InvalidInput("plan needs a non-empty 1-D amplitude vector")
        lo, hi = q.min(), q.max()  # NaN and +-inf reach one of the two
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInput("plan amplitudes must be finite")
        if lo < 0.0 or hi > 1.0:
            raise InvalidInput("plan amplitudes must lie in [0, 1]")
        if float(q.sum()) > 1.0 + PLAN_SUM_TOL:
            raise InvalidInput(f"plan amplitudes sum to {q.sum()!r} > 1")
        check_int(self.t, "t")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", int(self.t))

    @property
    def n(self) -> int:
        return int(self.q.size)


@dataclass(frozen=True)
class EspReport:
    """The ranking baseline's ESP value and the M that attains it."""

    value: float
    M: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidInput(f"ESP value {self.value!r} outside [0, 1]")


def cap(t: int) -> float:
    """Saturation amplitude sin^2(pi / (2(2t+1))) for a t-query search."""
    check_int(t, "t")
    return math.sin(math.pi / (2.0 * (2 * t + 1))) ** 2


def slope(q, k):
    """g'(q) = k sin(2k arcsin sqrt q) / (2 sqrt(q(1-q))) for 0 < q < 1, k = 2t+1."""
    return _slope_at(q * (1.0 - q), k, 2.0 * k * np.arcsin(np.sqrt(q)))


def slope_and_curvature(q, k):
    """g'(q) and g''(q) on an array of 0 <= q <= cap(t), k = 2t+1, from one angle.

        g''(q) = (2k^2 cos(2k arcsin sqrt q) - 2 g'(q)(1 - 2q)) / (4q(1-q))

    g'' is strictly negative on [0, cap(t)]: g is strictly concave there, which
    the water-fill relies on.  Near 0 the two terms of the numerator cancel,
    so below k^2 q = 1e-5 g'' is the two-term series
    -2k^2(k^2-1)/3 * (1 - 2q(k^2-4)/5) instead (both are then within about
    1e-11 of the exact value).  At q = 0 the pair is the limit
    (k^2, -2k^2(k^2-1)/3).  g' has the bits of :func:`slope`.  The Newton
    step of the water-fill needs both and pays for the angle and q(1-q) once
    (4 q(1-q) has the bits of (4q)(1-q): a power of two scales exactly).
    """
    q = np.maximum(q, _TINY)  # q = 0 gives the limits, not 0/0
    angle = 2.0 * k * np.arcsin(np.sqrt(q))
    qq = q * (1.0 - q)
    g1 = _slope_at(qq, k, angle)
    g2 = (2.0 * k * k * np.cos(angle) - 2.0 * g1 * (1.0 - 2.0 * q)) / (4.0 * qq)
    kk = float(k) * float(k)
    if float(q.min()) * kk < 1e-5:  # the smallest q is near 0 if any is
        near = q * kk < 1e-5
        g2[near] = -2.0 * kk * (kk - 1.0) / 3.0 * (1.0 - 0.4 * (kk - 4.0) * q[near])
    return g1, g2


def _slope_at(qq, k, angle):
    """g' from its angle 2k arcsin sqrt q and qq = q(1-q)."""
    return k * np.sin(angle) / (2.0 * np.sqrt(qq))


def marginal(q, t: int) -> np.ndarray:
    """g'(q) with q clipped to [0, cap(t)] and the limit g'(0+) = (2t+1)^2 at 0.

    At t = 0, g is the identity and k^2 = 1 is its slope on all of [0, 1],
    exactly; the slope formula would lose its bits as q nears 1.  For t >= 1
    the cap is below 1.  The water-fill's certificate and the duality
    bound's tangents both read the faces from here.
    """
    k = 2 * t + 1
    qc = np.minimum(np.maximum(q, 0.0), cap(t))
    out = np.full(qc.shape, float(k * k))
    if t:
        inside = qc > 0.0
        out[inside] = slope(qc[inside], k)
    return out


def success_prob_single(q_i: float, t: int) -> float:
    """Probability of measuring one item after t queries, sin^2((2t+1) asin sqrt(q_i)).

    Evaluated with scalar ``math``: NumPy's sin rounds differently for some
    arguments, and ``qsearch emit`` prints this value.
    """
    if not 0.0 <= q_i <= 1.0:
        raise InvalidInput(f"q_i must lie in [0, 1], got {q_i!r}")
    check_int(t, "t")
    return math.sin((2 * t + 1) * math.asin(math.sqrt(q_i))) ** 2


def _success_vec(q: np.ndarray, t: int) -> np.ndarray:
    return np.sin((2 * t + 1) * np.arcsin(np.sqrt(q))) ** 2


def esp(p: Prior, plan: AmplitudePlan) -> float:
    """Expected success probability of ``plan`` under prior ``p``."""
    if p.n != plan.n:
        raise InvalidInput(f"dimension mismatch: prior {p.n} vs plan {plan.n}")
    return float(p.weights @ _success_vec(plan.q, plan.t))


def uniform_plan(n: int, t: int) -> AmplitudePlan:
    """The no-prior plan q_i = 1/n (plain Grover over all n items)."""
    check_int(n, "n", 1)
    return AmplitudePlan(q=np.full(n, 1.0 / n), t=t)


def ranking_baseline(p: Prior, t: int) -> EspReport:
    """Best uniform Grover search over the M most likely items.

    For each M in 1..n the success probability is
    (mass of top M) * sin^2((2t+1) arcsin(1/sqrt(M))), deliberately without
    clamping: overshooting the pi/2 angle genuinely hurts and is part of why
    this baseline loses.  Returns the best value and its M; ties (including
    ties up to float noise) go to the smallest M.
    """
    check_int(t, "t")
    mass = np.cumsum(np.sort(p.weights)[::-1])
    m_all = np.arange(1, p.n + 1, dtype=np.float64)
    # arcsin(1/sqrt(M)), not the curve on q = 1/M: the compare CSV's
    # ranking column is pinned to these bits.
    angle = (2 * t + 1) * np.arcsin(1.0 / np.sqrt(m_all))
    values = mass * np.sin(angle) ** 2
    best = float(values.max())
    m_index = int(np.argmax(values >= best - _RANKING_TIE_TOL))
    value = min(1.0, float(values[m_index]))
    return EspReport(value=value, M=m_index + 1)


def speedup_plan(p: Prior, t_classical: int) -> AmplitudePlan:
    """Plan matching the best t_classical-query classical success in about sqrt as many queries.

    Uses t = ceil(sqrt(t_classical)) queries and puts the saturating amplitude
    cap(t) on each of the t_classical most likely items, so each
    covered item is found with probability 1 and the ESP equals the classical
    top-t_classical mass.  Total amplitude spent is t_classical * cap <= pi^2/16.
    """
    check_int(t_classical, "t_classical", 1, p.n)
    t = math.isqrt(t_classical - 1) + 1
    # stable argsort on -w: ties resolve to the lowest index
    top = np.argsort(-p.weights, kind="stable")[:t_classical]
    q = np.zeros(p.n)
    q[top] = cap(t)
    plan = AmplitudePlan(q=q, t=t)
    return plan

