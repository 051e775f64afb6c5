"""Prior distributions over solution locations.

A ``Prior`` is an immutable, normalized probability vector: entry i is the
believed probability that the unique searched-for item sits at index i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, check_int, check_json_numbers, load_json

#: Absolute tolerance on the normalization invariant.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class Prior:
    """Normalized, non-negative weight vector.

    Construct through :func:`new_prior` (which normalizes raw weights) rather
    than directly; direct construction still validates the invariants but
    performs no normalization.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise InvalidInput("prior needs a non-empty 1-D weight vector")
        lo, hi = w.min(), w.max()  # NaN and +-inf reach one of the two
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInput("prior weights must be finite")
        if lo < 0.0:
            raise InvalidInput("prior weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > NORM_TOL:
            raise InvalidInput(
                f"prior weights must sum to 1 within {NORM_TOL}, got {w.sum()!r}"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)


def new_prior(raw_weights) -> Prior:
    """Normalize raw non-negative weights into a Prior (input order kept)."""
    try:
        w = np.asarray(raw_weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"weights are not numeric: {exc}") from exc
    if w.ndim != 1 or w.size == 0:
        raise InvalidInput("weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("weights must be finite")
    if np.any(w < 0.0):
        raise InvalidInput("weights must be non-negative")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total <= 0.0:
        raise InvalidInput("weights must not all be zero")
    if not np.isfinite(total):
        # Finite weights near the float maximum overflow their sum; scale
        # them down first.  Sums that fit keep the plain w / sum(w) rounding.
        w = w / w.max()
        total = float(w.sum())
    return Prior(weights=w / total)


def l1_distance(p: Prior, p_hat: Prior) -> float:
    """L1 distance sum_i |p_i - p̂_i| between two priors of equal size."""
    if p.n != p_hat.n:
        raise InvalidInput(f"dimension mismatch: {p.n} vs {p_hat.n}")
    return float(np.abs(p.weights - p_hat.weights).sum())


def sample_random_prior(n: int, seed: int) -> Prior:
    """Prior with n i.i.d. Uniform(0,1) weights, normalized.

    Deterministic and platform-independent for a given (n, seed): draws come
    from NumPy's PCG64 stream, whose output is fixed by the algorithm, not by
    the OS or hardware.
    """
    check_int(n, "n", 1)
    check_int(seed, "seed")
    rng = np.random.Generator(np.random.PCG64(seed))
    return new_prior(rng.random(n))


def top_k_mass(p: Prior, k: int) -> float:
    """Total weight of the k most likely locations.

    This is the best possible classical success probability for k queries.
    The full-mass case k = n is exactly 1 by normalization; partial sums are
    clamped into [0, 1] so rounding noise never leaks past the unit interval.
    """
    check_int(k, "k", 0, p.n)
    if k == 0:
        return 0.0
    if k == p.n:
        return 1.0
    largest = np.sort(p.weights)[::-1][:k]
    return min(1.0, float(largest.sum()))


def load_prior(path) -> Prior:
    """Read a {"weights": [...]} JSON file and normalize it."""
    data = load_json(path)
    if not isinstance(data, dict) or "weights" not in data:
        raise InvalidInput(f"{path}: expected a JSON object with a 'weights' key")
    weights = data["weights"]
    check_json_numbers(weights, f"{path}: 'weights'")
    return new_prior(weights)
