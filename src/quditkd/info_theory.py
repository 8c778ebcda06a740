"""Entropy primitives and the depolarizing error vector.

All logarithms are base 2; entropies are in bits. Inputs are checked once,
at the public boundary (`as_prob_vector`); internal callers pass arrays
already on the simplex to `entropy_rows`. For a C-ordered (K, n) stack,
each row of `entropy_rows` is computed exactly as for that row alone, so a
row's value never depends on the batch it is evaluated in.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution
from .protocol import ENTRY_SLACK, Dim, checked_q

SUM_SLACK = 1e-9


def as_prob_vector(values) -> np.ndarray:
    """Validate a probability vector and return it as a float array.

    Entries may undershoot 0 or overshoot 1 by at most 1e-12 (they are
    clipped back); the total must be within 1e-9 of 1. The vector is not
    renormalized.
    """
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistribution(f"expected a nonempty 1-d vector, got shape {p.shape}")
    if not np.all((p >= -ENTRY_SLACK) & (p <= 1.0 + ENTRY_SLACK)):  # NaN fails too
        raise InvalidDistribution(f"entries outside [0, 1]: {p!r}")
    total = float(p.sum())
    if not abs(total - 1.0) <= SUM_SLACK:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    return np.clip(p, 0.0, 1.0)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """H of each row of a (K, n) array already on the simplex (0 log 0 = 0)."""
    positive = p > 0.0
    terms = np.zeros_like(p)
    np.log2(p, out=terms, where=positive)
    return -(p * terms).sum(axis=1) + 0.0  # avoid -0.0


def shannon_entropy(p) -> float:
    """H(p) of a probability vector, validated with `as_prob_vector` first."""
    return float(entropy_rows(as_prob_vector(p)[None])[0])


def depolarizing_vector(dim: Dim, q: float) -> np.ndarray:
    """Error vector (1-Q, Q/(d-1), ..., Q/(d-1)) of a depolarizing channel.

    Q above (d-1)/d would put more weight on each wrong outcome than the
    right one, which is outside the regime treated here. A numpy float Q
    is read as a Python float, so the vector is float64 whatever its type.
    """
    d = dim.d
    q = checked_q(q, d, (d - 1) / d)
    vec = np.full(d, q / (d - 1))
    vec[0] = 1.0 - q
    return vec
