"""Asymptotic secret-key rates and critical noise thresholds.

The rate against collective attacks on a depolarizing channel with error
rate Q is

    r_inf = log2(d) - H(q_key) - I_E(Q),

where H(q_key) is the error-correction cost in the key basis and I_E the
eavesdropper information. For the (d+1)-basis family the observed
statistics fix the whole Bell spectrum, so I_E is the Holevo quantity
H(lam) - H(q_01); for the two-basis family the spectrum is only partially
constrained and maximizing over the compatible set gives I_E = H(q_10)
(rows proportional to q_10 are feasible and Jensen's inequality makes them
optimal, see the grid oracle in the tests). `adversary_information_rows` is
the one kernel for both, on stacks of error statistics shaped like
`q_from_lambda`'s output, and `ie_depolarizing` is its closed form on the
depolarizing channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import lambda_entries_from_q
from .errors import NoRoot, OutOfRange
from .info_theory import bell_holevo, depolarizing_vector, entropy_rows, entropy_unchecked, masked_row_sums
from .protocol import Family, ProtocolSpec

CLAMP_MASS_TOL = 1e-6  # reconstructed spectra may leave the simplex at large xi
BISECTION_TOL = 1e-9  # interval width; spec'd accuracy is 1e-6
BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class RateReport:
    q: float
    i_e: float
    h_ab: float
    r_inf: float  # floored at 0
    r_inf_raw: float


def adversary_information_rows(spec: ProtocolSpec, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eavesdropper information of each (n_bases, d) statistics array in a
    (K, n_bases, d) stack, with a mask of the saturated ones.

    Unchecked kernel: rows must already lie on the simplex. Two-basis:
    H(stats[1]). (d+1)-basis: the Holevo quantity of the reconstructed
    spectrum; negative weights are clipped and the rest renormalized, unless
    they carry more than CLAMP_MASS_TOL of mass, which marks the entry
    saturated (its information reads 0).
    """
    k, _, d = stats.shape
    if spec.family is Family.TWO_BASIS:
        return entropy_rows(stats[:, 1]), np.zeros(k, dtype=bool)
    lam = lambda_entries_from_q(stats[:, 0], stats[:, 1:])
    flat = lam.reshape(k, d * d)
    saturated = -masked_row_sums(flat, flat < 0.0) > CLAMP_MASS_TOL
    lam = np.clip(lam[~saturated], 0.0, None)
    lam /= lam.reshape(-1, d * d).sum(axis=1)[:, None, None]
    info = np.zeros(k)
    info[~saturated] = bell_holevo(lam)
    return info, saturated


def ie_depolarizing(spec: ProtocolSpec, q: float) -> float:
    """Closed-form I_E(Q) on the depolarizing channel for either family."""
    d = spec.dim.d
    if spec.family is Family.TWO_BASIS:
        # identical to the entropy of the check-basis error vector
        return entropy_unchecked(depolarizing_vector(spec.dim, q))
    if not (0.0 <= q <= d / (d + 1) + 1e-12):
        raise OutOfRange(f"Q={q!r} outside [0, {d / (d + 1)}] for d={d}")
    if q == 0.0:
        return 0.0
    lam00 = 1.0 - (d + 1) * q / d
    log_1mq = math.log2(1.0 - q)
    total = -q * math.log2(1.0 / d)
    if lam00 > 0.0:
        total -= lam00 * (math.log2(lam00) - log_1mq)
    total -= (q / d) * (math.log2(q / (d * d - d)) - log_1mq)
    return total


def r_infinity(spec: ProtocolSpec, q: float) -> RateReport:
    """Asymptotic rate report at depolarizing error rate Q."""
    i_e = ie_depolarizing(spec, q)
    # the two-basis I_E already is the entropy of the depolarizing vector
    h_ab = i_e if spec.family is Family.TWO_BASIS else entropy_unchecked(depolarizing_vector(spec.dim, q))
    raw = math.log2(spec.dim.d) - h_ab - i_e
    return RateReport(q=q, i_e=i_e, h_ab=h_ab, r_inf=max(raw, 0.0), r_inf_raw=raw)


def critical_q(spec: ProtocolSpec) -> float:
    """Largest depolarizing error rate with positive asymptotic rate.

    Plain bisection on the raw rate over (0, (d-1)/d); the rate is strictly
    decreasing in Q so the bracket is sound.
    """
    d = spec.dim.d
    lo, hi = 1e-6, (d - 1) / d - 1e-6
    f_lo = r_infinity(spec, lo).r_inf_raw
    f_hi = r_infinity(spec, hi).r_inf_raw
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise NoRoot(f"no sign change on [{lo}, {hi}] for {spec.family.value}, d={d}")
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if r_infinity(spec, mid).r_inf_raw > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < BISECTION_TOL:
            break
    return 0.5 * (lo + hi)
