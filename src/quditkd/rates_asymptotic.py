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
optimal, see the grid oracle in the tests). `r_infinity` evaluates
`adversary._holevo_pairs`'s formulas on the nominal pair of one
depolarizing vector, on Python floats and in the same float operations and
order, so `critical-q` and `asymptotic` import no numpy; the finite-key
worst case calls the kernel itself, on the shifted pair. The tests hold the
two to equal bits where numpy's `log2` is the C library's, and the kernel
on arbitrary error statistics is their oracle, `adversary_information_rows`
in `tests/oracles.py`.

Bell-diagonal sources suffice: twirling a state by a random U_jk (x)
conj(U_jk) keeps every basis's statistics of t = (a - b) mod d, leaves the
state's Bell-diagonal part and cannot raise H(Z_A|E), since Eve may hold the
twirl's label, given which the key is the original one shifted. So every
state with statistics q has H(Z_A|E) >= log2(d) - I_E(q), with equality on
the Bell-diagonal states that attain I_E (all of them for the (d+1)-basis
family, the product spectra lam = a (x) b for the two-basis family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import Family, ProtocolSpec, checked_q

BISECTION_TOL = 1e-9  # interval width; spec'd accuracy is 1e-6


@dataclass(frozen=True)
class RateReport:
    q: float
    i_e: float
    h_ab: float
    r_inf: float  # floored at 0
    r_inf_raw: float


def _pairwise_sum(terms: list[float]) -> float:
    """Sum of `terms` in numpy's pairwise order (`pairwise_sum` in numpy's
    `loops_utils.h.src`, which `ndarray.sum` runs on a contiguous row), so
    a row adds up to the bits that `entropy_rows` and `_holevo_pairs` get
    (the builtin `sum` adds in sequence, and compensates since Python
    3.12): sequential below 8 terms, eight interleaved accumulators up to
    128 and, above that, the two halves split at a multiple of 8."""
    n = len(terms)
    if n < 8:
        total = 0.0
        for term in terms:
            total += term
        return total
    if n <= 128:
        acc, whole = terms[:8], n - n % 8
        for start in range(8, whole, 8):
            acc = [a + t for a, t in zip(acc, terms[start:start + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for term in terms[whole:]:
            total += term
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _entropy(p: list[float]) -> float:
    """H(p) of a row on the simplex (0 log 0 = 0), term by term as
    `info_theory.entropy_rows`: a zero entry adds 0.0 in its place."""
    return -_pairwise_sum([x * math.log2(x) if x > 0.0 else 0.0 for x in p]) + 0.0


def _dplus1_information(vec: list[float]) -> float:
    """`_holevo_pairs`'s (d+1)-basis closed form on the nominal pair (vec,
    vec). Its saturation test is left out: for Q in [0, (d-1)/d] the
    spectrum's negative mass is rounding alone, about d^2 1e-16, far below
    `CLAMP_MASS_TOL` = 1e-6."""
    d = len(vec)
    row0 = [max((d * c + vec[0] - 1.0) / d, 0.0) for c in vec]
    rest = max((_pairwise_sum(vec) + vec[1] - 1.0) / d, 0.0)  # each row j >= 1, constant in j and k
    norm = _pairwise_sum(row0) + d * _pairwise_sum([rest] * (d - 1))
    row0 = [x / norm for x in row0]
    mass = _pairwise_sum(row0)
    return max(_entropy(row0) - _entropy([mass]) + (1.0 - mass) * math.log2(d), 0.0)


def r_infinity(spec: ProtocolSpec, q: float) -> RateReport:
    """Asymptotic rate report at depolarizing error rate Q in [0, (d-1)/d]:
    H(q_key) is the entropy of the depolarizing vector, and I_E is that
    entropy again for two-basis, else the (d+1)-basis closed form on the
    vector's nominal pair."""
    d = spec.dim.d
    clamped = checked_q(q, d, (d - 1) / d)
    vec = [1.0 - clamped] + [clamped / (d - 1)] * (d - 1)
    h_ab = _entropy(vec)
    i_e = h_ab if spec.family is Family.TWO_BASIS else _dplus1_information(vec)
    raw = math.log2(d) - h_ab - i_e
    return RateReport(q=float(q), i_e=i_e, h_ab=h_ab, r_inf=max(raw, 0.0), r_inf_raw=raw)


def ie_depolarizing(spec: ProtocolSpec, q: float) -> float:
    """I_E(Q) on the depolarizing channel for either family: `r_infinity`'s."""
    return r_infinity(spec, q).i_e


def critical_q(spec: ProtocolSpec) -> float:
    """Largest depolarizing error rate with positive asymptotic rate.

    Plain bisection on the raw rate over [1e-6, (d-1)/d - 1e-6], evaluated
    at midpoints only. The rate is strictly decreasing in Q, and the bracket
    always changes sign: near Q = 0 the rate is close to log2(d) > 0, and
    near (d-1)/d the statistics are almost uniform, so H(q_key) and I_E are
    both close to log2(d) and the rate to -log2(d), in either family (the
    tests check both end points at every supported d and beyond).
    """
    d = spec.dim.d
    lo, hi = 1e-6, (d - 1) / d - 1e-6
    while hi - lo >= BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if r_infinity(spec, mid).r_inf_raw > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
