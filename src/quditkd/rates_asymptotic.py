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
optimal, see the grid oracle in the tests). Both are computed one way, by
`adversary._holevo_pairs`: `r_infinity` reads it on the nominal pair of
one depolarizing vector, whose entropy is H(q_key), and the finite-key worst
case on the shifted pair. The kernel on arbitrary error statistics is the
tests' oracle, `adversary_information_rows` in `tests/oracles.py`.

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

from .adversary import _holevo_pairs
from .info_theory import depolarizing_vector, entropy_rows
from .protocol import ProtocolSpec

BISECTION_TOL = 1e-9  # interval width; spec'd accuracy is 1e-6


@dataclass(frozen=True)
class RateReport:
    q: float
    i_e: float
    h_ab: float
    r_inf: float  # floored at 0
    r_inf_raw: float


def r_infinity(spec: ProtocolSpec, q: float) -> RateReport:
    """Asymptotic rate report at depolarizing error rate Q in [0, (d-1)/d]:
    I_E is `_holevo_pairs` on the nominal (key, check) pair, the worst case
    at zero radius, and H(q_key) the entropy of the same vector."""
    vec = depolarizing_vector(spec.dim, q)
    i_e = float(_holevo_pairs(spec, vec[None], vec[None])[0][0])
    h_ab = float(entropy_rows(vec[None])[0])
    raw = math.log2(spec.dim.d) - h_ab - i_e
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
