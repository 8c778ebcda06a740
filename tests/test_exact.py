"""The asymptotic rates against the 60-digit reference in `exact.py`."""

import math
from decimal import Context, Decimal, localcontext

import exact

from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_asymptotic import BISECTION_TOL, critical_q, r_infinity

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SUPPORTED = [(Family.TWO_BASIS, d) for d in range(2, 33)] + [(Family.DPLUS1, d) for d in PRIMES_TO_31]
GRID_Q = (0.001, 0.01, 0.05, 0.1, 0.15)

# The largest distance of each `RateReport` field from the reference over
# SUPPORTED x GRID_Q, in ulp of the reference, measured on the code before
# `r_infinity` built its depolarizing vector once, and fixed then: a change
# to the asymptotic path may not move any value farther from the truth.
# The worst cases are dplus1 d = 29 at Q = 0.001 for i_e, which misses by
# 1.8e-14 because the kernel forms the spectrum's small entries as
# (d c + q_01[0] - 1)/d and that difference cancels; two-basis d = 28 at
# Q = 0.1 for h_ab; and dplus1 d = 13 at Q = 0.15 for r_inf_raw.
MAX_ULP = {"i_e": 20862.42, "h_ab": 4.47, "r_inf_raw": 42.62}


def _ulp_distance(got: float, ref: Decimal) -> float:
    return float(abs(Decimal(got) - ref) / Decimal(math.ulp(float(ref))))


def test_r_infinity_is_within_the_measured_ulp_of_the_truth():
    worst = dict.fromkeys(MAX_ULP, 0.0)
    for family, d in SUPPORTED:
        for q in GRID_Q:
            report = r_infinity(ProtocolSpec(family, d), q)
            h_q = exact.entropy(exact.depolarizing_vector(d, q))
            reference = {"i_e": exact.ie(family, d, q), "h_ab": h_q, "r_inf_raw": exact.r_inf(family, d, q)}
            for name, ref in reference.items():
                worst[name] = max(worst[name], _ulp_distance(getattr(report, name), ref))
    assert all(worst[name] <= bound for name, bound in MAX_ULP.items()), worst


def test_critical_q_is_within_the_bisection_tolerance_of_the_true_root():
    misses = {
        (family.value, d): float(abs(Decimal(critical_q(ProtocolSpec(family, d))) - exact.critical_q(family, d)))
        for family, d in SUPPORTED
    }
    assert max(misses.values()) <= BISECTION_TOL, max(misses.items(), key=lambda item: item[1])


def test_the_uniform_vector_has_entropy_log2_d_at_60_digits():
    for d in range(2, 33):
        with localcontext(Context(prec=exact.PRECISION)):
            uniform = [(Decimal(1) / d, d)]
            assert abs(exact.entropy(uniform) - exact.log2(Decimal(d))) <= Decimal("1e-58"), d
