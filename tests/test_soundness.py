"""Soundness of the finite-key fluctuation radius and of the printed rate.

`rates_finite.xi(m, d, eps_PE)` promises that the error vector estimated
from m samples lies within xi of the true one, in l1 distance, except with
probability eps_PE. Here that promise is checked against seeded multinomial
draws from depolarizing error vectors. The rate `optimize_r_finite` reports
is then checked against the rate at one feasible point of those balls.
"""

import itertools
import math

import numpy as np
import pytest
from oracles import adversary_information_rows

from quditkd.channels import lambda_entries_from_q
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Family, FluxMode, ProtocolSpec
from quditkd.qudit_algebra import Dim
from quditkd.rates_finite import optimize_r_finite, xi

DRAWS = 20_000
# one-sided binomial tolerance on the miss share, fixed before the first run:
# 4 standard deviations of a share of DRAWS Bernoulli(eps_PE) trials
Z = 4.0


@pytest.mark.parametrize("eps_pe", (0.05, 0.2))
@pytest.mark.parametrize("m", (100, 1_000, 10_000))
@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_xi_covers_the_sampled_error_vector(d, m, eps_pe):
    radius = xi(m, d, eps_pe)
    allowed = eps_pe + Z * math.sqrt(eps_pe * (1.0 - eps_pe) / DRAWS)
    for q in (0.01, 0.05, 0.15):
        nominal = depolarizing_vector(Dim(d), q)
        rng = np.random.default_rng([d, m, round(100 * q), round(100 * eps_pe)])
        estimates = rng.multinomial(m, nominal, size=DRAWS) / m
        distance = np.abs(estimates - nominal).sum(axis=1)
        misses = float(np.mean(distance >= radius))
        assert misses <= allowed, (d, m, q, eps_pe, misses, allowed)


# A printed finite-key rate is a lower bound only if no point of the
# fluctuation set gives the adversary more than the report's holevo_worst.
# The depolarizing pair at key error Q - xi_key/2 and check error
# Q + xi_check/2 (clamped to [0, (d-1)/d]) lies within each basis's radius
# of the nominal vector, so its rate, with the report's other terms, bounds
# the printed one from above. Its I_E comes from the oracle's spectrum
# reconstruction, never from the package's kernel.
NOT_A_BOUND = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the flux mode's corner is not the worst case of the fluctuation set (ROADMAP items 2 and 6)",
)


@pytest.mark.parametrize(
    "family, mode",
    [
        (Family.TWO_BASIS, FluxMode.EQUAL),
        (Family.TWO_BASIS, FluxMode.BRUTE),
        pytest.param(Family.TWO_BASIS, FluxMode.SINGLE, marks=NOT_A_BOUND),
        *(pytest.param(Family.DPLUS1, mode, marks=NOT_A_BOUND) for mode in FluxMode),
    ],
)
def test_printed_finite_key_rate_is_below_a_feasible_point(family, mode):
    above = []
    for d, q, n_signals in itertools.product((2, 3, 5, 11), (0.01, 0.05, 0.1), (10**5, 10**6, 10**8)):
        spec = ProtocolSpec(family, d)
        report = optimize_r_finite(spec, q, n_signals, 1e-5, 1e-10, mode)
        if report.r_n == 0.0:
            continue
        nominal = depolarizing_vector(spec.dim, q)
        xi_key, xi_check = (xi(m, d, report.params.eps_pe) for m in report.m_per_basis[:2])
        key = depolarizing_vector(spec.dim, max(q - xi_key / 2.0, 0.0))
        check = depolarizing_vector(spec.dim, min(q + xi_check / 2.0, (d - 1) / d))
        assert np.abs(key - nominal).sum() <= xi_key + 1e-12
        assert np.abs(check - nominal).sum() <= xi_check + 1e-12
        stats = np.stack([key] + [check] * (spec.n_bases - 1))
        if family is Family.DPLUS1:  # the spectrum they fix is a state's, up to rounding
            assert lambda_entries_from_q(stats[None, 0], stats[None, 1:]).min() >= -1e-15
        info, saturated = adversary_information_rows(spec, stats[None])
        assert not saturated[0]
        terms = report.terms
        penalties = terms["h_ab"] + terms["ec_term"] + terms["pa_term"] + terms["smooth_term"]
        point = max(report.n / n_signals * (math.log2(d) - float(info[0]) - penalties), 0.0)
        if report.r_n > point + 1e-12:
            above.append((d, q, n_signals, report.r_n, point))
    assert above == [], f"{len(above)} printed rates above the point's rate, e.g. (d, Q, N, r_N, point) {above[0]}"
